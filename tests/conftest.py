"""Shared fixtures: deterministic RNGs and small reusable workloads.

Session-scoped fixtures cache the expensive artefacts (a small community
pipeline run) so the full suite stays fast.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import pytest

from repro.core.config import LocalAssemblyConfig
from repro.sequence.community import Community, CommunityDesign, sample_paired_reads
from repro.sequence.error_model import IlluminaErrorModel
from repro.sequence.genomes import GenomeSpec


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_community() -> Community:
    rng = np.random.default_rng(777)
    design = CommunityDesign(
        n_genomes=3,
        genome_spec=GenomeSpec(length=8000, repeat_fraction=0.02, shared_fraction=0.02),
        abundance_sigma=0.5,
        error_model=IlluminaErrorModel(rate_start=0.001, rate_end=0.005),
    )
    return Community.generate(design, rng)


@pytest.fixture(scope="session")
def small_reads(small_community):
    rng = np.random.default_rng(778)
    # ~25x coverage over 3x8kb genomes
    return sample_paired_reads(small_community, 2000, rng)


@pytest.fixture(scope="session")
def small_assembly(small_reads):
    """One CPU-mode pipeline run shared by integration tests."""
    from repro.pipeline import PipelineConfig, run_pipeline

    cfg = PipelineConfig(local_assembly_mode="cpu")
    return run_pipeline(small_reads, cfg)


@pytest.fixture
def la_config() -> LocalAssemblyConfig:
    return LocalAssemblyConfig(k_init=21, max_walk_len=150)


@pytest.fixture
def paired_cpu_ratio():
    """Measure how many times cheaper an array stage is than its reference."""

    def measure(reference, array, rounds: int = 5) -> float:
        """Median of *rounds* back-to-back reference/array CPU-time ratios:
        both sides of a ratio share whatever else the box is doing."""
        ratios = []
        for _ in range(rounds):
            t0 = time.process_time()
            reference()
            t1 = time.process_time()
            array()
            t2 = time.process_time()
            ratios.append((t1 - t0) / max(t2 - t1, 1e-9))
        return statistics.median(ratios)

    return measure
