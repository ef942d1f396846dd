"""The real extension kernels are sanitizer-clean on every engine.

This is the acceptance gate for the kernels themselves: running the
unmodified v2 kernel (and the v1 baseline) under ``--sanitize full``
reports zero errors on the sequential and batched engines, and
turning the sanitizer on does not change a single extended base.
"""

import numpy as np
import pytest

from repro.core.config import LocalAssemblyConfig
from repro.core.driver import GpuLocalAssembler
from repro.core.tasks import ExtensionTask, TaskSet


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(7)
    genome = rng.integers(0, 4, size=320, dtype=np.uint8)
    tasks = []
    for i in range(12):
        start = (i * 13) % 120
        contig = genome[start : start + 120].copy()
        reads, quals = [], []
        for off in range(0, 180, 5):
            s = start + 60 + off
            if s + 70 > genome.size:
                break
            reads.append(genome[s : s + 70].copy())
            quals.append(np.full(70, 40, dtype=np.uint8))
        tasks.append(
            ExtensionTask.from_reads(cid=i, side=1, contig=contig, reads=reads, quals=quals)
        )
    return TaskSet(tasks)


#: accesses one sanitized v2 run of ``workload`` checks, on every engine
#: (measured before the batched build was derived, PR 20)
N_CHECKED = 911_183


@pytest.fixture(scope="module")
def cfg():
    return LocalAssemblyConfig(k_init=21, max_walk_len=150)


@pytest.fixture(scope="module")
def baseline(workload, cfg):
    """Unsanitized sequential v2 run — the bit-identity reference."""
    return GpuLocalAssembler(config=cfg, engine="sequential").run(workload)


@pytest.mark.parametrize("engine", ["sequential", "batched"])
def test_v2_sanitizer_clean_on_engine(workload, cfg, baseline, engine):
    asm = GpuLocalAssembler(config=cfg, engine=engine, sanitize="full")
    report = asm.run(workload)
    san = report.sanitizer
    assert san is not None
    assert san.mode == "full"
    assert san.clean, san.summary()
    # every engine shows the sanitizer the same accesses
    assert san.n_checked == N_CHECKED
    # enabling the checkers must not perturb the assembly
    assert report.extensions == baseline.extensions


@pytest.mark.parametrize("mode", ["memcheck", "racecheck", "initcheck"])
def test_batched_sanitized_coverage_is_pinned(workload, cfg, baseline, mode):
    """Unsanitized batched launches derive the table build instead of
    stepping it; a sanitized one must still step — and show — every
    access, under each checker family."""
    report = GpuLocalAssembler(config=cfg, engine="batched", sanitize=mode).run(workload)
    assert report.sanitizer.clean, report.sanitizer.summary()
    assert report.sanitizer.n_checked == N_CHECKED
    assert report.extensions == baseline.extensions


def test_v1_sanitizer_clean(workload, cfg):
    asm = GpuLocalAssembler(config=cfg, kernel_version="v1", sanitize="full")
    report = asm.run(workload)
    assert report.sanitizer.clean, report.sanitizer.summary()


def test_unsanitized_report_has_no_sanitizer(baseline):
    assert baseline.sanitizer is None


def test_sanitize_knob_threads_through_pipeline():
    from repro.pipeline.pipeline import PipelineConfig

    cfg = PipelineConfig(local_assembly_sanitize="full")
    assert cfg.local_assembly_sanitize == "full"
    with pytest.raises(ValueError, match="local_assembly_sanitize"):
        PipelineConfig(local_assembly_sanitize="everything")


def test_driver_rejects_bad_mode(cfg):
    with pytest.raises(ValueError, match="sanitize"):
        GpuLocalAssembler(config=cfg, sanitize="all")
