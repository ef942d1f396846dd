"""The benchmark's traced replay still replays ``run_pipeline``.

``benchmarks/e2e/trace.py`` re-makes ``run_pipeline``'s calls one by one
under spans, importing each stage function by name.  A change that moves
or re-signatures one of those names used to surface only as a failed
benchmark run; here it fails in ``pytest``.  Both files are loaded by path
— ``trace.py`` would otherwise shadow the standard library's ``trace``.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.pipeline.pipeline import PipelineConfig, run_pipeline
from repro.sequence.community import arcticsynth_like, sample_paired_reads

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: the benchmark's four workload configs (``workloads.WORKLOADS``)
WORKLOAD_CONFIGS = {
    "arctic_cpu": {},
    "arctic_gpu": {"local_assembly_mode": "gpu"},
    "wa_lowcov_k2": {"k_series": (21, 33)},
    "even_ranks2": {"kmer_ranks": 2, "aln_ranks": 2},
}


def _load(name: str, alias: str):
    spec = importlib.util.spec_from_file_location(alias, E2E / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def e2e():
    """``(trace, child)`` from the benchmark, ``child`` seeing this ``trace``."""
    trace = _load("trace", "e2e_trace")
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(sys.modules, "trace", trace)
        mp.setitem(sys.modules, "workloads", _load("workloads", "e2e_workloads"))
        child = _load("child", "e2e_child")
    return trace, child


def _replay_imports() -> list[tuple[str, str]]:
    tree = ast.parse((E2E / "trace.py").read_text())
    (fn,) = [
        n for n in ast.walk(tree)
        if isinstance(n, ast.FunctionDef) and n.name == "traced_pipeline"
    ]
    return [
        (node.module, alias.name)
        for node in ast.walk(fn)
        if isinstance(node, ast.ImportFrom) and node.module.startswith("repro")
        for alias in node.names
    ]


def test_every_replay_import_resolves():
    imports = _replay_imports()
    assert len(imports) > 10  # the walk found the stage imports
    missing = [
        f"{module}.{name}"
        for module, name in imports
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


@pytest.fixture(scope="module")
def tiny_reads():
    rng = np.random.default_rng(27)
    community = arcticsynth_like(rng, n_genomes=2, genome_length=3000)
    return sample_paired_reads(community, 300, rng)


@pytest.mark.parametrize("workload", list(WORKLOAD_CONFIGS))
def test_replay_digest_equals_run_pipeline(e2e, tiny_reads, workload):
    trace, child = e2e
    config = PipelineConfig(**WORKLOAD_CONFIGS[workload])
    result = run_pipeline(tiny_reads, config)
    tracer = trace.Tracer(workload)
    contigs, scaffolds, layers = trace.traced_pipeline(tiny_reads, config, tracer)
    assert len(result.contigs) > 0
    assert child.result_digest(contigs, scaffolds) == child.result_digest(
        result.contigs, result.scaffolds
    )
    assert layers["distributed.inproc_fallback"] == 0
