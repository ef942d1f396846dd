"""A run loads what it runs: what `sys.modules` holds after each kind of
run, and that every module under ``src/repro`` is wired to an entry point.

``setup_s`` (interpreter start + import + FASTQ load) is a scored
end-to-end metric, and anything imported lazily lands inside the run
clock instead — so both directions are pinned: a CPU run imports no
simulator, sanitizer, rank or service code at all, and imports nothing
of ``repro`` once set-up is over.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.sequence.community import arcticsynth_like, sample_paired_reads
from repro.sequence.dna import revcomp
from repro.sequence.fastq import save_read_batch
from repro.sequence.read import ReadBatch

PKG = Path(repro.__file__).parent

# -- (a) what a run leaves in sys.modules -------------------------------------

_CHILD = """
import json, os, sys
from repro.pipeline.pipeline import PipelineConfig, run_pipeline
from repro.sequence.fastq import load_read_batch

def shm():
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()

config = PipelineConfig(**json.loads(sys.argv[2]))
reads = load_read_batch(sys.argv[1])
shm_before = shm()
setup = set(sys.modules)
result = run_pipeline(reads, config)
tracker = sys.modules.get("multiprocessing.resource_tracker")
print(json.dumps({
    "setup": sorted(setup),
    "run": sorted(set(sys.modules) - setup),
    "extended": result.local_assembly.n_extended,
    "scaffolds": len(result.scaffolds.scaffolds),
    "shm_new": sorted(shm() - shm_before),
    "tracker_pid": tracker and tracker._resource_tracker._pid,
}))
"""

_GPU_STACK = (
    "repro.gpusim",
    "repro.core.driver",
    "repro.core.gpu_batch",
    "repro.core.extension_kernel",
    "repro.core.extension_kernel_batched",
)
#: what a default CPU run must never load (matched as module-name prefixes)
_NEVER_IN_CPU_RUN = _GPU_STACK + (
    "repro.sanitize",
    "repro.distributed",
    "repro.service",
    "repro.pipeline.checkpoint",
    "multiprocessing",
)
#: what no run loads unless asked for by name (models, linters, the
#: kernel sanitizer)
_NEVER_IN_RANKED_RUN = (
    "repro.distributed.summit",
    "repro.distributed.strong_scaling",
    "repro.sanitize.concheck",
    "repro.sanitize.lint",
    "repro.sanitize.sanitizer",
)


def _loaded(modules: list[str], prefixes: tuple[str, ...]) -> list[str]:
    return [
        m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)
    ]


@pytest.fixture(scope="module")
def fastq(tmp_path_factory) -> Path:
    rng = np.random.default_rng(41)
    community = arcticsynth_like(rng, n_genomes=3, genome_length=3000)
    path = tmp_path_factory.mktemp("layers") / "reads.fastq"
    save_read_batch(path, sample_paired_reads(community, 700, rng))
    return path


def _circular_pairs(rng, length=1500, n_pairs=300, read_len=100, insert=250) -> ReadBatch:
    """Error-free pairs sampled around a circular plasmid: reads wrap the
    origin, so its de Bruijn graph is one cycle."""
    plasmid = "".join(rng.choice(list("ACGT"), size=length))
    ring = plasmid * 2
    seqs = []
    for start in rng.integers(0, length, size=n_pairs).tolist():
        seqs.append(ring[start : start + read_len])
        seqs.append(revcomp(ring[start + insert - read_len : start + insert]))
    return ReadBatch.from_strings(seqs, paired=True)


@pytest.fixture(scope="module")
def circular_fastq(tmp_path_factory) -> Path:
    """The community plus a circular plasmid: contig generation cuts a cycle."""
    rng = np.random.default_rng(43)
    community = arcticsynth_like(rng, n_genomes=3, genome_length=3000)
    reads = ReadBatch.concat(
        [sample_paired_reads(community, 700, rng), _circular_pairs(rng)]
    )
    path = tmp_path_factory.mktemp("layers") / "circular.fastq"
    save_read_batch(path, reads)
    return path


def _run(fastq: Path, **config) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, str(fastq), json.dumps(config)],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=str(PKG.parent)),
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    # the run did real work in every stage that could import something
    assert report["extended"] > 0
    assert report["scaffolds"] > 0
    return report


class TestRunLoadsWhatItRuns:
    def test_cpu_run(self, fastq):
        report = _run(fastq)
        everything = report["setup"] + report["run"]
        assert _loaded(everything, _NEVER_IN_CPU_RUN) == []
        # the exact name: ``numpy.matrixlib`` is part of ``import numpy``
        assert "numpy.ma" not in everything
        # nothing migrates from set-up into the run clock
        assert _loaded(report["run"], ("repro",)) == []

    def test_gpu_run(self, fastq):
        report = _run(fastq, local_assembly_mode="gpu")
        # building and checking the config loads no simulator; the run does
        assert _loaded(report["setup"], _NEVER_IN_CPU_RUN) == []
        assert "repro.core.driver" in report["run"]
        assert "repro.gpusim.batched" in report["run"]
        everything = report["setup"] + report["run"]
        assert (
            _loaded(everything, _NEVER_IN_RANKED_RUN + ("repro.distributed", "repro.service"))
            == []
        )
        assert "numpy.ma" not in everything

    def test_ranked_run(self, fastq):
        report = _run(fastq, kmer_ranks=2, aln_ranks=2)
        assert _loaded(report["setup"], _NEVER_IN_CPU_RUN) == []
        assert "repro.distributed.procrank" in report["run"]
        everything = report["setup"] + report["run"]
        assert _loaded(everything, _NEVER_IN_RANKED_RUN + ("repro.service",)) == []
        # the rank segments live in repro.distributed: no simulator module
        assert _loaded(everything, _GPU_STACK) == []
        # the rank checker loads only for sanitize="rankcheck"
        assert _loaded(everything, ("repro.sanitize",)) == []
        assert "numpy.ma" not in everything
        # no segment outlives the run, and no segment was ever tracked:
        # a tracked one starts multiprocessing's resource-tracker process
        assert report["shm_new"] == []
        assert report["tracker_pid"] is None

    def test_circular_genome_run(self, circular_fastq, monkeypatch):
        from repro.pipeline import contig_generation
        from repro.pipeline.kmer_analysis import analyze_kmers
        from repro.pipeline.merge_reads import merge_read_pairs
        from repro.sequence.fastq import load_read_batch

        # the input really has a cycle for contig generation to cut ...
        cuts = []
        cut = contig_generation._cut_cycles
        monkeypatch.setattr(
            contig_generation, "_cut_cycles", lambda *a: cuts.append(cut(*a))
        )
        merged, _ = merge_read_pairs(load_read_batch(circular_fastq))
        contig_generation.generate_contigs(analyze_kmers(merged, 21))
        assert cuts
        # ... and cutting it loads no numpy.ma into the run
        report = _run(circular_fastq)
        assert "numpy.ma" not in report["setup"] + report["run"]


_GPU_EXTEND = """
import json, sys
import numpy as np
from repro.core.local_assembler import extend_tasks
from repro.core.tasks import RIGHT, ExtensionTask, TaskSet
from repro.sequence.dna import encode, random_dna

genome = random_dna(300, np.random.default_rng(5))
reads = tuple(encode(genome[i : i + 70]) for i in range(0, 230, 5))
quals = tuple(np.full(70, 40, dtype=np.uint8) for _ in reads)
task = ExtensionTask.from_reads(
    cid=0, side=RIGHT, contig=encode(genome[:120]), reads=reads, quals=quals
)
ext, _ = extend_tasks(TaskSet([task]), mode="gpu", sanitize=sys.argv[1])
print(json.dumps({
    "extended": int(ext.lengths().sum()),
    "interpreter": "repro.gpusim.warp" in sys.modules,
}))
"""


@pytest.mark.parametrize("sanitize", ["off", "memcheck"])
def test_only_interpreted_launches_load_the_interpreter(sanitize):
    """An unsanitized v2 launch runs on the batched engine and never loads
    ``repro.gpusim.warp``; a sanitized one interprets the kernel and does."""
    out = subprocess.run(
        [sys.executable, "-c", _GPU_EXTEND, sanitize],
        capture_output=True,
        text=True,
        timeout=120,
        env=dict(os.environ, PYTHONPATH=str(PKG.parent)),
    )
    assert out.returncode == 0, out.stderr
    report = json.loads(out.stdout.strip().splitlines()[-1])
    assert report["extended"] > 0
    assert report["interpreter"] == (sanitize != "off")


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs Linux /proc")
def test_setup_starts_no_blas_worker():
    """The program makes no BLAS call, so its import leaves one thread: an
    OpenBLAS worker would spin ~0.13 CPU-s into set-up or the run."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import os, repro.pipeline.pipeline; print(len(os.listdir('/proc/self/task')))",
        ],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(env, PYTHONPATH=str(PKG.parent)),
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "1"


# -- (b) every module is reachable from an entry point ------------------------

#: modules no entry point imports, each with the caller that keeps it
_UNWIRED_ON_PURPOSE = {
    "repro._version",  # read by the package root, which the walk does not expand
    "repro.analysis.validation",  # benchmarks/e2e/child.py's quality scorer
    "repro.gpusim.roofline",  # benchmarks/bench_fig08_09_roofline.py (Fig 8-9)
    # re-export for benchmarks/e2e/trace.py's import; ROADMAP 1(c) deletes it
    "repro.pipeline.contigs",
}


def _modules() -> dict[str, Path]:
    out = {}
    for path in PKG.rglob("*.py"):
        parts = list(path.relative_to(PKG.parent).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        out[".".join(parts)] = path
    return out


def _definer(mods: dict[str, Path], module: str, name: str) -> str:
    """The module ``from module import name`` really loads *name* from:
    the submodule of that name, or — through a package's re-export — the
    module the package itself imported it from."""
    if f"{module}.{name}" in mods:
        return f"{module}.{name}"
    if mods[module].name == "__init__.py":
        for node in ast.parse(mods[module].read_text()).body:
            if isinstance(node, ast.ImportFrom) and node.module in mods:
                for alias in node.names:
                    if (alias.asname or alias.name) == name:
                        return _definer(mods, node.module, alias.name)
    return module


def _imports(mods: dict[str, Path], module: str) -> set[str]:
    found = set()
    for node in ast.walk(ast.parse(mods[module].read_text())):
        if isinstance(node, ast.Import):
            found.update(a.name for a in node.names if a.name in mods)
        elif isinstance(node, ast.ImportFrom) and node.module in mods:
            assert node.level == 0, f"{module}: relative import"
            found.update(_definer(mods, node.module, a.name) for a in node.names)
    return found


def test_every_module_is_reachable_from_the_cli():
    """Follow imports from ``repro.cli`` / ``repro.__main__``.  A package
    ``__init__`` is looked *through* (to the module defining the imported
    name), never expanded, so a re-export alone keeps nothing alive — an
    unwired module cannot hide behind one."""
    mods = _modules()
    seen: set[str] = set()
    stack = ["repro.cli", "repro.__main__"]
    while stack:
        module = stack.pop()
        if module in seen:
            continue
        seen.add(module)
        if mods[module].name != "__init__.py":
            stack.extend(_imports(mods, module))
    unreached = {m for m, p in mods.items() if p.name != "__init__.py"} - seen
    assert unreached == _UNWIRED_ON_PURPOSE
