"""Tests for the high-level extend_contigs / extend_tasks API."""

import numpy as np
import pytest

from repro.core.config import LocalAssemblyConfig
from repro.core.local_assembler import extend_contigs, extend_tasks
from repro.core.tasks import RIGHT, ExtensionTask, TaskSet
from repro.pipeline.alignment import ContigCandidates
from repro.pipeline.contigs import Contig, ContigSet
from repro.sequence.dna import encode, random_dna


@pytest.fixture
def scenario(rng):
    """A contig + right-end candidates that extend it along the genome."""
    genome = random_dna(400, rng)
    contig = Contig(cid=0, seq=genome[:150], depth=12.0)
    cand = ContigCandidates(cid=0)
    for start in range(100, 300, 10):
        seq = encode(genome[start : start + 80])
        cand.right.add(seq, np.full(80, 40, dtype=np.uint8))
    return genome, ContigSet([contig]), {0: cand}


class TestExtendContigs:
    def test_cpu_extends_along_genome(self, scenario):
        genome, contigs, cands = scenario
        out, report = extend_contigs(contigs, cands, mode="cpu")
        assert report.mode == "cpu"
        assert report.n_extended == 1
        seq = out[0].seq
        assert len(seq) > 150
        assert seq == genome[: len(seq)]

    def test_gpu_matches_cpu(self, scenario):
        _, contigs, cands = scenario
        cpu_out, _ = extend_contigs(contigs, cands, mode="cpu")
        gpu_out, report = extend_contigs(contigs, cands, mode="gpu")
        assert [c.seq for c in cpu_out] == [c.seq for c in gpu_out]
        assert report.gpu_report is not None
        assert report.gpu_report.kernel_time_s > 0

    def test_depth_preserved(self, scenario):
        _, contigs, cands = scenario
        out, _ = extend_contigs(contigs, cands, mode="cpu")
        assert out[0].depth == 12.0

    def test_accepts_iterable_candidates(self, scenario):
        _, contigs, cands = scenario
        out_map, _ = extend_contigs(contigs, cands, mode="cpu")
        out_iter, _ = extend_contigs(contigs, list(cands.values()), mode="cpu")
        assert [c.seq for c in out_map] == [c.seq for c in out_iter]

    def test_invalid_mode(self, scenario):
        _, contigs, cands = scenario
        with pytest.raises(ValueError):
            extend_contigs(contigs, cands, mode="quantum")

    def test_wall_time_recorded(self, scenario):
        _, contigs, cands = scenario
        _, report = extend_contigs(contigs, cands, mode="cpu")
        assert report.wall_time_s > 0


class TestExtendTasks:
    def test_empty_taskset(self):
        exts, report = extend_tasks(TaskSet([]), mode="cpu")
        assert exts == {} and report.n_tasks == 0

    @pytest.mark.parametrize("mode", ["cpu", "gpu"])
    def test_workers_other_than_one_rejected(self, mode):
        with pytest.raises(ValueError, match="workers"):
            extend_tasks(TaskSet([]), mode=mode, workers=2)
        exts, _ = extend_tasks(TaskSet([]), mode=mode, workers=1)
        assert exts == {}

    def test_report_counts(self, rng):
        genome = random_dna(300, rng)
        reads = tuple(encode(genome[i : i + 70]) for i in range(60, 200, 8))
        quals = tuple(np.full(70, 40, dtype=np.uint8) for _ in reads)
        t_live = ExtensionTask(cid=0, side=RIGHT, contig=encode(genome[:100]),
                               reads=reads, quals=quals)
        t_dead = ExtensionTask(cid=1, side=RIGHT, contig=encode(genome[:100]),
                               reads=(), quals=())
        exts, report = extend_tasks(TaskSet([t_live, t_dead]), mode="cpu")
        assert report.n_tasks == 2
        assert report.n_extended == 1
        assert report.total_extension_bases == len(exts[(0, RIGHT)])

    def test_custom_config_respected(self, rng):
        genome = random_dna(500, rng)
        reads = tuple(encode(genome[i : i + 70]) for i in range(60, 400, 6))
        quals = tuple(np.full(70, 40, dtype=np.uint8) for _ in reads)
        task = ExtensionTask(cid=0, side=RIGHT, contig=encode(genome[:100]),
                             reads=reads, quals=quals)
        short_cfg = LocalAssemblyConfig(max_walk_len=5)
        exts, _ = extend_tasks(TaskSet([task]), config=short_cfg, mode="cpu")
        # each round appends at most 5; round count is bounded
        from repro.core.gpu_batch import max_rounds

        assert len(exts[(0, RIGHT)]) <= 5 * max_rounds(short_cfg)
