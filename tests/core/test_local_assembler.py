"""Tests for the local-assembly API: ``extend_tasks`` over the tasks
``tasks_from_candidates`` builds, then ``apply_extensions``."""

import numpy as np
import pytest

from repro.core.config import LocalAssemblyConfig
from repro.core.local_assembler import extend_tasks
from repro.core.tasks import (
    RIGHT,
    ExtensionTask,
    TaskSet,
    apply_extensions,
    tasks_from_candidates,
)
from repro.pipeline.alignment import CandidateReads, ContigCandidates
from repro.sequence.dna import encode, random_dna


@pytest.fixture
def scenario(rng):
    """A contig + right-end candidates that extend it along the genome."""
    genome = random_dna(400, rng)
    seqs = [encode(genome[start : start + 80]) for start in range(100, 300, 10)]
    right = CandidateReads(
        np.concatenate(seqs),
        np.full(80 * len(seqs), 40, dtype=np.uint8),
        np.full(len(seqs), 80, dtype=np.int64),
    )
    none = np.empty(0, dtype=np.uint8)
    cand = ContigCandidates(0, CandidateReads(none, none, np.empty(0, np.int64)), right)
    return genome, {0: genome[:150]}, {0: cand}


def _extend(contig_seqs, candidates, mode):
    tasks = tasks_from_candidates(contig_seqs, candidates)
    extensions, report = extend_tasks(tasks, mode=mode)
    return apply_extensions(contig_seqs, extensions), report


class TestExtendContigs:
    def test_cpu_extends_along_genome(self, scenario):
        genome, seqs, cands = scenario
        out, report = _extend(seqs, cands.values(), "cpu")
        assert report.mode == "cpu"
        assert report.n_extended == 1
        seq = out[0]
        assert len(seq) > 150
        assert seq == genome[: len(seq)]

    def test_gpu_matches_cpu(self, scenario):
        _, seqs, cands = scenario
        cpu_out, _ = _extend(seqs, cands.values(), "cpu")
        gpu_out, report = _extend(seqs, cands.values(), "gpu")
        assert cpu_out == gpu_out
        assert report.gpu_report is not None
        assert report.gpu_report.kernel_time_s > 0

    def test_accepts_iterable_candidates(self, scenario):
        _, seqs, cands = scenario
        out_map, _ = _extend(seqs, cands.values(), "cpu")
        out_iter, _ = _extend(seqs, iter(list(cands.values())), "cpu")
        assert out_map == out_iter

    def test_invalid_mode(self, scenario):
        _, seqs, cands = scenario
        with pytest.raises(ValueError, match="mode"):
            _extend(seqs, cands.values(), "quantum")

    def test_wall_time_recorded(self, scenario):
        _, seqs, cands = scenario
        _, report = _extend(seqs, cands.values(), "cpu")
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

    @pytest.mark.parametrize("mode", ["cpu", "gpu"])
    def test_streams_other_than_two_rejected(self, mode):
        with pytest.raises(ValueError, match="streams"):
            extend_tasks(TaskSet([]), mode=mode, streams=3)
        exts, _ = extend_tasks(TaskSet([]), mode=mode, streams=2)
        assert exts == {}

    def test_report_counts(self, rng):
        genome = random_dna(300, rng)
        reads = tuple(encode(genome[i : i + 70]) for i in range(60, 200, 8))
        quals = tuple(np.full(70, 40, dtype=np.uint8) for _ in reads)
        t_live = ExtensionTask.from_reads(cid=0, side=RIGHT, contig=encode(genome[:100]),
                               reads=reads, quals=quals)
        t_dead = ExtensionTask.from_reads(cid=1, side=RIGHT, contig=encode(genome[:100]),
                               reads=(), quals=())
        exts, report = extend_tasks(TaskSet([t_live, t_dead]), mode="cpu")
        assert report.n_tasks == 2
        assert report.n_extended == 1
        assert report.total_extension_bases == len(exts[(0, RIGHT)])

    def test_custom_config_respected(self, rng):
        genome = random_dna(500, rng)
        reads = tuple(encode(genome[i : i + 70]) for i in range(60, 400, 6))
        quals = tuple(np.full(70, 40, dtype=np.uint8) for _ in reads)
        task = ExtensionTask.from_reads(cid=0, side=RIGHT, contig=encode(genome[:100]),
                             reads=reads, quals=quals)
        short_cfg = LocalAssemblyConfig(max_walk_len=5)
        exts, _ = extend_tasks(TaskSet([task]), config=short_cfg, mode="cpu")
        # each round appends at most 5; round count is bounded
        from repro.core.gpu_batch import max_rounds

        assert len(exts[(0, RIGHT)]) <= 5 * max_rounds(short_cfg)
