"""Tests for extension tasks, orientation math and §3.1 binning."""

import numpy as np
import pytest
from la_reference import as_extension_set

from repro.core.binning import bin_contigs, bin_distribution
from repro.core.config import LocalAssemblyConfig
from repro.core.tasks import (
    LEFT,
    RIGHT,
    ExtensionTask,
    TaskSet,
    apply_extensions,
    tasks_from_candidates,
)
from repro.sequence.contigs import Contig, ContigSet
from repro.sequence.dna import encode, revcomp


def _task(cid, side, n_reads, contig="ACGTACGTACGTACGTACGTACGT"):
    reads = tuple(encode("ACGTACGT") for _ in range(n_reads))
    quals = tuple(np.full(8, 40, dtype=np.uint8) for _ in range(n_reads))
    return ExtensionTask.from_reads(cid=cid, side=side, contig=encode(contig), reads=reads, quals=quals)


class TestTasks:
    def test_validation(self):
        with pytest.raises(ValueError):
            ExtensionTask.from_reads(cid=0, side=7, contig=encode("ACGT"), reads=(), quals=())
        with pytest.raises(ValueError):
            ExtensionTask.from_reads(
                cid=0, side=LEFT, contig=encode("ACGT"),
                reads=(encode("AC"),), quals=(),
            )

    def test_rejects_read_with_mismatched_quals(self):
        """In a concatenated block a short quality array would shift every
        later task's qualities, so it is refused where the task is built."""
        reads = (encode("ACGT"), encode("ACGTA"))
        quals = (np.full(4, 40, dtype=np.uint8), np.full(4, 40, dtype=np.uint8))
        with pytest.raises(ValueError, match=r"cid=5, side=1.*read 1 has 5 bases but 4 quals"):
            ExtensionTask.from_reads(cid=5, side=RIGHT, contig=encode("ACGT"), reads=reads, quals=quals)

    def test_rejects_packed_arrays_that_disagree(self):
        """A packed task's lengths must cover its bases and quals exactly."""
        bases = encode("ACGTACGT")
        quals = np.full(8, 40, dtype=np.uint8)
        ExtensionTask(0, RIGHT, bases, bases, quals, np.array([3, 5]))
        with pytest.raises(ValueError, match=r"cid=0, side=1\): 7 read bases"):
            ExtensionTask(0, RIGHT, bases, bases, quals, np.array([3, 4]))
        with pytest.raises(ValueError, match="8 bases, 7 quals"):
            ExtensionTask(0, RIGHT, bases, bases, quals[:7], np.array([3, 5]))

    def test_per_read_views(self):
        t = ExtensionTask.from_reads(
            cid=0, side=LEFT, contig=encode("ACGT"),
            reads=(encode("AC"), encode("GTA")),
            quals=(np.full(2, 9, dtype=np.uint8), np.full(3, 7, dtype=np.uint8)),
        )
        assert [r.tolist() for r in t.reads] == [[0, 1], [2, 3, 0]]
        assert [q.tolist() for q in t.quals] == [[9, 9], [7, 7, 7]]
        assert t.read_lengths.tolist() == [2, 3]
        assert _task(0, RIGHT, 0).reads == () == _task(0, RIGHT, 0).quals

    def test_read_stats(self):
        t = _task(0, RIGHT, 3)
        assert t.n_reads == 3
        assert t.total_read_bases == 24
        assert t.max_read_length == 8
        assert _task(0, RIGHT, 0).max_read_length == 0

    def test_taskset_reads_per_contig(self):
        ts = TaskSet([_task(0, LEFT, 2), _task(0, RIGHT, 3), _task(1, LEFT, 0), _task(1, RIGHT, 0)])
        assert ts.reads_per_contig() == {0: 5, 1: 0}
        assert ts.contig_ids() == [0, 1]


class TestOrientation:
    def test_tasks_from_candidates_orients_left(self):
        class Side:
            def __init__(self, seq):
                self.bases = encode(seq)
                self.quals = np.full(len(seq), 40, dtype=np.uint8)
                self.lengths = np.array([len(seq)])

        class Cand:
            cid = 5
            left = Side("AACC")
            right = Side("GGTT")

        ts = tasks_from_candidates(ContigSet([Contig(5, "ACGTACGT")]), [Cand()])
        assert len(ts) == 2
        left_task = next(t for t in ts if t.side == LEFT)
        right_task = next(t for t in ts if t.side == RIGHT)
        # left task's contig is the reverse complement
        assert left_task.contig.tolist() == encode(revcomp("ACGTACGT")).tolist()
        assert right_task.contig.tolist() == encode("ACGTACGT").tolist()
        # each task takes its side's packed arrays as they are
        assert left_task.packed_reads()[0] is Cand.left.bases
        assert right_task.packed_reads()[2] is Cand.right.lengths

    def test_apply_extensions_math(self):
        contigs = ContigSet([Contig(0, "CCCGGG", 2.5)])
        exts = {(0, LEFT): "AT", (0, RIGHT): "GG"}
        out = apply_extensions(contigs, as_extension_set(exts))
        # left ext "AT" was walked on rc(contig); prepended as revcomp("AT")="AT"
        assert list(out) == [Contig(0, revcomp("AT") + "CCCGGG" + "GG", 2.5)]

    def test_apply_extensions_empty(self):
        out = apply_extensions(ContigSet([Contig(1, "ACGT")]), as_extension_set({}))
        assert list(out) == [Contig(1, "ACGT")]

    def test_left_extension_roundtrip(self):
        """Extending rc(contig) rightward by X means the original genome
        had revcomp(X) before the contig."""
        genome = "TTAACCGGACGTACGT"
        contig = genome[6:]  # "GGACGTACGT"
        missing = genome[:6]  # "TTAACC"
        # walking right on rc(contig) should produce revcomp(missing)
        ext_left = revcomp(missing)
        out = apply_extensions(ContigSet([Contig(0, contig)]), as_extension_set({(0, LEFT): ext_left}))
        assert out[0].seq == genome


class TestBinning:
    def test_three_bins(self):
        ts = TaskSet(
            [_task(0, LEFT, 0), _task(0, RIGHT, 0),   # bin 1
             _task(1, LEFT, 2), _task(1, RIGHT, 3),   # bin 2 (5 reads)
             _task(2, LEFT, 6), _task(2, RIGHT, 7)]   # bin 3 (13 reads)
        )
        bins = bin_contigs(ts, LocalAssemblyConfig(bin2_max_reads=10))
        assert bins.bin1 == (0,)
        assert bins.bin2 == (1,)
        assert bins.bin3 == (2,)
        assert bins.n_contigs == 3

    def test_boundary_at_bin2_max(self):
        ts = TaskSet([_task(0, LEFT, 10), _task(0, RIGHT, 0)])
        bins = bin_contigs(ts, LocalAssemblyConfig(bin2_max_reads=10))
        assert bins.bin3 == (0,)  # exactly 10 reads -> bin 3
        ts2 = TaskSet([_task(0, LEFT, 9), _task(0, RIGHT, 0)])
        bins2 = bin_contigs(ts2, LocalAssemblyConfig(bin2_max_reads=10))
        assert bins2.bin2 == (0,)

    def test_fractions(self):
        ts = TaskSet(
            [_task(i, LEFT, 0) for i in range(8)]
            + [_task(8, LEFT, 5), _task(9, LEFT, 50)]
        )
        bins = bin_contigs(ts)
        f1, f2, f3 = bins.fractions()
        assert (f1, f2, f3) == (0.8, 0.1, 0.1)
        assert sum(bins.fractions()) == pytest.approx(1.0)

    def test_work_fractions_dominated_by_bin3(self):
        ts = TaskSet([_task(0, LEFT, 0), _task(1, LEFT, 5), _task(2, LEFT, 500)])
        bins = bin_contigs(ts)
        w1, w2, w3 = bins.work_fractions()
        assert w3 > 0.95 and w1 == 0.0

    def test_empty_taskset(self):
        bins = bin_contigs(TaskSet([]))
        assert bins.n_contigs == 0
        assert bins.fractions() == (0.0, 0.0, 0.0)
        assert bins.work_fractions() == (0.0, 0.0, 0.0)

    def test_distribution_sorted_by_k(self):
        ts = TaskSet([_task(0, LEFT, 0)])
        d = bin_distribution({33: bin_contigs(ts), 21: bin_contigs(ts)})
        assert list(d) == [21, 33]
