"""Tests for paired-end scaffolding."""

import numpy as np
import pytest
from reference import best_placements

from repro.pipeline.alignment import ReadAlignment
from repro.sequence.contigs import Contig, ContigSet
from repro.pipeline.scaffolding import LEFT, RIGHT, build_scaffolds
from repro.sequence.dna import random_dna, revcomp


def _aln(read_idx, cid, offset, is_rc, matches=100):
    return ReadAlignment(
        read_idx=read_idx, cid=cid, offset=offset, is_rc=is_rc,
        matches=matches, mismatches=0, ov_len=matches,
    )


def _scaffolds(contigs, best, lengths, **kw):
    return build_scaffolds(contigs, best_placements(best, lengths.size), lengths, **kw)


@pytest.fixture
def two_contigs(rng):
    return ContigSet([Contig(0, random_dna(300, rng)), Contig(1, random_dna(300, rng))])


def _link_pairs(n_pairs, cid_a=0, cid_b=1, start_read=0):
    """Pairs witnessing (A,right) ~ (B,left): read1 forward near A's right
    end, read2 rc near B's left end."""
    best = {}
    for p in range(n_pairs):
        r1 = start_read + 2 * p
        best[r1] = _aln(r1, cid_a, offset=180, is_rc=False)
        best[r1 + 1] = _aln(r1 + 1, cid_b, offset=30, is_rc=True)
    return best


class TestLinks:
    def test_simple_join(self, two_contigs):
        best = _link_pairs(3)
        lengths = np.full(6, 100, dtype=np.int64)
        res = _scaffolds(two_contigs, best, lengths, insert_mean=350, min_support=2)
        assert res.n_edges_kept == 1
        assert len(res.scaffolds) == 1
        s = res.scaffolds[0]
        assert set(s.contig_ids) == {0, 1}
        assert "N" in s.seq
        a, b = two_contigs[0].seq, two_contigs[1].seq
        assert (a in s.seq or revcomp(a) in s.seq)
        assert (b in s.seq or revcomp(b) in s.seq)

    def test_min_support(self, two_contigs):
        best = _link_pairs(1)
        res = _scaffolds(two_contigs, best, np.full(2, 100), min_support=2)
        assert res.n_edges_kept == 0
        assert len(res.scaffolds) == 2  # singletons

    def test_same_contig_pairs_ignored(self, two_contigs):
        best = {0: _aln(0, 0, 10, False), 1: _aln(1, 0, 150, True)}
        res = _scaffolds(two_contigs, best, np.full(2, 100), min_support=1)
        assert res.n_links_considered == 0

    def test_unaligned_mate_ignored(self, two_contigs):
        best = {0: _aln(0, 0, 180, False)}  # mate missing
        res = _scaffolds(two_contigs, best, np.full(2, 100), min_support=1)
        assert res.n_links_considered == 0

    def test_gap_estimate_reasonable(self, two_contigs):
        best = _link_pairs(4)
        res = _scaffolds(two_contigs, best, np.full(8, 100), insert_mean=400)
        s = res.scaffolds[0]
        n_run = s.seq.count("N")
        # overhangs: A right: 300-180=120; B left: 30+100=130 -> gap ~150
        assert 100 <= n_run <= 200

    def test_ambiguous_end_dropped(self, rng):
        contigs = ContigSet([Contig(i, random_dna(300, rng)) for i in range(3)])
        best = {}
        best.update(_link_pairs(2, cid_a=0, cid_b=1, start_read=0))
        best.update(_link_pairs(2, cid_a=0, cid_b=2, start_read=100))
        lengths = np.full(200, 100, dtype=np.int64)
        res = _scaffolds(contigs, best, lengths, min_support=2)
        # contig 0's right end links to both 1 and 2 -> ambiguous -> dropped
        assert res.n_ambiguous_ends >= 1
        assert len(res.scaffolds) == 3

    def test_chain_of_three(self, rng):
        contigs = ContigSet([Contig(i, random_dna(300, rng)) for i in range(3)])
        best = {}
        best.update(_link_pairs(2, cid_a=0, cid_b=1, start_read=0))
        # link B's right to C's left: read on B forward (right end), mate on C rc (left end)
        for p in range(2):
            r1 = 100 + 2 * p
            best[r1] = _aln(r1, 1, offset=180, is_rc=False)
            best[r1 + 1] = _aln(r1 + 1, 2, offset=30, is_rc=True)
        lengths = np.full(200, 100, dtype=np.int64)
        res = _scaffolds(contigs, best, lengths, min_support=2)
        assert len(res.scaffolds) == 1
        assert len(res.scaffolds[0].contig_ids) == 3

    def test_every_contig_in_exactly_one_scaffold(self, rng):
        contigs = ContigSet([Contig(i, random_dna(200, rng)) for i in range(5)])
        best = _link_pairs(2, cid_a=1, cid_b=3)
        res = _scaffolds(contigs, best, np.full(100, 100), min_support=2)
        all_ids = [cid for s in res.scaffolds for cid in s.contig_ids]
        assert sorted(all_ids) == [0, 1, 2, 3, 4]
