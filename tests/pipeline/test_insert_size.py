"""Tests for empirical insert-size estimation."""

import numpy as np
import pytest
from reference import best_placements

from repro.pipeline.alignment import ReadAlignment, align_reads
from repro.sequence.contigs import Contig, ContigSet
from repro.pipeline.insert_size import estimate_insert_size, median
from repro.sequence.community import Community, CommunityDesign, sample_paired_reads
from repro.sequence.error_model import PERFECT
from repro.sequence.genomes import GenomeSpec


def _aln(read_idx, cid, offset, is_rc):
    return ReadAlignment(read_idx=read_idx, cid=cid, offset=offset, is_rc=is_rc,
                         matches=100, mismatches=0, ov_len=100)


def _estimate(best, lengths, **kw):
    return estimate_insert_size(best_placements(best, lengths.size), lengths, **kw)


class TestMedian:
    @pytest.mark.parametrize(
        "values",
        [
            [351.0, 347.0, 362.0, 349.0, 350.0],  # odd
            [351.0, 347.0, 362.0, 349.0],  # even: mean of the middle two
            [350.0] * 6,  # all equal
            [417.0],  # single element
            [3, 9, 4, 4],  # the scaffolder passes plain int gap lists
        ],
    )
    def test_equals_np_median(self, values):
        got = median(values)
        want = np.median(values)
        assert type(got) is float
        assert got == want
        assert median(np.asarray(values, dtype=np.float64)) == want


class TestSyntheticPlacements:
    def test_basic_estimate(self):
        best = {}
        lengths = np.full(200, 100, dtype=np.int64)
        for p in range(100):
            # fwd mate at 50, rev mate ending at 50 + insert
            insert = 350 + (p % 11) - 5
            best[2 * p] = _aln(2 * p, 0, 50, False)
            best[2 * p + 1] = _aln(2 * p + 1, 0, 50 + insert - 100, True)
        est = _estimate(best, lengths)
        assert est.n_pairs_used == 100
        assert est.reliable
        assert est.mean == pytest.approx(350, abs=6)
        assert est.median == pytest.approx(350, abs=6)

    def test_discordant_pairs_excluded(self):
        lengths = np.full(4, 100, dtype=np.int64)
        best = {
            0: _aln(0, 0, 50, False), 1: _aln(1, 0, 300, False),  # same strand
            2: _aln(2, 0, 50, False), 3: _aln(3, 1, 300, True),  # diff contig
        }
        est = _estimate(best, lengths)
        assert est.n_pairs_used == 0
        assert not est.reliable

    def test_outliers_trimmed_from_mean(self):
        lengths = np.full(60, 100, dtype=np.int64)
        best = {}
        for p in range(29):
            best[2 * p] = _aln(2 * p, 0, 0, False)
            best[2 * p + 1] = _aln(2 * p + 1, 0, 250, True)  # insert 350
        # one chimeric pair with absurd-but-allowed separation
        best[58] = _aln(58, 0, 0, False)
        best[59] = _aln(59, 0, 4000, True)
        est = _estimate(best, lengths)
        assert est.median == pytest.approx(350, abs=1)
        assert est.mean == pytest.approx(350, abs=5)

    def test_max_insert_filter(self):
        lengths = np.full(2, 100, dtype=np.int64)
        best = {0: _aln(0, 0, 0, False), 1: _aln(1, 0, 9900, True)}
        est = _estimate(best, lengths, max_insert=5000)
        assert est.n_pairs_used == 0


class TestEndToEnd:
    def test_recovers_library_insert(self, rng):
        design = CommunityDesign(
            n_genomes=1,
            genome_spec=GenomeSpec(length=8000, repeat_fraction=0, shared_fraction=0),
            abundance_sigma=0.0,
            insert_mean=400.0,
            insert_sd=15.0,
            error_model=PERFECT,
        )
        comm = Community.generate(design, rng)
        reads = sample_paired_reads(comm, 600, rng)
        contigs = ContigSet([Contig(0, comm.genomes[0].seq)])
        aln = align_reads(contigs, reads)
        est = estimate_insert_size(aln.best_by_read(), reads.lengths())
        assert est.reliable
        assert est.mean == pytest.approx(400, rel=0.05)
        assert est.sd < 50
