"""Ranked alignment: bit-identity across rank counts, wire-format
soundness, exchange accounting, and segment hygiene.

The load-bearing invariant mirrors the k-mer exchange's: at every rank
count (through either transport of the harness)
:func:`repro.distributed.procrank.ranked_align` must return an :class:`~repro.pipeline.alignment.
AlignmentResult` bit-identical to the single-process
:func:`~repro.pipeline.alignment.align_reads` — alignments, counters and
per-end candidate reads alike — so ``PipelineConfig.aln_ranks`` can
never change a contig.
"""

import os

import numpy as np
import pytest

from repro.distributed import harness
from repro.distributed.procrank import (
    ALN_RANK_PHASES,
    aln_wire_rows,
    group_rows_by_owner,
    procrank_available,
    ranked_align,
    rows_from_wire,
)
from repro.pipeline.alignment import AlnRows, align_reads
from repro.pipeline.contig_generation import generate_contigs
from repro.pipeline.kmer_analysis import analyze_kmers
from repro.pipeline.merge_reads import merge_read_pairs
from repro.sequence.community import arcticsynth_like, sample_paired_reads


@pytest.fixture(scope="module")
def workload():
    rng = np.random.default_rng(31415)
    community = arcticsynth_like(rng, n_genomes=3, genome_length=6_000)
    reads = sample_paired_reads(community, 900, rng)
    merged, _ = merge_read_pairs(reads)
    classified = analyze_kmers(merged, 21, min_count=2, min_depth=2)
    contigs = generate_contigs(classified)
    return contigs, reads


def _assert_same(a, b) -> None:
    assert a.n_seed_hits == b.n_seed_hits
    assert a.n_reads_aligned == b.n_reads_aligned
    assert a.alignments == b.alignments
    assert set(a.candidates) == set(b.candidates)
    for cid in a.candidates:
        ca, cb = a.candidates[cid], b.candidates[cid]
        for side in ("left", "right"):
            sa, sb = getattr(ca, side), getattr(cb, side)
            assert len(sa) == len(sb), (cid, side)
            for x, y in zip(sa.seqs, sb.seqs):
                assert np.array_equal(x, y)
            for x, y in zip(sa.quals, sb.quals):
                assert np.array_equal(x, y)


def _sample_rows() -> AlnRows:
    n = 13
    rng = np.random.default_rng(5)
    read = np.sort(rng.integers(0, 6, n)).astype(np.int64)
    seq = np.zeros(n, dtype=np.int64)
    for r in np.unique(read):
        sel = read == r
        seq[sel] = np.arange(int(sel.sum()))
    return AlnRows(
        read=read,
        seq_in_read=seq,
        cid=rng.integers(0, 9, n).astype(np.int64),
        offset=rng.integers(-40, 120, n).astype(np.int64),
        is_rc=rng.integers(0, 2, n).astype(bool),
        matches=rng.integers(30, 90, n).astype(np.int64),
        mismatches=rng.integers(0, 5, n).astype(np.int64),
        ov_len=rng.integers(30, 95, n).astype(np.int64),
        n_seed_hits=321,
        n_reads_aligned=6,
    )


class TestWireFormat:
    def test_roundtrip(self):
        rows = _sample_rows()
        back = rows_from_wire(aln_wire_rows(rows), rows.n_seed_hits,
                              rows.n_reads_aligned)
        for f in ("read", "seq_in_read", "cid", "offset", "is_rc",
                  "matches", "mismatches", "ov_len"):
            assert np.array_equal(getattr(rows, f), getattr(back, f)), f
        assert back.is_rc.dtype == np.bool_
        assert back.n_seed_hits == 321 and back.n_reads_aligned == 6

    @pytest.mark.parametrize("n_ranks", [1, 2, 3, 5])
    def test_owner_grouping_is_stable_and_complete(self, n_ranks):
        wire = aln_wire_rows(_sample_rows())
        grouped, dest_counts = group_rows_by_owner(wire, n_ranks)
        assert int(dest_counts.sum()) == wire.shape[0]
        offs = np.concatenate(([0], np.cumsum(dest_counts)))
        for d in range(n_ranks):
            part = grouped[offs[d] : offs[d + 1]]
            assert np.all(part[:, 2] % n_ranks == d)
            # stable: each destination slice is still in emission order
            assert np.array_equal(
                np.lexsort((part[:, 1], part[:, 0])),
                np.arange(part.shape[0]),
            )
        # multiset preserved
        assert np.array_equal(
            np.sort(wire.view("S64").ravel()),
            np.sort(grouped.view("S64").ravel()),
        )

    def test_empty_rows(self):
        wire = aln_wire_rows(AlnRows.empty())
        grouped, dest_counts = group_rows_by_owner(wire, 4)
        assert grouped.shape == (0, 8)
        assert np.array_equal(dest_counts, np.zeros(4, dtype=np.int64))


class TestRankedAlign:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_bit_identical_across_rank_counts(self, workload, n_ranks):
        contigs, reads = workload
        ref = align_reads(contigs, reads)
        aln, stats, report = ranked_align(contigs, reads, n_ranks)
        _assert_same(ref, aln)
        assert report.n_ranks == n_ranks
        assert stats.n_ranks == n_ranks
        if n_ranks == 1:
            assert report.mode == "inproc"
        elif procrank_available():
            assert report.mode == "procrank"

    def test_inproc_fallback_identical(self, workload, monkeypatch):
        contigs, reads = workload
        ref = align_reads(contigs, reads)
        _, forked_stats, _ = ranked_align(contigs, reads, 3)
        monkeypatch.setattr(harness, "procrank_available", lambda: False)
        aln, stats, report = ranked_align(contigs, reads, 3)
        assert report.mode == "inproc"
        assert len(report.per_rank) == 3
        assert stats == forked_stats  # same counts matrix through either
        _assert_same(ref, aln)

    def test_exchange_volume_measured(self, workload):
        contigs, reads = workload
        _, stats, report = ranked_align(contigs, reads, 2)
        sent = sum(m.sent for m in report.per_rank)
        recv = sum(m.recv for m in report.per_rank)
        assert sent == recv == stats.total_kmers_sent  # rows, here
        assert stats.bytes_per_rank_max > 0
        assert stats.total_kmers_sent > 0

    def test_metrics_have_aln_phases(self, workload):
        contigs, reads = workload
        _, _, report = ranked_align(contigs, reads, 2, profile=True)
        assert len(report.per_rank) == 2
        for m in report.per_rank:
            assert tuple(m.phase_s) == ALN_RANK_PHASES
            assert m.wall_s > 0 and m.cpu_s >= 0
            assert m.phase_s["align"] > 0
        assert report.cpu_critical_s > 0
        assert report.profiles is not None
        for prof in report.profiles:
            phases = {r["phase"] for r in prof["records"]}
            assert set(ALN_RANK_PHASES) <= phases
            # the per-rank align_core breakdown rides along
            assert "aln_seed" in phases

    @pytest.mark.skipif(
        not procrank_available(), reason="needs fork + shared memory"
    )
    def test_no_leaked_segments(self, workload):
        contigs, reads = workload
        before = {
            n for n in os.listdir("/dev/shm") if n.startswith("repro-")
        } if os.path.isdir("/dev/shm") else set()
        ranked_align(contigs, reads, 2)
        after = {
            n for n in os.listdir("/dev/shm") if n.startswith("repro-")
        } if os.path.isdir("/dev/shm") else set()
        assert after <= before

    def test_rank_validation(self, workload):
        contigs, reads = workload
        with pytest.raises(ValueError):
            ranked_align(contigs, reads, 0)


class TestPipelineKnob:
    def test_aln_ranks_validation(self):
        from repro.pipeline.pipeline import PipelineConfig

        with pytest.raises(ValueError):
            PipelineConfig(aln_ranks=0)

    def test_pipeline_contigs_identical(self, workload):
        from repro.pipeline.pipeline import PipelineConfig, run_pipeline

        _, reads = workload
        r1 = run_pipeline(reads, PipelineConfig(run_scaffolding=False))
        r2 = run_pipeline(
            reads, PipelineConfig(aln_ranks=2, run_scaffolding=False)
        )
        assert sorted(c.seq for c in r1.contigs) == sorted(
            c.seq for c in r2.contigs
        )
        assert r1.alignment.alignments == r2.alignment.alignments
