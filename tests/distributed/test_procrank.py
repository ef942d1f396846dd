"""Tests for the ranked k-mer and local-assembly stages.

Three layers of guarantees:

* the pure exchange (window rows grouped by owner + shuffle) is a
  *permutation* of the input row multiset — nothing lost, duplicated or
  torn — and every window lands on its k-mer's owner;
* the ranked count produces a merged spectrum bit-identical to the
  sequential :func:`count_kmers` at every rank count, through either
  transport of the harness;
* the pipeline with ``kmer_ranks`` > 1 produces bit-identical contigs
  vs the sequential engine.

Plus the failure route every stage inherits from the harness: a rank
that crashes or is killed raises promptly and leaves ``/dev/shm`` clean.
"""

import dataclasses
import os
import time

import numpy as np
import pytest

from repro.distributed import harness
from repro.distributed.harness import run_ranks
from repro.distributed.procrank import (
    RANK_PHASES,
    distributed_count_proc,
    exchange_rows,
    group_windows_by_owner,
    procrank_available,
    ranked_extend_tasks,
)
from repro.distributed.rank import (
    WINDOW_BYTES,
    owner_of_words,
    pack_records,
    partition_reads,
    spectrum_from_records,
)
from repro.distributed.shmem import (
    cleanup_launch_segments,
    create_named_shared_array,
    launch_token,
    shared_memory_available,
)
from repro.pipeline.kmer_counts import count_kmers, kmer_windows, tally_windows
from repro.sequence.community import arcticsynth_like, sample_paired_reads
from repro.sequence.kmer import words_per_kmer

pytestmark = pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory on this host"
)


@pytest.fixture(scope="module")
def batch():
    rng = np.random.default_rng(31)
    comm = arcticsynth_like(rng, n_genomes=2, genome_length=4000)
    return sample_paired_reads(comm, 400, rng)


def _spectra_equal(a, b) -> bool:
    return (
        np.array_equal(a.words, b.words)
        and np.array_equal(a.counts, b.counts)
        and np.array_equal(a.left_ext, b.left_ext)
        and np.array_equal(a.right_ext, b.right_ext)
    )


def _row_multiset(rows_list):
    """Canonical sorted form of a list of record-row arrays."""
    rows = np.concatenate([r for r in rows_list if len(r)]) if any(
        len(r) for r in rows_list
    ) else np.empty((0, 1), dtype=np.uint64)
    order = np.lexsort(tuple(rows[:, c] for c in range(rows.shape[1] - 1, -1, -1)))
    return rows[order]


class TestWireFormat:
    def test_pack_unpack_roundtrip(self, batch):
        spec = count_kmers(batch, 21, min_count=1)
        rows = pack_records(spec)
        back = spectrum_from_records(rows, 21)
        assert _spectra_equal(spec, back)

    def test_width_validation(self, batch):
        spec = count_kmers(batch, 21, min_count=1)
        rows = pack_records(spec)
        with pytest.raises(ValueError):
            spectrum_from_records(rows[:, :-1], 21)

    @pytest.mark.parametrize("k", [21, 33, 55])
    def test_window_rows_carry_every_window(self, batch, k):
        """A window row is its canonical words plus one packed extension
        column, and the rows are exactly the window pass's, regrouped."""
        nw = words_per_kmer(k)
        words, ext = kmer_windows(batch, k)
        rows, dest_counts = group_windows_by_owner(batch, k, 3)
        assert rows.shape == (len(ext), nw + 1) and rows.dtype == np.uint64
        assert WINDOW_BYTES(nw) == rows.itemsize * rows.shape[1] == 8 * (nw + 1)
        assert int(dest_counts.sum()) == len(rows)
        want = np.concatenate([words, ext[:, None].astype(np.uint64)], axis=1)
        assert np.array_equal(_row_multiset([rows]), _row_multiset([want]))
        # the owner's tally over the rows is the sequential count
        spec = tally_windows(rows[:, :nw], rows[:, nw].astype(np.uint8), k)
        assert _spectra_equal(spec, count_kmers(batch, k))


class TestExchangePermutation:
    """The shuffled window-row multiset is a permutation of the input,
    for 1/2/4 ranks."""

    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_multiset_preserved(self, batch, n_ranks):
        parts = partition_reads(batch, n_ranks)
        packed = [group_windows_by_owner(p, 21, n_ranks) for p in parts]
        rows_by_src = [rows for rows, _ in packed]
        counts = np.stack([c for _, c in packed])
        inboxes = exchange_rows(rows_by_src, counts)
        assert np.array_equal(_row_multiset(rows_by_src), _row_multiset(inboxes))

    @pytest.mark.parametrize("n_ranks", [2, 4])
    def test_ownership_is_exact(self, batch, n_ranks):
        """Every window lands on — and only on — its owner rank."""
        parts = partition_reads(batch, n_ranks)
        packed = [group_windows_by_owner(p, 21, n_ranks) for p in parts]
        counts = np.stack([c for _, c in packed])
        inboxes = exchange_rows([rows for rows, _ in packed], counts)
        nw = words_per_kmer(21)
        for dest, rows in enumerate(inboxes):
            if not len(rows):
                continue
            owners = owner_of_words(rows[:, :nw], n_ranks)
            assert np.all(owners == dest)

    def test_torn_counts_detected(self, batch):
        parts = partition_reads(batch, 2)
        packed = [group_windows_by_owner(p, 21, 2) for p in parts]
        counts = np.stack([c for _, c in packed])
        counts[0, 0] += 1  # a torn header cannot silently mis-slice
        with pytest.raises(ValueError):
            exchange_rows([rows for rows, _ in packed], counts)


class TestProcessRanks:
    @pytest.mark.parametrize("n_ranks", [1, 2, 4])
    def test_bit_identical_spectrum(self, batch, n_ranks):
        single = count_kmers(batch, 21, min_count=2)
        spec, stats, report = distributed_count_proc(
            batch, 21, n_ranks, min_count=2
        )
        assert _spectra_equal(single, spec)
        assert report.mode == ("procrank" if n_ranks > 1 else "inproc")
        assert report.n_ranks == n_ranks
        assert stats.n_ranks == n_ranks
        assert len(report.per_rank) == n_ranks
        assert all(m.cpu_s > 0 for m in report.per_rank)

    def test_exchange_volume_measured(self, batch):
        _, stats, report = distributed_count_proc(batch, 21, 4, min_count=2)
        # with 4 ranks the owner hash sends ~3/4 of records off-rank
        assert stats.total_kmers_sent > 0
        assert stats.bytes_per_rank_max > 0
        sent = sum(m.sent for m in report.per_rank)
        recv = sum(m.recv for m in report.per_rank)
        assert sent == recv == stats.total_kmers_sent
        # priced at the row width actually sent: one window, 16 B at k = 21
        most = max(m.sent for m in report.per_rank)
        assert stats.bytes_per_rank_max == most * WINDOW_BYTES(1) == most * 16

    def test_inproc_fallback_identical(self, batch, monkeypatch):
        """No fork, no /dev/shm: the same stage body on the list transport."""
        single = count_kmers(batch, 21, min_count=2)
        forked = distributed_count_proc(batch, 21, 3, min_count=2)
        monkeypatch.setattr(harness, "procrank_available", lambda: False)
        spec, stats, report = distributed_count_proc(batch, 21, 3, min_count=2)
        assert _spectra_equal(single, spec)
        assert report.mode == "inproc"
        assert len(report.per_rank) == 3
        assert stats == forked[1]  # same counts matrix through either

    def test_empty_partitions_and_multiword_kmers(self, batch, monkeypatch):
        """More ranks than read pairs, k > 32: ranks with nothing to put
        still describe a two-word outbox."""
        tiny = partition_reads(batch, 100)[0]
        assert len(tiny) == 8
        single = count_kmers(tiny, 41)
        assert _spectra_equal(single, distributed_count_proc(tiny, 41, 5)[0])
        monkeypatch.setattr(harness, "procrank_available", lambda: False)
        assert _spectra_equal(single, distributed_count_proc(tiny, 41, 5)[0])

    def test_profiles_have_rank_phases(self, batch):
        _, _, report = distributed_count_proc(
            batch, 21, 2, min_count=2, profile=True
        )
        assert report.profiles is not None and len(report.profiles) == 2
        for prof in report.profiles:
            phases = {r["phase"] for r in prof["records"]}
            assert phases == set(RANK_PHASES)

    def test_profiles_merge_to_chrome_lanes(self, batch):
        from repro.perf import merge_rank_profiles

        _, _, report = distributed_count_proc(
            batch, 21, 2, min_count=2, profile=True
        )
        doc = merge_rank_profiles(report.profiles)
        events = doc["traceEvents"]
        pids = {e["pid"] for e in events}
        assert len(pids) == 2  # one process lane per rank
        names = {
            e["args"]["name"]
            for e in events
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert names == {"rank0", "rank1"}
        assert any(e["ph"] == "X" for e in events)

    def test_no_leaked_segments(self, batch):
        distributed_count_proc(batch, 21, 2, min_count=2)
        leftovers = [f for f in os.listdir("/dev/shm") if f.startswith("repro-")]
        assert leftovers == []

    def test_rank_validation(self, batch):
        with pytest.raises(ValueError):
            distributed_count_proc(batch, 21, 0)


@pytest.mark.skipif(not procrank_available(), reason="needs fork + shm")
class TestCrashRecovery:
    """Satellite: a rank crashing between publish and barrier must not
    leave segments behind — the survivors abort, the parent sweeps.
    The route lives in the harness, so every stage has it."""

    def test_crash_between_publish_and_barrier_leaves_shm_clean(
        self, batch, monkeypatch, shm_snapshot
    ):
        before = shm_snapshot()
        monkeypatch.setattr(harness, "_CRASH_RANK", 1)
        with pytest.raises(RuntimeError, match="failed: repro-kmer-rank1;"):
            distributed_count_proc(batch, 21, 2, min_count=2)
        assert sorted(shm_snapshot() - before) == []

    def test_crash_under_rankcheck_still_sweeps(
        self, batch, monkeypatch, shm_snapshot
    ):
        before = shm_snapshot()
        monkeypatch.setattr(harness, "_CRASH_RANK", 0)
        with pytest.raises(RuntimeError, match="failed: repro-kmer-rank0;"):
            distributed_count_proc(
                batch, 21, 2, min_count=2, sanitize="rankcheck"
            )
        assert sorted(shm_snapshot() - before) == []

    def test_next_launch_after_crash_is_healthy(self, batch, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(harness, "_CRASH_RANK", 1)
            with pytest.raises(RuntimeError):
                distributed_count_proc(batch, 21, 2, min_count=2)
        single = count_kmers(batch, 21, min_count=2)
        spec, _, report = distributed_count_proc(batch, 21, 2, min_count=2)
        assert report.mode == "procrank"
        assert _spectra_equal(single, spec)

    @pytest.mark.parametrize("sanitize", ["off", "rankcheck"])
    @pytest.mark.parametrize("name", ["kmer", "aln"])
    def test_crash_in_any_exchange_leaves_shm_clean(
        self, ranked_stages, monkeypatch, shm_snapshot, name, sanitize
    ):
        build, _ = ranked_stages[name]
        stage, _ = build(2)
        before = shm_snapshot()
        monkeypatch.setattr(harness, "_CRASH_RANK", 1)
        with pytest.raises(RuntimeError, match=f"failed: repro-{name}-rank1;"):
            run_ranks(stage, 2, sanitize=sanitize)
        assert sorted(shm_snapshot() - before) == []

    @pytest.mark.parametrize("name", ["kmer", "aln", "la"])
    def test_killed_rank_raises_promptly_in_every_stage(
        self, ranked_stages, shm_snapshot, name
    ):
        """A rank that dies outright — no exception, nothing published —
        used to strand local assembly forever and the exchanging stages
        for the full barrier timeout."""
        build, same = ranked_stages[name]
        stage, finish = build(2)

        def produce(rank, clock):
            if rank == 1:
                os._exit(9)
            return stage.produce(rank, clock)

        before = shm_snapshot()
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match=f"failed: repro-{name}-rank1;"):
            run_ranks(dataclasses.replace(stage, produce=produce), 2, timeout_s=60)
        assert time.monotonic() - t0 < 10
        assert sorted(shm_snapshot() - before) == []
        # the next launch of the same stage is healthy and bit-identical
        reference = build(1)
        assert same(finish(run_ranks(stage, 2)), reference[1](run_ranks(reference[0], 1)))


class TestSegmentNaming:
    """Satellite: per-launch tokens make concurrent launches collision-proof."""

    def test_tokens_are_unique(self):
        assert launch_token() != launch_token()

    def test_same_name_collides_exclusively(self):
        token = launch_token()
        name = f"repro-{token}-out0"
        arr = create_named_shared_array(name, (4,), np.int64, token=token)
        try:
            with pytest.raises(FileExistsError):
                create_named_shared_array(name, (4,), np.int64, token=token)
        finally:
            assert cleanup_launch_segments(token) == 1
        del arr

    def test_concurrent_launches_do_not_collide(self):
        t1, t2 = launch_token(), launch_token()
        a = create_named_shared_array(f"repro-{t1}-out0", (4,), np.int64, token=t1)
        b = create_named_shared_array(f"repro-{t2}-out0", (4,), np.int64, token=t2)
        a[:] = 1
        b[:] = 2
        assert int(a.sum()) == 4 and int(b.sum()) == 8  # distinct pages
        assert cleanup_launch_segments(t1) == 1
        assert cleanup_launch_segments(t2) == 1

    def test_cleanup_is_idempotent(self):
        token = launch_token()
        create_named_shared_array(f"repro-{token}-own0", (2,), np.int64, token=token)
        assert cleanup_launch_segments(token) == 1
        assert cleanup_launch_segments(token) == 0


class TestPipelineBitIdentity:
    """Final-contig bit-identity vs the sequential engine (the tentpole
    acceptance criterion)."""

    @pytest.fixture(scope="class")
    def reads(self):
        rng = np.random.default_rng(77)
        comm = arcticsynth_like(rng, n_genomes=2, genome_length=5000)
        return sample_paired_reads(comm, 500, rng)

    def test_contigs_identical_across_rank_counts(self, reads):
        from repro.pipeline.pipeline import PipelineConfig, run_pipeline

        results = {}
        for ranks in (1, 2, 4):
            cfg = PipelineConfig(kmer_ranks=ranks, run_scaffolding=False)
            res = run_pipeline(reads, cfg)
            results[ranks] = [(c.cid, c.seq) for c in res.contigs]
        assert results[1] == results[2] == results[4]

    def test_classify_spectrum_matches_analyze(self, reads):
        from repro.pipeline.kmer_analysis import analyze_kmers, classify_spectrum
        from repro.pipeline.merge_reads import merge_read_pairs

        merged, _ = merge_read_pairs(reads)
        direct = analyze_kmers(merged, 21, min_count=2, min_depth=2)
        spec, _, _ = distributed_count_proc(merged, 21, 2, min_count=2)
        via_ranks = classify_spectrum(spec, min_depth=2)
        assert _spectra_equal(direct.spectrum, via_ranks.spectrum)
        assert np.array_equal(direct.left_verdict, via_ranks.left_verdict)
        assert np.array_equal(direct.right_verdict, via_ranks.right_verdict)


@pytest.mark.skipif(not procrank_available(), reason="needs fork + shm")
class TestRankedLocalAssembly:
    @pytest.fixture(scope="class")
    def tasks(self):
        """A small real task set: community reads through alignment."""
        from repro.core.tasks import tasks_from_candidates
        from repro.pipeline.alignment import align_reads
        from repro.pipeline.contig_generation import generate_contigs
        from repro.pipeline.kmer_analysis import analyze_kmers
        from repro.pipeline.merge_reads import merge_read_pairs

        rng = np.random.default_rng(5)
        comm = arcticsynth_like(rng, n_genomes=2, genome_length=5000)
        reads = sample_paired_reads(comm, 600, rng)
        merged, _ = merge_read_pairs(reads)
        contigs = generate_contigs(analyze_kmers(merged, 21))
        aln = align_reads(contigs, reads)
        return tasks_from_candidates(contigs, aln.candidates.values())

    def test_extensions_identical_across_rank_counts(self, tasks):
        from repro.core.local_assembler import extend_tasks

        base, report = ranked_extend_tasks(tasks, 1, mode="gpu")
        assert report.mode == "inproc"
        assert base == extend_tasks(tasks, mode="gpu")[0]
        for ranks in (2, 4):
            ext, report = ranked_extend_tasks(tasks, ranks, mode="gpu")
            assert ext == base
            assert report.mode == "procrank"
            assert len(report.per_rank) == ranks
            assert report.cpu_critical_s > 0
