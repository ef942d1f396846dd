"""rankcheck tests: the vector-clock checker, the ledger, and the wiring.

Unit layer: hand-built event streams prove the happens-before relation
(barrier-separated accesses are ordered, same-generation conflicts are
not, replay order is irrelevant).  Integration layer: a clean 2-rank
``distributed_count_proc`` run reports zero races and zero leaked
segments, and the injected (value-neutral) cross-rank write is flagged
while the merged spectrum stays bit-identical.
"""

import json

import numpy as np
import pytest

from repro.sanitize.rankcheck import (
    RANK_SANITIZE_MODES,
    RankEvent,
    RankTracer,
    SegmentLedger,
    build_rank_report,
    check_happens_before,
)


def _w(seg, lo, hi):
    return RankEvent("w", seg, lo, hi)


def _r(seg, lo, hi):
    return RankEvent("r", seg, lo, hi)


_B = RankEvent("b")


class TestHappensBefore:
    def test_barrier_orders_write_then_read(self):
        races, n = check_happens_before(
            [
                [_w("out0", 0, 64), _B],
                [_B, _r("out0", 0, 64)],
            ]
        )
        assert races == []
        assert n == 2

    def test_same_generation_write_read_races(self):
        races, _ = check_happens_before(
            [
                [_w("out0", 0, 64)],
                [_r("out0", 0, 64)],
            ]
        )
        assert len(races) == 1
        (race,) = races
        assert race.seg == "out0"
        assert {race.rank_a, race.rank_b} == {0, 1}
        assert "no barrier between" in race.describe()

    def test_replay_order_is_irrelevant(self):
        """The hazard is flagged whichever side the replay visits first."""
        a = [[_w("s", 0, 8)], [_r("s", 0, 8)]]
        b = [[_r("s", 0, 8)], [_w("s", 0, 8)]]
        assert len(check_happens_before(a)[0]) == 1
        assert len(check_happens_before(b)[0]) == 1

    def test_read_read_overlap_is_clean(self):
        races, _ = check_happens_before(
            [[_r("s", 0, 64)], [_r("s", 0, 64)]]
        )
        assert races == []

    def test_disjoint_ranges_are_clean(self):
        races, _ = check_happens_before(
            [[_w("counts", 0, 16)], [_w("counts", 16, 32)]]
        )
        assert races == []

    def test_different_segments_are_clean(self):
        races, _ = check_happens_before(
            [[_w("out0", 0, 64)], [_w("out1", 0, 64)]]
        )
        assert races == []

    def test_same_rank_never_races_with_itself(self):
        races, _ = check_happens_before(
            [[_w("s", 0, 8), _r("s", 0, 8), _w("s", 0, 8)]]
        )
        assert races == []

    def test_post_barrier_write_into_put_epoch_races(self):
        """The injected-bug shape: rank 1 writes rank 0's outbox *after*
        the fence, racing rank 0's same-generation get."""
        races, _ = check_happens_before(
            [
                [_w("out0", 0, 64), _B, _r("out0", 0, 32)],
                [_w("out1", 0, 64), _B, _r("out0", 32, 64), _w("out0", 0, 64)],
            ]
        )
        assert len(races) == 1
        (race,) = races
        assert race.op_b == "w" or race.op_a == "w"
        assert race.seg == "out0"

    def test_two_fences_order_three_generations(self):
        races, _ = check_happens_before(
            [
                [_w("s", 0, 8), _B, _B, _r("s", 0, 8)],
                [_B, _w("s", 0, 8), _B],
            ]
        )
        # gen0 write (rank0) < fence < gen1 write (rank1) < fence < gen2
        # read (rank0): all ordered
        assert races == []

    def test_dedup_one_race_per_pair(self):
        """A single bad writer overlapping many reads reports once per
        (segment, rank pair, op pair), not once per access."""
        races, _ = check_happens_before(
            [
                [_r("s", 0, 8), _r("s", 8, 16), _r("s", 16, 24)],
                [_w("s", 0, 24)],
            ]
        )
        assert len(races) == 1


class TestTracer:
    def test_roundtrip_through_json(self, tmp_path):
        t = RankTracer(0)
        t.write("out0", 0, 64)
        t.barrier()
        t.read("counts", 8, 16)
        path = tmp_path / "rank0.json"
        t.dump(path)
        events = RankTracer.load(path)
        assert events == [
            RankEvent("w", "out0", 0, 64),
            RankEvent("b"),
            RankEvent("r", "counts", 8, 16),
        ]

    def test_empty_ranges_are_dropped(self):
        t = RankTracer(0)
        t.write("s", 8, 8)
        t.read("s", 9, 4)
        assert t.events == []

    def test_missing_file_loads_empty(self, tmp_path):
        assert RankTracer.load(tmp_path / "nope.json") == []


class TestSegmentLedger:
    def test_snapshot_filters_to_runtime_prefixes(self, tmp_path):
        (tmp_path / "psm_abc").write_bytes(b"")
        (tmp_path / "repro-tok-out0").write_bytes(b"")
        (tmp_path / "sem.mp-xyz").write_bytes(b"")  # barrier semaphores
        (tmp_path / "other-tenant").write_bytes(b"")
        snap = SegmentLedger(str(tmp_path)).snapshot()
        assert snap == {"psm_abc", "repro-tok-out0"}

    def test_leak_is_the_diff(self, tmp_path):
        ledger = SegmentLedger(str(tmp_path))
        before = ledger.snapshot()
        (tmp_path / "repro-tok-own1").write_bytes(b"")
        leaked = ledger.leaked(before, ledger.snapshot())
        assert leaked == ["repro-tok-own1"]

    def test_missing_dir_degrades_to_empty(self):
        ledger = SegmentLedger("/nonexistent-shm-dir")
        assert ledger.snapshot() == frozenset()


class TestReport:
    def test_schema_matches_device_sanitizers(self):
        races, n = check_happens_before(
            [[_w("out0", 0, 64)], [_r("out0", 0, 64)]]
        )
        report = build_rank_report(races, ["repro-tok-out1"], n)
        d = report.to_dict()
        assert set(d) == {
            "mode", "n_errors", "n_suppressed", "n_checked", "errors",
        }
        assert d["mode"] == "rankcheck"
        assert d["n_errors"] == 2
        kinds = {e["kind"] for e in d["errors"]}
        assert kinds == {"rank_race", "segment_leak"}
        race_err = next(e for e in d["errors"] if e["kind"] == "rank_race")
        assert race_err["checker"] == "rankcheck"
        assert race_err["lane"] == -1
        assert race_err["warp"] in (0, 1)  # the racing rank
        json.dumps(d)  # serialisable end to end

    def test_modes_constant(self):
        assert RANK_SANITIZE_MODES == ("off", "rankcheck")


# -- integration over the real exchange ---------------------------------------

from repro.distributed import harness  # noqa: E402
from repro.distributed.harness import run_ranks  # noqa: E402
from repro.distributed.procrank import distributed_count_proc  # noqa: E402
from repro.distributed.shmem import shared_memory_available  # noqa: E402


@pytest.fixture(scope="module")
def batch():
    from repro.sequence.community import arcticsynth_like, sample_paired_reads

    rng = np.random.default_rng(31)
    comm = arcticsynth_like(rng, n_genomes=2, genome_length=4000)
    return sample_paired_reads(comm, 400, rng)


@pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory on this host"
)
class TestExchangeIntegration:
    """The k-mer exchange through its public entry point, then every
    exchanging stage through the harness that does the tracing."""

    def test_clean_two_rank_run_has_zero_races_and_leaks(self, batch):
        _, _, report = distributed_count_proc(
            batch, 21, 2, min_count=2, sanitize="rankcheck"
        )
        assert report.mode == "procrank"
        san = report.sanitizer
        assert san is not None
        assert san["n_errors"] == 0
        assert san["n_checked"] > 0
        assert san["errors"] == []
        assert "sanitizer" in report.to_dict()

    def test_injected_cross_rank_write_is_detected(self, batch, monkeypatch):
        ref, _, _ = distributed_count_proc(batch, 21, 2, min_count=2)
        monkeypatch.setattr(harness, "_INJECT_RACE", True)
        spec, _, report = distributed_count_proc(
            batch, 21, 2, min_count=2, sanitize="rankcheck"
        )
        san = report.sanitizer
        assert san["n_errors"] >= 1
        kinds = {e["kind"] for e in san["errors"]}
        assert kinds == {"rank_race"}  # value-neutral: no leak, just the race
        race = san["errors"][0]
        assert race["details"]["segment"] == "out0"
        assert "w" in race["details"]["ops"]
        # the injection writes the bytes already present, so the result
        # is still bit-identical — the tracer, not the data, caught it
        assert np.array_equal(spec.words, ref.words)
        assert np.array_equal(spec.counts, ref.counts)

    def test_sanitize_off_attaches_no_report(self, batch):
        _, _, report = distributed_count_proc(batch, 21, 2, min_count=2)
        assert report.sanitizer is None
        assert "sanitizer" not in report.to_dict()

    def test_unknown_mode_rejected(self, batch):
        with pytest.raises(ValueError, match="sanitize"):
            distributed_count_proc(batch, 21, 2, sanitize="racecheck")

    def test_inproc_fallback_reports_trivially_clean(self, batch, monkeypatch):
        monkeypatch.setattr(harness, "procrank_available", lambda: False)
        _, _, report = distributed_count_proc(
            batch, 21, 2, min_count=2, sanitize="rankcheck"
        )
        assert report.mode == "inproc"
        assert report.sanitizer is not None
        assert report.sanitizer["n_errors"] == 0

    @pytest.mark.parametrize("name", ["kmer", "aln"])
    def test_every_exchange_is_traced_clean(self, ranked_stages, name):
        build, _ = ranked_stages[name]
        stage, _ = build(2)
        san = run_ranks(stage, 2, sanitize="rankcheck").report.sanitizer
        assert san["n_errors"] == 0 and san["errors"] == []
        assert san["n_checked"] > 0

    @pytest.mark.parametrize("name", ["kmer", "aln"])
    def test_injected_race_is_flagged_in_every_exchange(
        self, ranked_stages, monkeypatch, name
    ):
        build, same = ranked_stages[name]
        stage, finish = build(2)
        ref = finish(run_ranks(stage, 2))
        monkeypatch.setattr(harness, "_INJECT_RACE", True)
        run = run_ranks(stage, 2, sanitize="rankcheck")
        (race,) = run.report.sanitizer["errors"]  # exactly one finding
        assert race["kind"] == "rank_race"
        assert race["details"]["segment"] == "out0"
        assert same(finish(run), ref)  # value-neutral: bit-identical


@pytest.mark.skipif(
    not shared_memory_available(), reason="no shared memory on this host"
)
class TestPipelineWiring:
    def test_kmer_sanitize_threads_to_result(self, batch):
        from repro.pipeline.pipeline import PipelineConfig, run_pipeline

        config = PipelineConfig(
            min_kmer_count=2, kmer_ranks=2, kmer_sanitize="rankcheck"
        )
        result = run_pipeline(batch, config)
        assert result.kmer_sanitizer is not None
        assert result.kmer_sanitizer["mode"] == "rankcheck"
        assert result.kmer_sanitizer["n_errors"] == 0

    def test_bad_mode_rejected_at_config(self):
        from repro.pipeline.pipeline import PipelineConfig

        with pytest.raises(ValueError, match="kmer_sanitize"):
            PipelineConfig(kmer_sanitize="memcheck")
