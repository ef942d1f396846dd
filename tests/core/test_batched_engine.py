"""Driver-level contract of the batched SoA warp engine.

``GpuLocalAssembler(engine="batched")`` advances every warp of a launch
in lockstep over ``(n_warps, 32)`` NumPy state, but the result must be
*indistinguishable* from the sequential interpreter: extensions, merged
counters, per-launch ``per_warp_inst`` tuples and modelled timing are all
bit-identical, and both match the CPU reference.  This pins the tentpole
guarantee that batched execution is a pure implementation detail.

The ``bench_smoke``-marked test doubles as the tier-1 miniature of the
``bench_batched_trio`` benchmark: same shape of workload (10 warps
instead of 100), same identity assertions, no timing.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import LocalAssemblyConfig
from repro.core.cpu_local_assembly import run_local_assembly_cpu
from repro.core.driver import GpuLocalAssembler
from repro.core.local_assembler import extend_tasks
from repro.core.tasks import LEFT, RIGHT, ExtensionTask, TaskSet
from repro.sequence.dna import encode, random_dna


def _tiling_task(genome, contig_end, read_len=70, stride=6, cid=0, side=RIGHT):
    reads, quals = [], []
    for i in range(0, len(genome) - read_len + 1, stride):
        reads.append(encode(genome[i : i + read_len]))
        quals.append(np.full(read_len, 40, dtype=np.uint8))
    return ExtensionTask.from_reads(
        cid=cid, side=side, contig=encode(genome[:contig_end]),
        reads=tuple(reads), quals=tuple(quals),
    )


@pytest.fixture(scope="module")
def workload():
    """10 tasks spanning bins 1-3, both sides, plus an empty-read task —
    enough structure to hit every predication path of the batched engine."""
    rng = np.random.default_rng(2024)
    tasks = []
    for cid in range(4):
        tasks.append(_tiling_task(random_dna(320, rng), 120, cid=cid, stride=5))
    for cid in range(4, 7):
        side = LEFT if cid % 2 else RIGHT
        tasks.append(
            _tiling_task(random_dna(220, rng), 90, cid=cid, stride=30, side=side)
        )
    tasks.append(
        ExtensionTask.from_reads(cid=7, side=RIGHT, contig=encode(random_dna(80, rng)),
                      reads=(), quals=())
    )
    for cid in (8, 9):
        tasks.append(_tiling_task(random_dna(280, rng), 100, cid=cid, stride=7))
    return TaskSet(tasks)


@pytest.fixture(scope="module")
def config():
    return LocalAssemblyConfig(k_init=21, max_walk_len=150)


def _assert_identical_reports(a, b):
    assert a.extensions == b.extensions
    assert a.n_batches == b.n_batches
    assert len(a.launches) == len(b.launches)
    for la, lb in zip(a.launches, b.launches):
        assert la.name == lb.name
        assert (la.bin, la.kernel) == (lb.bin, lb.kernel)
        assert la.n_warps == lb.n_warps
        assert la.per_warp_inst == lb.per_warp_inst
        assert la.counters == lb.counters
        assert la.timing == lb.timing
    assert a.merged_counters() == b.merged_counters()


class TestBatchedDeterminism:
    @pytest.mark.bench_smoke
    def test_bit_identical_to_sequential(self, workload, config):
        seq = GpuLocalAssembler(config, engine="sequential").run(workload)
        bat = GpuLocalAssembler(config, engine="batched").run(workload)
        _assert_identical_reports(seq, bat)

    def test_batched_matches_cpu_reference(self, workload, config):
        cpu, _ = run_local_assembly_cpu(workload, config)
        bat = GpuLocalAssembler(config, engine="batched").run(workload)
        assert bat.extensions == cpu

    def test_v1_falls_back_to_sequential(self, workload, config):
        """No batched v1 implementation is registered — engine='batched'
        must produce v1's sequential results, not crash."""
        seq = GpuLocalAssembler(config, kernel_version="v1",
                                engine="sequential").run(workload)
        bat = GpuLocalAssembler(config, kernel_version="v1",
                                engine="batched").run(workload)
        _assert_identical_reports(seq, bat)

    def test_extend_tasks_threads_engine(self, workload, config):
        seq, seq_report = extend_tasks(
            workload, config=config, mode="gpu", engine="sequential"
        )
        bat, bat_report = extend_tasks(
            workload, config=config, mode="gpu", engine="batched"
        )
        assert bat == seq
        _assert_identical_reports(
            seq_report.gpu_report, bat_report.gpu_report
        )

    def test_engine_validation(self, config):
        with pytest.raises(ValueError):
            GpuLocalAssembler(config, engine="warp-drive")


# ---------------------------------------------------------------------------
# The derived (closed-form) table build.
#
# Unsanitized batched launches resolve / place / account the §3.3 insert
# choreography instead of stepping it.  Two oracles pin it: the lockstep
# build a sanitized launch still runs, and the sequential interpreter.
# Every counter field is compared per warp, and the three tables byte for
# byte, on inputs built to exercise each fact the derivation rests on.
# ---------------------------------------------------------------------------

import repro.core.extension_kernel as ek
import repro.core.extension_kernel_batched as ekb
from repro.core.gpu_batch import EMPTY_PTR, pack_batch
from repro.gpusim import batched as gb
from repro.gpusim.batched import BatchCounters, WarpBatch
from repro.gpusim.counters import KernelCounters
from repro.gpusim.kernel import GpuContext
from repro.gpusim.warp import Warp
from repro.hashing.murmur import murmurhash2_rows

_FIELDS = BatchCounters._names + ("atomic_conflicts",)
_TABLES = ("ht_ptr", "ht_total", "ht_hi")


def _reads_task(cid, reads, rng=None):
    """A task over explicit read strings; with *rng*, a third of the
    qualities fall below the hi-quality threshold."""
    enc = tuple(encode(r) for r in reads)
    if rng is None:
        quals = tuple(np.full(r.size, 40, dtype=np.uint8) for r in enc)
    else:
        quals = tuple(
            rng.choice(np.array([5, 40, 40], dtype=np.uint8), size=r.size) for r in enc
        )
    return ExtensionTask.from_reads(
        cid=cid, side=RIGHT, contig=encode("ACGT" * 20), reads=enc, quals=quals
    )


def _per_warp_fields(per_warp):
    """Every counter field as a per-warp array, from one
    :class:`KernelCounters` per sequentially interpreted warp."""
    return {
        f: np.array([getattr(c, f, None) if f != "atomic_conflicts"
                     else c.labels.get(f, 0) for c in per_warp])
        for f in _FIELDS
    }


def _build(tasks, k, engine, order=None, skew=0):
    """Clear + build every task's table at mer size *k* on one engine,
    the reads and tables *skew* bytes off their aligned bases; returns
    (per-warp counter arrays, table bytes, the batch)."""
    ctx = GpuContext()
    batch = pack_batch(ctx, list(tasks), LocalAssemblyConfig(k_max=95))
    for name in ("reads_buf",) + _TABLES:
        getattr(batch, name).base_addr += skew
    sector = ctx.device.sector_bytes
    task_ids = np.arange(len(tasks)) if order is None else np.asarray(order)
    n = task_ids.size
    if engine == "sequential":
        per_warp = []
        for t in task_ids.tolist():
            c = KernelCounters()
            warp = Warp(c, warp_id=t, sector_bytes=sector)
            ek._clear_tables(warp, batch, t)
            ek.build_table_v2(warp, batch, t, k)
            per_warp.append(c)
        counters = _per_warp_fields(per_warp)
    else:
        bc = BatchCounters(n)
        wb = WarpBatch(bc, sector)
        rows = np.arange(n)
        ht_start = batch.layout.offsets[task_ids]
        slots = batch.layout.sizes[task_ids]
        ekb._clear_group(wb, batch, rows, ht_start, slots, task_ids * batch.vis_slots)
        build = {"lockstep": ekb._build_group_lockstep,
                 "derived": ekb._build_group_derived}[engine]
        ag = build(wb, batch, rows, task_ids, k, ht_start, slots)
        counters = {f: getattr(bc, f) for f in _FIELDS}
    tables = {name: getattr(batch, name).data.tobytes() for name in _TABLES}
    if engine == "derived":
        # the derived build keeps its tallies on the agent table: the
        # device tables stay zero, and the agents' rows scattered into
        # zeroed copies at their slots are the bytes the oracles write
        for name in ("ht_total", "ht_hi"):
            dense = getattr(batch, name).data
            assert not dense.any(), f"derived build wrote {name}"
            if ag is not None:
                dense = dense.copy().reshape(-1, 4)
                dense[ag.slot] = getattr(ag, name[3:])
            tables[name] = dense.tobytes()
    return counters, tables, batch


def _assert_builds_agree(tasks, k, order=None, skew=0):
    derived, d_tables, batch = _build(tasks, k, "derived", order, skew)
    for oracle in ("lockstep", "sequential"):
        counters, tables, _ = _build(tasks, k, oracle, order, skew)
        for f in _FIELDS:
            np.testing.assert_array_equal(derived[f], counters[f], err_msg=f"{f} vs {oracle}")
        for name in _TABLES:
            assert d_tables[name] == tables[name], f"{name} vs {oracle}"
    return derived, batch


def _probe_wraps(batch, t, k):
    """True when some key of task *t*'s table sits below its home slot —
    its probe chain ran off the end of the table and wrapped."""
    lo, hi = batch.ht_region(t)
    ptrs = batch.ht_ptr.data[lo:hi]
    at = np.nonzero(ptrs != EMPTY_PTR)[0]
    kmers = batch.reads_buf.data[ptrs[at][:, None] + np.arange(k)]
    home = murmurhash2_rows(kmers).astype(np.int64) % (hi - lo)
    return bool((home > at).any())


def _random_reads(rng, n, length):
    return [random_dna(length, rng) for _ in range(n)]


class TestDerivedBuild:
    def test_repeats_put_one_kmer_in_many_lanes_of_a_step(self):
        """Fact (a): tandem repeats and homopolymers — lanes of one step
        holding the same k-mer move as one agent, one of them wins."""
        rng = np.random.default_rng(3)
        tasks = [
            _reads_task(0, ["A" * 90, "AC" * 50, "ACG" * 30 + "T" * 40], rng),
            _reads_task(1, ["ACGTT" * 20, "T" * 70, random_dna(80, rng)], rng),
        ]
        derived, _ = _assert_builds_agree(tasks, 21)
        # same-slot CAS lanes within a step: replays were accounted
        assert derived["atomic_conflicts"].sum() > 0

    def test_crowded_tables_share_homes_chain_and_wrap(self):
        """Facts (b)-(d): all-distinct reads at a short k fill a table to
        ~90%, so agents share home slots, chains run long and wrap."""
        rng = np.random.default_rng(11)
        tasks = [_reads_task(c, _random_reads(rng, 6, 140), rng) for c in range(4)]
        derived, batch = _assert_builds_agree(tasks, 13)
        assert any(_probe_wraps(batch, t, 13) for t in range(4))
        # more probe rounds than build steps: chains were walked
        assert (derived["control_inst"] > 6 * 4).all()

    def test_duplicated_reads_refind_placed_kmers(self):
        """Fact (d): a read seen again re-finds every k-mer an earlier
        step placed, walking occupied slots only."""
        rng = np.random.default_rng(5)
        reads = _random_reads(rng, 3, 120)
        tasks = [_reads_task(0, reads * 4, rng), _reads_task(1, reads[::-1] * 2, rng)]
        _assert_builds_agree(tasks, 13)

    def test_degenerate_tasks(self):
        """All-N reads (steps with no valid lane), reads shorter than k
        (no steps), a task without reads, N inside windows and as
        extension base."""
        rng = np.random.default_rng(8)
        tasks = [
            _reads_task(0, ["N" * 80, "N" * 45]),
            _reads_task(1, ["ACGTACGTAC", "ACG"]),
            _reads_task(2, []),
            _reads_task(3, [random_dna(40, rng) + "N" + random_dna(40, rng) + "N"], rng),
            _reads_task(4, _random_reads(rng, 2, 75), rng),
        ]
        _assert_builds_agree(tasks, 21)

    def test_group_without_a_step_is_a_no_op(self):
        _assert_builds_agree([_reads_task(0, ["ACGT"]), _reads_task(1, [])], 21)

    @pytest.mark.parametrize("k", [33, 61, 77])
    def test_multi_word_keys(self, k):
        rng = np.random.default_rng(k)
        genome = random_dna(400, rng)
        reads = [genome[i : i + 150] for i in range(0, 250, 10)]
        _assert_builds_agree([_reads_task(0, reads, rng), _reads_task(1, reads[:3], rng)], k)

    @pytest.mark.parametrize("skew", [4, 20])
    def test_unaligned_tables_and_reads(self, skew):
        """Bases off the sector grid (8-byte slots then straddle sectors):
        the one-sort sector counts take the general path and still agree."""
        rng = np.random.default_rng(skew)
        tasks = [_reads_task(c, _random_reads(rng, 5, 90), rng) for c in range(3)]
        _assert_builds_agree(tasks, 13, skew=skew)

    def test_one_warp_group_and_permuted_tasks(self):
        rng = np.random.default_rng(21)
        tasks = [_reads_task(c, _random_reads(rng, 3 + c, 100), rng) for c in range(5)]
        _assert_builds_agree(tasks, 21, order=[3])
        _assert_builds_agree(tasks, 21, order=[4, 0, 2])

    def test_hash_collisions_fall_back_to_content(self, monkeypatch, config):
        """A low-entropy murmur in both engines, whole launches: a warp's
        k-mers collide in every hash bit, so agents are told apart by
        content alone, and every build probe, main-table lookup and
        visited-table probe of the walks chains through its colliders."""

        def weak_hash(rows, seed=0):
            return (rows[:, 0].astype(np.uint32) + rows[:, -1]) % np.uint32(3)

        def weak_hash_32(data, seed=0):
            return (int(data[0]) + int(data[-1])) % 3

        monkeypatch.setattr(ek, "murmurhash2_rows", weak_hash)
        monkeypatch.setattr(ek, "murmurhash2_32", weak_hash_32)
        monkeypatch.setattr(ekb, "murmurhash2_rows", weak_hash)
        rng = np.random.default_rng(13)
        tasks = TaskSet(
            [_tiling_task(random_dna(220, rng), 90, cid=cid, stride=9) for cid in range(3)]
            + [_reads_task(3, _random_reads(rng, 3, 70) * 2, rng)]
        )
        seq = GpuLocalAssembler(config, engine="sequential").run(tasks)
        bat = GpuLocalAssembler(config, engine="batched").run(tasks)
        _assert_identical_reports(seq, bat)
        assert np.count_nonzero(bat.extensions.lengths()) >= 3

    @pytest.mark.parametrize("cap", [1, 1 << 62])
    def test_block_cap_changes_nothing(self, monkeypatch, cap):
        """The cap bounds memory only: one warp per block and one block
        per group give the counters and tables of the shipped value."""
        rng = np.random.default_rng(17)
        tasks = [
            _reads_task(0, _random_reads(rng, 4, 90), rng),
            _reads_task(1, ["N" * 60]),  # a block with zero valid lanes
            _reads_task(2, []),
            _reads_task(3, _random_reads(rng, 2, 150) * 2, rng),
        ]
        shipped, tables, _ = _build(tasks, 21, "derived")
        monkeypatch.setattr(ekb, "_BLOCK_LANES", cap)
        patched, p_tables, _ = _build(tasks, 21, "derived")
        for f in _FIELDS:
            np.testing.assert_array_equal(shipped[f], patched[f], err_msg=f)
        assert tables == p_tables

    def test_sanitized_builds_fill_the_dense_tallies(self):
        """Only the derived build keeps its tallies off the device: with a
        sanitizer attached, the clear resets stale ``ht_hi``/``ht_total``
        and the lockstep build fills them with the derived build's bytes."""
        rng = np.random.default_rng(4)
        tasks = [_reads_task(c, _random_reads(rng, 4, 90), rng) for c in range(3)]
        _, derived, _ = _build(tasks, 21, "derived")
        ctx = GpuContext(sanitize="memcheck")
        batch = pack_batch(ctx, tasks, LocalAssemblyConfig(k_max=95))
        batch.ht_hi.data[:] = batch.ht_total.data[:] = 7
        rows = np.arange(len(tasks))
        wb = WarpBatch(BatchCounters(rows.size), ctx.device.sector_bytes, ctx.sanitizer)
        ht_start, slots = batch.layout.offsets[rows], batch.layout.sizes[rows]
        ekb._clear_group(wb, batch, rows, ht_start, slots, rows * batch.vis_slots)
        assert ekb._build_group(wb, batch, rows, rows, 21, ht_start, slots) is None
        for name in _TABLES:
            assert getattr(batch, name).data.tobytes() == derived[name], name
        assert batch.ht_hi.data.any() and ctx.sanitizer.report().clean

    def test_sanitized_launches_keep_the_lockstep_build(self, monkeypatch, workload, config):
        """Selection is by ``wb.sanitizer`` alone: a sanitized run never
        enters the derived build or walk, an unsanitized one never the
        lockstep ones."""
        calls = []
        for name in ("_build_group_lockstep", "_build_group_derived",
                     "_walk_group_lockstep", "_walk_group_derived"):
            real = getattr(ekb, name)
            monkeypatch.setattr(
                ekb, name,
                lambda *a, _real=real, _name=name: (calls.append(_name), _real(*a))[1],
            )
        GpuLocalAssembler(config, engine="batched").run(workload)
        assert set(calls) == {"_build_group_derived", "_walk_group_derived"}
        calls.clear()
        GpuLocalAssembler(config, engine="batched", sanitize="memcheck").run(workload)
        assert set(calls) == {"_build_group_lockstep", "_walk_group_lockstep"}


# ---------------------------------------------------------------------------
# The derived (closed-form) mer-walk.
#
# Unsanitized batched launches chase the build's agent table instead of
# stepping the probes.  The same two oracles pin it: the lockstep walk a
# sanitized launch still runs, and the sequential interpreter.  Each path
# runs clear + build + walk; every counter field is compared per warp,
# the walk results row by row and the three walk buffers byte for byte.
# ---------------------------------------------------------------------------

_WALK_BUFFERS = ("seq_buf", "vis_ptr")


def _contig_task(cid, contig, reads, rng=None):
    task = _reads_task(cid, reads, rng)
    return ExtensionTask.from_reads(
        cid=cid, side=RIGHT, contig=encode(contig),
        reads=task.reads, quals=task.quals,
    )


def _walk(tasks, k, engine, order=None, max_walk_len=300):
    """Clear + build + walk every task at mer size *k* on one engine;
    returns (per-warp counters, per-warp (appended, status, slen), buffer
    bytes, the batch)."""
    ctx = GpuContext()
    cfg = LocalAssemblyConfig(k_max=95, max_walk_len=max_walk_len)
    batch = pack_batch(ctx, list(tasks), cfg)
    sector = ctx.device.sector_bytes
    task_ids = np.arange(len(tasks)) if order is None else np.asarray(order)
    n = task_ids.size
    if engine == "sequential":
        per_warp, results = [], []
        for t in task_ids.tolist():
            c = KernelCounters()
            warp = Warp(c, warp_id=t, sector_bytes=sector)
            ek._clear_tables(warp, batch, t)
            ek.build_table_v2(warp, batch, t, k)
            appended, status = ek.mer_walk_gpu(warp, batch, t, k)
            results.append((appended, int(status), int(batch.seq_len[t])))
            per_warp.append(c)
        counters = _per_warp_fields(per_warp)
    else:
        bc = BatchCounters(n)
        wb = WarpBatch(bc, sector)
        rows = np.arange(n)
        ht_start = batch.layout.offsets[task_ids]
        slots = batch.layout.sizes[task_ids]
        vis_start = task_ids * batch.vis_slots
        seq_off = batch.seq_offsets[task_ids]
        slen = batch.seq_len[task_ids].copy()
        ekb._clear_group(wb, batch, rows, ht_start, slots, vis_start)
        if engine == "derived":
            ag = ekb._build_group_derived(wb, batch, rows, task_ids, k, ht_start, slots)
            out = ekb._walk_group_derived(
                wb, batch, rows, k, seq_off, slen, ht_start, slots, vis_start, ag
            )
        else:
            ekb._build_group_lockstep(wb, batch, rows, task_ids, k, ht_start, slots)
            out = ekb._walk_group_lockstep(
                wb, batch, rows, k, seq_off, slen, ht_start, slots, vis_start
            )
        batch.seq_len[task_ids] = out[2]
        results = list(zip(*(a.tolist() for a in out)))
        counters = {f: getattr(bc, f) for f in _FIELDS}
    buffers = {name: getattr(batch, name).data.tobytes() for name in _WALK_BUFFERS}
    buffers["seq_len"] = batch.seq_len.tobytes()
    return counters, results, buffers, batch


def _assert_walks_agree(tasks, k, order=None, max_walk_len=300):
    derived, d_results, d_buffers, batch = _walk(tasks, k, "derived", order, max_walk_len)
    for oracle in ("lockstep", "sequential"):
        counters, results, buffers, _ = _walk(tasks, k, oracle, order, max_walk_len)
        for f in _FIELDS:
            np.testing.assert_array_equal(derived[f], counters[f], err_msg=f"{f} vs {oracle}")
        assert d_results == results, oracle
        for name, data in buffers.items():
            assert d_buffers[name] == data, f"{name} vs {oracle}"
    return d_results, batch


def _statuses(results):
    return {ek.WalkStatus(s) for _, s, _ in results}


def _absent_run_wraps(batch, t, k):
    """True when task *t*'s start k-mer is absent and its main-table
    probe runs off the end of the table to reach an empty slot."""
    lo, hi = batch.ht_region(t)
    pos = int(batch.seq_offsets[t] + batch.seq_len[t]) - k
    kmer = batch.seq_buf.data[pos : pos + k]
    ptrs = batch.ht_ptr.data[lo:hi]
    keys = batch.reads_buf.data[ptrs[ptrs != EMPTY_PTR][:, None] + np.arange(k)]
    if (keys == kmer).all(axis=1).any():
        return False
    home = int(murmurhash2_rows(kmer[None, :])[0]) % (hi - lo)
    run = 0
    while run < hi - lo and ptrs[(home + run) % (hi - lo)] != EMPTY_PTR:
        run += 1
    return 0 < run < hi - lo and home + run >= hi - lo


class TestDerivedWalk:
    def test_tandem_repeat_loops(self):
        """A contig ending in a tandem repeat whose reads tile it: the
        walk comes back to its first agent — LOOP, with the visited-table
        probe ending on an equal key."""
        rng = np.random.default_rng(41)
        unit = random_dna(15, rng)
        repeat = unit * 20
        reads = [repeat[i : i + 80] for i in range(0, 200, 7)]
        tasks = [
            _contig_task(0, random_dna(40, rng) + unit * 4, reads, rng),
            _contig_task(1, repeat[:90], reads[::2], rng),
        ]
        results, _ = _assert_walks_agree(tasks, 21)
        assert _statuses(results) == {ek.WalkStatus.LOOP}

    def test_fork_and_runout_on_an_absent_successor(self):
        """Two genomes share the contig end and then diverge (FORK); reads
        that all end with the genome make the last extension lead to a
        k-mer no read extends (RUNOUT on an absent successor)."""
        rng = np.random.default_rng(43)
        shared = random_dna(120, rng)
        a, b = shared + random_dna(100, rng), shared + random_dna(100, rng)
        fork = [g[i : i + 70] for g in (a, b) for i in range(0, 150, 4)]
        genome = random_dna(200, rng)
        ending = [genome[i:] for i in range(60, 130, 5)]
        tasks = [
            _contig_task(0, shared[:100], fork, rng),
            _contig_task(1, genome[:100], ending),
        ]
        results, batch = _assert_walks_agree(tasks, 21)
        assert results[0][1] == ek.WalkStatus.FORK
        assert results[1][1] == ek.WalkStatus.RUNOUT and results[1][0] > 0
        # the walk reached the genome end: its last k-mer is every read's
        # last window, which no read extends, so no table holds it
        assert results[1][0] == len(genome) - 100

    def test_start_kmer_absent_ambiguous_or_short(self):
        """A start k-mer no read holds, one holding N, a contig shorter
        than k, and a task without reads."""
        rng = np.random.default_rng(47)
        genome = random_dna(220, rng)
        reads = [genome[i : i + 90] for i in range(0, 130, 6)]
        tasks = [
            _contig_task(0, random_dna(60, rng), reads, rng),
            _contig_task(1, genome[:70] + "N" + genome[71:80], reads, rng),
            _contig_task(2, genome[:15], reads, rng),
            _contig_task(3, genome[:80], []),
            _contig_task(4, genome[:80], reads, rng),
        ]
        results, _ = _assert_walks_agree(tasks, 21)
        assert [r[:2] for r in results[:4]] == [(0, ek.WalkStatus.RUNOUT)] * 4
        assert results[4][0] > 0

    @pytest.mark.parametrize("max_walk_len", [1, 5])
    def test_walks_capped_at_max_len(self, max_walk_len):
        """The cap stops every walk, including one whose next k-mer would
        have been absent: the cap comes first, so no absent probe."""
        rng = np.random.default_rng(53)
        genome = random_dna(300, rng)
        reads = [genome[i : i + 100] for i in range(0, 200, 5)]
        tasks = [_contig_task(c, genome[: 60 + 10 * c], reads, rng) for c in range(3)]
        ending = random_dna(200, rng)
        tasks.append(_contig_task(
            3, ending[: 200 - max_walk_len], [ending[i:] for i in range(60, 130, 5)]
        ))
        results, _ = _assert_walks_agree(tasks, 21, max_walk_len=max_walk_len)
        tails = [60, 70, 80, 95]  # the last contig is cut to the 95-base tail
        assert results == [(max_walk_len, ek.WalkStatus.MAX_LEN, t + max_walk_len)
                           for t in tails]

    @pytest.mark.parametrize("k", [33, 61])
    def test_multi_word_keys(self, k):
        rng = np.random.default_rng(k)
        genome = random_dna(400, rng)
        reads = [genome[i : i + 150] for i in range(0, 250, 8)]
        tasks = [_contig_task(0, genome[:120], reads, rng),
                 _contig_task(1, genome[:100], reads[:6], rng)]
        results, _ = _assert_walks_agree(tasks, k)
        assert results[0][0] > 0

    def test_one_warp_and_permuted_groups(self):
        rng = np.random.default_rng(59)
        tasks = []
        for c in range(5):
            genome = random_dna(240, rng)
            reads = [genome[i : i + 80] for i in range(0, 160, 4 + c)]
            tasks.append(_contig_task(c, genome[:70], reads, rng))
        _assert_walks_agree(tasks, 21, order=[3])
        _assert_walks_agree(tasks, 21, order=[4, 0, 2])

    def test_block_cap_of_one_lane(self, monkeypatch):
        """One warp per resolve block: agents are numbered block by block,
        and the walk's index over them must not care."""
        rng = np.random.default_rng(61)
        genome = random_dna(260, rng)
        reads = [genome[i : i + 90] for i in range(0, 170, 5)]
        tasks = [_contig_task(c, genome[: 70 + 20 * c], reads, rng) for c in range(3)]
        monkeypatch.setattr(ekb, "_BLOCK_LANES", 1)
        results, _ = _assert_walks_agree(tasks, 21)
        assert all(r[0] > 0 for r in results)

    def test_crowded_tables_chain_absent_lookups_and_wrap(self):
        """All-distinct reads at a short k fill each table to ~90%: an
        absent start k-mer's probe walks a long occupied run, some off the
        end of the table, before reaching an empty slot."""
        rng = np.random.default_rng(61)
        tasks = [
            _contig_task(c, random_dna(50, rng), _random_reads(rng, 6, 140), rng)
            for c in range(8)
        ]
        results, batch = _assert_walks_agree(tasks, 13)
        assert _statuses(results) == {ek.WalkStatus.RUNOUT}
        assert any(_absent_run_wraps(batch, t, 13) for t in range(8))


def test_cached_arange_does_not_grow_with_the_data():
    """Only small fixed widths are cached; data-sized requests get a
    fresh array and leave the cache alone."""
    gb.cached_arange(21)
    before = len(gb._ARANGES)
    for n in range(gb._ARANGE_CACHE_MAX + 1, gb._ARANGE_CACHE_MAX + 1001):
        a = gb.cached_arange(n)
        assert a.size == n and a[-1] == n - 1
    assert len(gb._ARANGES) == before
    assert gb.cached_arange(21) is gb.cached_arange(21)


@pytest.mark.bench_smoke
def test_reference_100_warps_derived_matches_sequential(config):
    """The ``bench_batched_trio`` reference workload (100 uniform tiling
    tasks, seed 7): the derived build's counters are the interpreter's."""
    rng = np.random.default_rng(7)
    tasks = TaskSet(
        [_tiling_task(random_dna(320, rng), 120, cid=cid, stride=5) for cid in range(100)]
    )
    seq = GpuLocalAssembler(config, engine="sequential").run(tasks)
    bat = GpuLocalAssembler(config, engine="batched").run(tasks)
    _assert_identical_reports(seq, bat)
