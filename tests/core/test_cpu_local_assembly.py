"""Tests for CPU local assembly (the baseline/oracle).

The scalar dict/bytearray implementation in ``la_reference`` is the
contract; the blocked array engine in ``repro.core.cpu_local_assembly``
must reproduce it bit for bit.  The older classes exercise the reference's
pieces and check the engine beside them; ``TestContract`` pins each clause
of the bit-identity contract and ``TestAgainstReference`` is the property
suite.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from la_reference import (
    build_kmer_table,
    extend_task_reference,
    mer_walk,
    run_local_assembly_reference,
)

from repro.core import cpu_local_assembly as engine
from repro.core.config import LocalAssemblyConfig
from repro.core.cpu_local_assembly import (
    KmerTables,
    extend_task_cpu,
    run_local_assembly_cpu,
)
from repro.core.extension import WalkStatus
from repro.core.tasks import LEFT, RIGHT, ExtensionTask, TaskSet
from repro.sequence.dna import decode, encode, random_dna
from repro.sequence.kmer import unpack_kmers


def _mk_task(contig, reads, quals=None, cid=0, side=RIGHT):
    reads_c = tuple(encode(r) for r in reads)
    if quals is None:
        quals_c = tuple(np.full(len(r), 40, dtype=np.uint8) for r in reads)
    else:
        quals_c = tuple(np.asarray(q, dtype=np.uint8) for q in quals)
    return ExtensionTask.from_reads(cid=cid, side=side, contig=encode(contig), reads=reads_c, quals=quals_c)


def _tiling_task(genome, contig_end, rng, read_len=80, stride=7, start=0):
    reads = [
        genome[i : i + read_len]
        for i in range(start, len(genome) - read_len + 1, stride)
    ]
    return _mk_task(genome[:contig_end], reads)


def _table_of(tables, j):
    """Task *j*'s slice of the flat tables, in the reference's dict form."""
    lo, hi = tables.offsets[j], tables.offsets[j + 1]
    keys = unpack_kmers(tables.words[lo:hi], tables.k)
    return {key.tobytes(): row.tolist() for key, row in zip(keys, tables.tallies[lo:hi])}


def _build_table(task, k, hi_q):
    """The reference dict, once the engine's table for the task — built
    alone and again between two other tasks — holds the same keys and
    tallies in the same order."""
    table = build_kmer_table(task, k, hi_q)
    alone = KmerTables.build([task], k, hi_q)
    assert list(_table_of(alone, 0).items()) == list(table.items())
    assert alone.n_inserts == sum(sum(v[4:]) for v in table.values())
    other = _mk_task("ACGT", ["ACGTTGCATGCATTGACCA" * 3, "TTGACCAGT"], cid=1)
    between = KmerTables.build([other, task, other], k, hi_q)
    assert _table_of(between, 1) == table
    assert _table_of(between, 0) == _table_of(between, 2) == build_kmer_table(other, k, hi_q)
    return table


def _mer_walk(seq, task, k, cfg):
    """The reference's single walk, once the engine — held to this one k —
    takes the same steps to the same stop."""
    walk, status = mer_walk(seq, build_kmer_table(task, k, cfg.hi_q_thresh), k, cfg)
    result = extend_task_cpu(
        replace(task, contig=seq), replace(cfg, k_init=k, k_min=k, k_max=k)
    )
    (only,) = result.rounds
    assert (result.extension, only.status, only.n_steps) == (
        decode(np.array(walk, dtype=np.uint8)), status, len(walk)
    )
    return walk, status


class TestBuildTable:
    def test_matches_naive_reference(self, rng):
        """The vectorised build equals a per-k-mer Python loop."""
        reads = [random_dna(60, rng) for _ in range(5)]
        quals = [rng.integers(2, 42, size=60).astype(np.uint8) for _ in range(5)]
        task = _mk_task("ACGT" * 10, reads, quals)
        k, hi_q = 11, 20
        table = _build_table(task, k, hi_q)

        naive: dict[bytes, list[int]] = {}
        for codes, q in zip(task.reads, task.quals):
            for pos in range(codes.size - k):
                key = codes[pos : pos + k].tobytes()
                nxt = int(codes[pos + k])
                e = naive.setdefault(key, [0] * 8)
                e[4 + nxt] += 1
                if q[pos + k] >= hi_q:
                    e[nxt] += 1
        assert table == naive

    def test_empty_task(self):
        task = _mk_task("ACGTACGT", [])
        assert _build_table(task, 5, 20) == {}

    def test_k_longer_than_reads(self):
        task = _mk_task("ACGTACGT", ["ACGT"])
        assert _build_table(task, 21, 20) == {}

    def test_kmer_at_read_end_has_no_ext(self):
        task = _mk_task("ACGT", ["ACGTA"])
        table = _build_table(task, 5, 20)
        assert table == {}  # the only 5-mer has no following base

    @pytest.mark.parametrize("k", [5, 27, 29, 32, 33, 45, 61, 77])
    def test_flat_tables_match_dicts_at_every_key_width(self, rng, k):
        """Shifted, rank-compressed and multi-word composite keys: every
        task's slice equals its dict, for 1 task and for 70 (7 task bits)."""
        tasks = []
        for cid in range(70):
            genome = random_dna(140, rng)
            reads = [genome[i : i + 90] for i in range(0, 50, 5)]
            quals = [rng.integers(2, 42, size=90).astype(np.uint8) for _ in reads]
            tasks.append(_mk_task(genome[:90], reads, quals, cid=cid))
        many = KmerTables.build(tasks, k, 20)
        for j, task in enumerate(tasks):
            assert _table_of(many, j) == build_kmer_table(task, k, 20)
        assert many.sizes.sum() == len(many.words) and many.offsets[0] == 0
        _build_table(tasks[0], k, 20)


class TestMerWalk:
    def test_walks_genome(self, rng):
        genome = random_dna(300, rng)
        task = _tiling_task(genome, 100, rng)
        cfg = LocalAssemblyConfig(k_init=21, max_walk_len=300, min_viable=2)
        walk, status = _mer_walk(encode(genome[:100]), task, 21, cfg)

        ext = decode(np.array(walk, dtype=np.uint8))
        assert genome[100 : 100 + len(ext)] == ext
        assert len(ext) > 100  # reads cover well past the contig end

    def test_short_seq_runout(self):
        cfg = LocalAssemblyConfig()
        walk, status = mer_walk(encode("ACGT"), {}, 21, cfg)
        assert walk == [] and status == WalkStatus.RUNOUT
        # the engine, with a table to find nothing in
        task = _mk_task("ACGT", ["ACGT" * 10])
        walk, status = _mer_walk(encode("ACGT"), task, 21, cfg)
        assert walk == [] and status == WalkStatus.RUNOUT

    def test_max_len_cap(self, rng):
        genome = random_dna(400, rng)
        task = _tiling_task(genome, 100, rng)
        cfg = LocalAssemblyConfig(k_init=21, max_walk_len=10)
        walk, status = _mer_walk(encode(genome[:100]), task, 21, cfg)
        assert len(walk) == 10 and status == WalkStatus.MAX_LEN

    def test_loop_detected_on_tandem_repeat(self):
        unit = "ACGTTGCACTG"  # 11bp unit, no internal 5-mer repeats
        circular = unit * 8
        reads = [circular[i : i + 30] for i in range(0, len(circular) - 30, 3)]
        task = _mk_task(unit * 2, reads)
        cfg = LocalAssemblyConfig(k_init=5, k_min=5, max_walk_len=300, min_viable=2)
        walk, status = _mer_walk(encode(unit * 2), task, 5, cfg)
        assert status == WalkStatus.LOOP
        assert len(walk) <= len(unit) + 5

    def test_fork_stops_walk(self):
        stem = "ACGTACGTCCAT"
        reads = [stem + "AAAAA"] * 3 + [stem + "TTTTT"] * 3
        task = _mk_task(stem, reads)
        cfg = LocalAssemblyConfig(k_init=7, k_min=7, max_walk_len=50)
        walk, status = _mer_walk(encode(stem), task, 7, cfg)
        assert status == WalkStatus.FORK
        assert len(walk) == 0

    def test_low_quality_extension_ignored(self):
        stem = "ACGTACGTCCAT"
        # three low-quality observations of the same extension
        quals = [np.array([40] * len(stem) + [2] * 5, dtype=np.uint8)] * 3
        task = _mk_task(stem, [stem + "AAAAA"] * 3, quals)
        cfg = LocalAssemblyConfig(k_init=7, k_min=7, min_viable=2)
        # hi counts are 0 but totals pass the fallback -> extension proceeds
        walk, status = _mer_walk(encode(stem), task, 7, cfg)
        assert len(walk) > 0


class TestKShiftIntegration:
    def test_upshift_resolves_repeat_fork(self, rng):
        """A fork caused by a repeat shorter than the upshifted k is
        resolved after the k-shift: the walk continues further."""
        rep = random_dna(24, rng)  # longer than k_init=21? no: 24 > 21
        a_arm, b_arm = random_dna(120, rng), random_dna(120, rng)
        tail_a, tail_b = random_dna(120, rng), random_dna(120, rng)
        # genome has the repeat at two loci with different continuations
        locus_a = a_arm + rep + tail_a
        locus_b = b_arm + rep + tail_b
        reads = []
        for locus in (locus_a, locus_b):
            reads += [locus[i : i + 60] for i in range(0, len(locus) - 60 + 1, 4)]
        task = _mk_task(a_arm, reads)
        cfg = LocalAssemblyConfig(k_init=21, k_step=12, k_min=13, k_max=45, max_walk_len=200)
        result = extend_task_cpu(task, cfg)
        assert result == extend_task_reference(task, cfg)
        # at k=21 the walk forks inside the 24bp repeat; k=33 spans it
        statuses = [r.status for r in result.rounds]
        ks = [r.k for r in result.rounds]
        assert WalkStatus.FORK in statuses
        assert any(k > 21 for k in ks)
        # and the final extension continues into tail_a
        assert tail_a[:20] in (a_arm + result.extension)[len(a_arm) - 5 :] or len(
            result.extension
        ) > len(rep)

    def test_zero_read_task_empty(self):
        task = _mk_task("ACGTACGTACGTACGTACGTACGTA", [])
        result = extend_task_cpu(task, LocalAssemblyConfig())
        assert result.extension == "" and result.rounds == ()

    def test_run_over_taskset_stats(self, rng):
        genome = random_dna(300, rng)
        t1 = _tiling_task(genome, 100, rng)
        t2 = _mk_task("ACGTACGTACGTACGTACGTACGTA", [], cid=1)
        exts, stats = run_local_assembly_cpu(TaskSet([t1, t2]))
        assert stats.n_tasks == 2
        assert stats.n_tasks_with_reads == 1
        assert stats.n_extended == 1
        assert exts[(1, RIGHT)] == ""
        assert len(exts[(0, RIGHT)]) == stats.total_extension_bases
        assert stats.mean_walk_length() > 0

    def test_extension_matches_genome(self, rng):
        """End to end: the extension reproduces the true genome sequence."""
        genome = random_dna(500, rng)
        task = _tiling_task(genome, 150, rng)
        cfg = LocalAssemblyConfig(k_init=21, max_walk_len=400)
        result = extend_task_cpu(task, cfg)
        extended = genome[:150] + result.extension
        assert extended == genome[: len(extended)]
        assert len(result.extension) > 150


# --------------------------------------------------------------------------
# engine == reference
# --------------------------------------------------------------------------


def _engine_results(tasks, cfg):
    """Per-task results the way ``run_local_assembly_cpu`` computes them:
    block by block, every block's tasks advancing together."""
    return [
        result
        for block in engine._blocks(TaskSet(tasks))
        for result in engine._extend_block(block, cfg)
    ]


def _assert_matches_reference(tasks, cfg):
    """Extensions (values and key order), every stats field (dataclass
    equality, so ``walk_lengths`` order too) and every task's rounds."""
    want_ext, want_stats = run_local_assembly_reference(TaskSet(tasks), cfg)
    got_ext, got_stats = run_local_assembly_cpu(TaskSet(tasks), cfg)
    assert list(got_ext.items()) == list(want_ext.items())
    assert got_stats == want_stats
    results = _engine_results(tasks, cfg)
    assert results == [extend_task_reference(t, cfg) for t in tasks]
    return results, got_stats


def _fuzz_task(rng, cid, letters="ACGT", max_reads=30):
    """One adversarial task: a random, tandem or two-locus-repeat genome
    over *letters*; a contig from empty to half the genome, sometimes with
    an N near its end; zero to *max_reads* ragged reads (1..90 bases), most
    of them over the contig end, with duplicates, substitutions and Ns,
    under random qualities."""
    pick = lambda n: "".join(rng.choice(list(letters), size=n))
    genome = pick(int(rng.integers(40, 260)))
    shape = int(rng.integers(4))
    if shape == 1:  # tandem repeat: walks loop
        unit = genome[: int(rng.integers(3, 30))]
        genome = unit * (len(genome) // len(unit) + 1)
    elif shape == 2:  # one repeat, two continuations: walks fork
        at = int(rng.integers(10, len(genome) - 25))
        genome += pick(20) + genome[at : at + int(rng.integers(8, 45))] + pick(40)
    contig = list(genome[: int(rng.integers(0, len(genome) // 2 + 1))])
    if contig and rng.random() < 0.15:
        contig[-int(rng.integers(1, min(len(contig), 30) + 1))] = "N"
    reads: list[str] = []
    for _ in range(int(rng.integers(0, max_reads + 1))):
        if reads and rng.random() < 0.2:
            reads.append(reads[int(rng.integers(len(reads)))])
            continue
        start = int(rng.integers(0, len(genome) - 1))
        if rng.random() < 0.7:  # most reads overlap the contig end
            start = min(len(genome) - 1, max(0, len(contig) - int(rng.integers(1, 60))))
        read = list(genome[start : start + int(rng.integers(1, 91))])
        if rng.random() < 0.2:
            read[int(rng.integers(len(read)))] = letters[int(rng.integers(len(letters)))]
        if rng.random() < 0.15:
            read[int(rng.integers(len(read)))] = "N"
        reads.append("".join(read))
    quals = [rng.integers(2, 42, size=len(r)) for r in reads]
    side = LEFT if rng.random() < 0.5 else RIGHT
    return _mk_task("".join(contig), reads, quals, cid=cid, side=side)


def _fuzz_tasks(seed, n_tasks, letters="ACGT", max_reads=30):
    rng = np.random.default_rng(seed)
    return [_fuzz_task(rng, cid, letters, max_reads) for cid in range(n_tasks)]


def _repeat_task(rng, cid, repeat_len, read_len=70):
    """A contig that runs into a repeat present at two loci with different
    continuations: every k up to *repeat_len* forks at the repeat's end."""
    rep = random_dna(repeat_len, rng)
    # the flanks differ at both junctions, so the repeat is exactly *rep*
    arm_a, arm_b = random_dna(89, rng) + "A", random_dna(89, rng) + "C"
    loci = (arm_a + rep + "G" + random_dna(89, rng), arm_b + rep + "T" + random_dna(89, rng))
    reads = [
        locus[i : i + read_len]
        for locus in loci
        for i in range(0, len(locus) - read_len + 1, 3)
    ]
    return _mk_task(arm_a, reads, cid=cid)


class TestContract:
    """Each clause of the bit-identity contract, on an input built to hit it."""

    def test_inserts_are_valid_windows_and_entries_distinct_kmers(self):
        """``n_inserts`` counts, over every round of every task, the windows
        that lie in one read with a following base and no N;
        ``table_entries`` the distinct k-mers among them."""
        tasks = _fuzz_tasks(11, 12, max_reads=12)
        cfg = LocalAssemblyConfig(k_init=9, k_min=5, k_max=17, k_step=4)
        results, stats = _assert_matches_reference(tasks, cfg)
        inserts = 0
        for task, result in zip(tasks, results):
            for rnd in result.rounds:
                windows = [
                    read[i : i + rnd.k].tobytes()
                    for read in task.reads
                    for i in range(read.size - rnd.k)
                    if (read[i : i + rnd.k + 1] < 4).all()
                ]
                inserts += len(windows)
                assert rnd.table_entries == len(set(windows))
        assert stats.n_inserts == inserts > 0
        assert stats.n_rounds == sum(r.n_rounds for r in results)

    def test_window_edges(self):
        """A window ending exactly at a read end has no following base; an
        N as the following base, or inside the k-mer, drops the window."""
        cfg = LocalAssemblyConfig(k_init=5, k_min=5, k_max=5)
        for read, inserts in [
            ("ACGTA", 0),  # length k: no following base
            ("ACGTAC", 1),  # length k + 1: exactly one window
            ("ACGTAN", 0),  # ... whose following base is N
            ("ACNTACG", 0),  # N inside both k-mers
            ("ACGTACGNACGTACG", 4),  # windows on both sides of an N
        ]:
            task = _mk_task("ACGTA", [read])
            _, stats = _assert_matches_reference([task], cfg)
            assert stats.n_inserts == inserts, read
        # two reads laid end to end hold no window across the seam
        task = _mk_task("ACGTA", ["ACGTA", "CGTAC"])
        _, stats = _assert_matches_reference([task], cfg)
        assert stats.n_inserts == 0

    def test_unusable_start_is_runout_with_zero_steps(self, rng):
        genome = random_dna(300, rng)
        reads = [genome[i : i + 80] for i in range(0, 220, 7)]
        cfg = LocalAssemblyConfig(k_init=21, k_min=21, k_max=21)
        cases = {
            "contig shorter than k": genome[100:115],
            "N in the start k-mer": genome[:90] + "N" + genome[91:100],
            "start k-mer absent from the table": random_dna(100, rng),
        }
        for why, contig in cases.items():
            (result,), _ = _assert_matches_reference([_mk_task(contig, reads)], cfg)
            (only,) = result.rounds
            assert (only.status, only.n_steps) == (WalkStatus.RUNOUT, 0), why
            assert only.table_entries > 0
        # the same reads do extend a contig that ends inside them
        (result,), _ = _assert_matches_reference([_mk_task(genome[:100], reads)], cfg)
        assert len(result.extension) > 100

    def test_loop_before_reclassifying(self):
        """A revisited entry is LOOP even though classifying it again would
        extend: the walk goes once around the tandem unit and stops."""
        unit = "ACGTTGCACTG"
        circular = unit * 8
        reads = [circular[i : i + 30] for i in range(0, len(circular) - 30, 3)]
        cfg = LocalAssemblyConfig(k_init=5, k_min=5, k_max=5)
        (result,), _ = _assert_matches_reference([_mk_task(unit * 2, reads)], cfg)
        (only,) = result.rounds
        assert (only.status, only.n_steps) == (WalkStatus.LOOP, len(unit))

    def test_extensions_keyed_in_task_order(self, monkeypatch):
        """First appearance fixes a key's place, block boundaries or not; a
        repeated ``(cid, side)`` keeps it and takes the later value."""
        cids = (7, 3, 3, 8, 0, 5, 5, 1, 2)
        tasks = [replace(t, cid=cid) for t, cid in zip(_fuzz_tasks(5, 9), cids)]
        tasks[2] = replace(tasks[2], side=1 - tasks[1].side)
        tasks[6] = replace(tasks[6], side=tasks[5].side)  # the repeated key
        keys = list(dict.fromkeys((t.cid, t.side) for t in tasks))
        assert len(keys) == 8
        for cap in (1, 1 << 17):
            monkeypatch.setattr(engine, "_BLOCK_BASES", cap)
            ext, _ = run_local_assembly_cpu(TaskSet(tasks))
            assert list(ext) == keys
            _assert_matches_reference(tasks, LocalAssemblyConfig())

    @pytest.mark.parametrize("cap", [1, 500])
    def test_block_cap_invariance(self, monkeypatch, cap):
        tasks = _fuzz_tasks(21, 40)
        cfg = LocalAssemblyConfig(k_init=13, k_min=5, k_max=29, k_step=8)
        whole = run_local_assembly_cpu(TaskSet(tasks), cfg), _engine_results(tasks, cfg)
        monkeypatch.setattr(engine, "_BLOCK_BASES", cap)
        blocks = list(engine._blocks(TaskSet(tasks)))
        assert [t for block in blocks for t in block] == tasks
        assert len(blocks) > 10
        for block in blocks:
            assert len(block) == 1 or sum(t.total_read_bases for t in block) <= cap
        assert (run_local_assembly_cpu(TaskSet(tasks), cfg), _engine_results(tasks, cfg)) == whole
        _assert_matches_reference(tasks, cfg)

    def test_task_over_the_block_cap(self, rng):
        """A task larger than the cap is a block of its own, between
        neighbours that share theirs."""
        genome = random_dna(3000, rng)
        big = _mk_task(genome[:200], [genome[i : i + 100] for i in range(0, 2900, 2)], cid=1)
        assert big.total_read_bases > engine._BLOCK_BASES
        small = _fuzz_tasks(3, 4)
        tasks = small[:2] + [big] + small[2:]
        assert [len(b) for b in engine._blocks(TaskSet(tasks))] == [2, 1, 2]
        results, _ = _assert_matches_reference(tasks, LocalAssemblyConfig(max_walk_len=150))
        assert len(results[2].extension) == 150

    @pytest.mark.parametrize("k_init", [21, 29, 45])
    def test_order_of_equal_keys_is_never_read(self, monkeypatch, k_init):
        """Same results when ``argsort`` leaves equal keys in the opposite
        order (NumPy's default sort is not stable and may differ by build)."""

        class ReversedTies:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def argsort(a):
                return a.size - 1 - np.argsort(a[::-1], kind="stable")

        tasks = _fuzz_tasks(8, 80)
        cfg = LocalAssemblyConfig(k_init=k_init, k_min=5, k_max=61, k_step=8)
        ties = np.array([3, 1, 3, 1], dtype=np.uint64)
        assert np.argsort(ties, kind="stable").tolist() == [1, 3, 0, 2]
        assert ReversedTies.argsort(ties).tolist() == [3, 1, 2, 0]
        monkeypatch.setattr(engine, "np", ReversedTies())
        _assert_matches_reference(tasks, cfg)


class TestCompositeKey:
    @pytest.mark.parametrize("n_tasks", [1, 2, 70, 300])
    @pytest.mark.parametrize("k", [3, 27, 28, 29, 32, 33, 45, 61, 64, 65, 99])
    def test_orders_like_the_rows_and_finds_only_what_was_built(self, rng, n_tasks, k):
        """One uint64 per ``(task, k-mer)`` row whose order and equality are
        the rows' own, whichever of the shifted / ranked-word /
        ranked-prefix packings the widths call for; query rows map into the
        same key space and unseen rows are reported absent."""
        n = 400
        nw = (k + 31) // 32
        # few distinct values per word, so rows collide and order matters
        pool = rng.integers(0, 1 << 62, size=(6, nw), dtype=np.uint64) << np.uint64(2)
        pool[:, -1] &= ~np.uint64(0) << np.uint64(64 * nw - 2 * k)  # zero pad bits
        words = np.stack([pool[rng.integers(6, size=n), w] for w in range(nw)], axis=1)
        task = rng.integers(n_tasks, size=n)
        key = engine._CompositeKey(task, words, n_tasks, k)

        rows = np.column_stack([task.astype(np.uint64), words])
        by_rows = np.lexsort(rows.T[::-1])
        in_order = key.keys[by_rows]
        same_row = (rows[by_rows][1:] == rows[by_rows][:-1]).all(axis=1)
        assert (in_order[1:] >= in_order[:-1]).all()
        assert ((in_order[1:] == in_order[:-1]) == same_row).all()

        again, present = key.of(task, words)
        assert present.all() and (again == key.keys).all()
        fresh = words.copy()
        fresh[:, 0] ^= np.uint64(1) << np.uint64(63)  # another first base
        built = {r.tobytes() for r in rows}
        fresh_rows = np.column_stack([task.astype(np.uint64), fresh])
        unseen = np.array([r.tobytes() not in built for r in fresh_rows])
        assert unseen.any()
        keys, present = key.of(task, fresh)
        found = present & np.isin(keys, key.keys)
        assert not (found & unseen).any() and found[~unseen].all()


class TestAgainstReference:
    """Property suite: the engine equals the reference on every output."""

    def test_zero_read_tasks_only(self):
        tasks = [_mk_task("ACGT" * 8, [], cid=cid) for cid in range(3)]
        results, stats = _assert_matches_reference(tasks, LocalAssemblyConfig())
        assert all(r.rounds == () for r in results)
        assert (stats.n_tasks, stats.n_tasks_with_reads, stats.n_rounds) == (3, 0, 0)
        assert run_local_assembly_cpu(TaskSet([]))[0] == {}

    def test_reads_all_shorter_than_a_window(self):
        """Empty tables at every k: RUNOUT, downshift, RUNOUT ... to k_min."""
        tasks = [_mk_task("ACGT" * 10, ["ACGTACGTAC", "ACG", "T"], cid=c) for c in range(2)]
        cfg = LocalAssemblyConfig(k_init=21, k_min=13, k_step=4)
        results, stats = _assert_matches_reference(tasks, cfg)
        for result in results:
            assert [(r.k, r.status, r.table_entries) for r in result.rounds] == [
                (21, WalkStatus.RUNOUT, 0), (17, WalkStatus.RUNOUT, 0), (13, WalkStatus.RUNOUT, 0),
            ]
        assert stats.n_inserts == 0

    def test_duplicate_and_unequal_length_reads(self, rng):
        genome = random_dna(200, rng)
        reads = [genome[10:90]] * 3
        reads += [genome[40:75], genome[40:140], genome[60:61], genome[100:200]]
        results, _ = _assert_matches_reference(
            [_mk_task(genome[:60], reads)], LocalAssemblyConfig(min_viable=1)
        )
        assert results[0].extension

    def test_max_walk_len_10(self, rng):
        genome = random_dna(400, rng)
        tasks = [_tiling_task(genome, 100 + 10 * c, rng) for c in range(3)]
        results, _ = _assert_matches_reference(tasks, LocalAssemblyConfig(max_walk_len=10))
        for result in results:
            assert [(r.status, r.n_steps) for r in result.rounds] == [(WalkStatus.MAX_LEN, 10)]

    def test_fork_upshifts_through_29_37_45(self, rng):
        """80 tasks forking on a 40-base repeat climb k = 21 -> 29 -> 37 ->
        45 together: the shifted key, the ranked one-word key (7 task bits +
        58 > 64) and two-word keys, all in multi-task groups."""
        tasks = [_repeat_task(rng, cid, repeat_len=40) for cid in range(80)]
        tasks += [_repeat_task(rng, 80 + c, repeat_len=26) for c in range(5)]
        results, _ = _assert_matches_reference(tasks, LocalAssemblyConfig(max_walk_len=200))
        for result in results[:80]:
            assert [(r.k, r.status, r.n_steps) for r in result.rounds[:3]] == [
                (21, WalkStatus.FORK, 40), (29, WalkStatus.FORK, 0), (37, WalkStatus.FORK, 0),
            ]
            assert result.rounds[3].k == 45 and result.rounds[3].n_steps > 40
        for result in results[80:]:  # resolved one wave earlier: mixed-k waves
            assert [(r.k, r.n_steps) for r in result.rounds[:1]] == [(21, 26)]
            assert result.rounds[1].k == 29 and result.rounds[1].n_steps > 40

    def test_runout_downshifts_to_k_min(self, rng):
        """Reads that overlap by 16 bases: k = 21 and 17 run out at each
        junction, k = 13 carries the walk across."""
        genome = random_dna(400, rng)
        reads = [genome[i : i + 60] for i in range(0, 330, 44)] * 2
        cfg = LocalAssemblyConfig(k_init=21, k_min=13, k_step=4)
        (result,), _ = _assert_matches_reference([_mk_task(genome[:50], reads)], cfg)
        assert [r.k for r in result.rounds] == [21, 17, 13]
        assert [r.status for r in result.rounds[:2]] == [WalkStatus.RUNOUT] * 2
        assert result.rounds[2].n_steps > 60

    @pytest.mark.parametrize("k_init", [29, 37, 45, 61])
    def test_300_tasks_at_wide_keys(self, k_init):
        """9 task bits: every k here needs rank-compressed key words from
        the first wave on; k_max = 99 lets forks climb to three-word keys."""
        tasks = _fuzz_tasks(300 + k_init, 300, max_reads=8)
        cfg = LocalAssemblyConfig(k_init=k_init, k_min=13, k_max=99, k_step=8)
        results, stats = _assert_matches_reference(tasks, cfg)
        assert stats.n_rounds > stats.n_tasks_with_reads > 200

    def test_same_task_set_twice(self):
        tasks = TaskSet(_fuzz_tasks(2, 30))
        first = run_local_assembly_cpu(tasks)
        assert run_local_assembly_cpu(tasks) == first
        assert _engine_results(tasks.tasks, LocalAssemblyConfig()) == _engine_results(
            tasks.tasks, LocalAssemblyConfig()
        )

    def test_read_order_does_not_matter(self, rng):
        tasks = _fuzz_tasks(4, 20)
        shuffled = []
        for t in tasks:
            perm = rng.permutation(t.n_reads)
            reads = tuple(t.reads[i] for i in perm)
            quals = tuple(t.quals[i] for i in perm)
            shuffled.append(ExtensionTask.from_reads(t.cid, t.side, t.contig, reads, quals))
        cfg = LocalAssemblyConfig(k_init=13, k_min=5)
        assert _assert_matches_reference(shuffled, cfg) == _assert_matches_reference(tasks, cfg)

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_fuzz(self, seed):
        """Every knob the engine reads, over adversarial task sets."""
        rng = np.random.default_rng([seed, 17])
        k_step = int(rng.choice([1, 2, 8]))
        k_init = int(rng.choice([5, 9, 13, 21, 27, 29, 31, 32, 33, 37, 45, 61]))
        cfg = LocalAssemblyConfig(
            k_init=k_init,
            k_min=max(3, k_init - int(rng.integers(0, 4)) * k_step),
            k_max=k_init + int(rng.integers(0, 5)) * k_step,
            k_step=k_step,
            max_walk_len=int(rng.choice([10, 300])),
            hi_q_thresh=int(rng.choice([10, 20, 35])),
            min_viable=int(rng.choice([1, 2, 3])),
            dominance_ratio=float(rng.choice([1.0, 2.0])),
        )
        letters = "ACGT"[: int(rng.integers(2, 5))]
        n_tasks = int(rng.choice([1, 2, 7, 70]))
        _assert_matches_reference(_fuzz_tasks(seed, n_tasks, letters), cfg)

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_tasks=st.sampled_from([1, 2, 7]),
        letters=st.sampled_from(["AC", "ACG", "ACGT"]),
        k_init=st.sampled_from([5, 8, 13, 21, 29, 32, 33, 37, 45]),
        k_step=st.sampled_from([1, 2, 8]),
        shifts=st.tuples(st.integers(0, 3), st.integers(0, 4)),
        max_walk_len=st.sampled_from([10, 300]),
        hi_q_thresh=st.sampled_from([10, 20, 35]),
        min_viable=st.sampled_from([1, 2, 3]),
        dominance_ratio=st.sampled_from([1.0, 2.0]),
        cap=st.sampled_from([1, 500, 1 << 17]),
    )
    def test_hypothesis(
        self, seed, n_tasks, letters, k_init, k_step, shifts, max_walk_len,
        hi_q_thresh, min_viable, dominance_ratio, cap,
    ):
        cfg = LocalAssemblyConfig(
            k_init=k_init,
            k_min=max(3, k_init - shifts[0] * k_step),
            k_max=k_init + shifts[1] * k_step,
            k_step=k_step,
            max_walk_len=max_walk_len,
            hi_q_thresh=hi_q_thresh,
            min_viable=min_viable,
            dominance_ratio=dominance_ratio,
        )
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_BLOCK_BASES", cap)
            _assert_matches_reference(_fuzz_tasks(seed, n_tasks, letters), cfg)
