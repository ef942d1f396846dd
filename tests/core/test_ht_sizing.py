"""Tests for the §3.2 memory math: sizing, load factor, batching."""

import numpy as np
import pytest

from repro.core.cpu_local_assembly import KmerTables
from repro.core.ht_sizing import (
    SLOT_BYTES,
    compression_factor,
    ht_sizes,
    kmer_entry_bytes,
    load_factor_bound,
    plan_batches,
    plan_layout,
    pointer_entry_bytes,
    table_slots,
    worst_case_load_factor,
)
from repro.core.tasks import ExtensionTask, TaskSet
from repro.sequence.dna import encode


def _task(cid, read_lens):
    reads = tuple(encode("A" * l) for l in read_lens)
    quals = tuple(np.full(l, 40, dtype=np.uint8) for l in read_lens)
    return ExtensionTask.from_reads(cid=cid, side=0, contig=encode("ACGT" * 10), reads=reads, quals=quals)


class TestLoadFactor:
    def test_paper_worst_case(self):
        """The paper derives (300-21+1)/300 ~= 0.93."""
        assert worst_case_load_factor() == pytest.approx(0.9333, abs=1e-3)

    def test_formula(self):
        assert load_factor_bound(150, 21) == pytest.approx(130 / 150)

    def test_k_larger_than_read(self):
        assert load_factor_bound(20, 21) == 0.0

    def test_never_reaches_one(self):
        for l in (50, 150, 300):
            for k in (13, 21, 33):
                assert load_factor_bound(l, k) < 1.0

    def test_empirical_load_factor_below_bound(self):
        """Actual distinct k-mers never exceed the sized capacity."""
        from la_reference import build_kmer_table

        rng = np.random.default_rng(0)
        from repro.sequence.dna import random_dna

        reads = tuple(encode(random_dna(150, rng)) for _ in range(20))
        quals = tuple(np.full(150, 40, dtype=np.uint8) for _ in range(20))
        task = ExtensionTask.from_reads(cid=0, side=0, contig=encode("ACGT" * 10), reads=reads, quals=quals)
        table = build_kmer_table(task, 21, 20)
        assert len(table) <= table_slots(task) * load_factor_bound(150, 21)
        assert KmerTables.build([task], 21, 20).sizes.tolist() == [len(table)]


class TestLayout:
    def test_sizes_equal_read_bases(self):
        ts = TaskSet([_task(0, [150, 150]), _task(1, [100]), _task(2, [])])
        sizes = ht_sizes(ts)
        assert sizes.tolist() == [300, 100, 1]  # empty task gets 1 slot

    def test_offsets_prefix_sum(self):
        ts = TaskSet([_task(0, [100]), _task(1, [50, 50]), _task(2, [10])])
        layout = plan_layout(ts)
        assert layout.offsets.tolist() == [0, 100, 200, 210]
        assert layout.region(1) == (100, 200)
        assert layout.total_slots == 210

    def test_regions_disjoint_and_cover(self):
        ts = TaskSet([_task(i, [20 * (i + 1)]) for i in range(5)])
        layout = plan_layout(ts)
        prev_end = 0
        for i in range(5):
            start, end = layout.region(i)
            assert start == prev_end and end > start
            prev_end = end
        assert prev_end == layout.total_slots


class TestCompression:
    def test_fig6_factor(self):
        """The paper quotes ~15x for a 77-mer."""
        assert compression_factor(77) == pytest.approx(15.4)

    def test_entry_bytes(self):
        assert kmer_entry_bytes(77) == 85
        assert pointer_entry_bytes() == 13
        assert kmer_entry_bytes(77, 0) / (pointer_entry_bytes(0)) == pytest.approx(15.4)


class TestEdgeCases:
    def test_zero_read_bin_layout(self):
        """A bin of only read-less tasks still gets well-formed tables:
        one slot each, disjoint regions, and batch planning succeeds."""
        ts = TaskSet([_task(i, []) for i in range(4)])
        layout = plan_layout(ts)
        assert layout.sizes.tolist() == [1, 1, 1, 1]
        assert layout.total_slots == 4
        assert [layout.region(i) for i in range(4)] == [
            (0, 1), (1, 2), (2, 3), (3, 4)
        ]
        assert plan_batches(ts, device_mem_bytes=10**6) == [[0, 1, 2, 3]]

    def test_zero_read_bin_extends_nothing(self):
        ts = TaskSet([_task(i, []) for i in range(3)])
        from repro.core.config import LocalAssemblyConfig
        from repro.core.driver import GpuLocalAssembler

        report = GpuLocalAssembler(LocalAssemblyConfig(k_init=21)).run(ts)
        assert set(report.extensions.values()) == {""}

    def test_single_read_shorter_than_k(self):
        """One read shorter than k: the load-factor bound collapses to 0
        (no k-mer fits), but the table is still sized from read bases and
        the k-mer build yields an empty table, not an error."""
        from la_reference import build_kmer_table

        task = _task(0, [10])
        assert load_factor_bound(10, 21) == 0.0
        assert table_slots(task) == 10
        assert len(build_kmer_table(task, 21, 10)) == 0
        assert KmerTables.build([task], 21, 10).sizes.tolist() == [0]

    def test_bound_at_boundary_lengths(self):
        """(l-k+1)/l at the edges: l == k gives one window (1/l), l == k-1
        gives none, and the bound grows with l but never crosses the
        paper's 0.94 ceiling for l <= 300, k >= 21."""
        assert load_factor_bound(21, 21) == pytest.approx(1 / 21)
        assert load_factor_bound(20, 21) == 0.0
        assert load_factor_bound(0, 21) == 0.0
        worst = worst_case_load_factor()
        for l in (21, 22, 50, 150, 299, 300):
            for k in (21, 33, 55):
                assert load_factor_bound(l, k) <= worst + 1e-12
        bounds = [load_factor_bound(l, 21) for l in range(21, 301)]
        assert bounds == sorted(bounds)


class TestBatching:
    def test_everything_fits_one_batch(self):
        ts = TaskSet([_task(i, [100]) for i in range(10)])
        batches = plan_batches(ts, device_mem_bytes=10**9)
        assert batches == [list(range(10))]

    def test_splits_under_budget(self):
        ts = TaskSet([_task(i, [1000]) for i in range(10)])
        budget = int(3 * 1000 * SLOT_BYTES / 0.75)  # ~3 tasks per batch
        batches = plan_batches(ts, device_mem_bytes=budget)
        assert len(batches) >= 3
        assert [i for b in batches for i in b] == list(range(10))

    def test_oversized_task_isolated(self):
        ts = TaskSet([_task(0, [10]), _task(1, [10**6]), _task(2, [10])])
        batches = plan_batches(ts, device_mem_bytes=1000 * SLOT_BYTES)
        assert [1] in batches

    def test_batches_preserve_order(self):
        ts = TaskSet([_task(i, [500]) for i in range(20)])
        batches = plan_batches(ts, device_mem_bytes=4000 * SLOT_BYTES)
        flat = [i for b in batches for i in b]
        assert flat == sorted(flat)
