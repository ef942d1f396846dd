"""Tests for the local-assembly dump format (§4.1 standalone methodology)."""

import numpy as np
import pytest

from repro.core.config import LocalAssemblyConfig
from repro.core.cpu_local_assembly import run_local_assembly_cpu
from repro.core.dump import DUMP_FORMAT_VERSION, load_tasks, save_tasks
from repro.core.tasks import LEFT, RIGHT, ExtensionTask, TaskSet
from repro.sequence.dna import encode, random_dna, revcomp_codes


@pytest.fixture
def tasks(rng):
    out = []
    for cid in range(4):
        genome = random_dna(250, rng)
        n = cid * 3  # includes a zero-read task
        reads = tuple(encode(genome[i * 11 : i * 11 + 50]) for i in range(n))
        quals = tuple(
            rng.integers(2, 42, size=50).astype(np.uint8) for _ in range(n)
        )
        out.append(
            ExtensionTask.from_reads(
                cid=cid, side=LEFT if cid % 2 else RIGHT,
                contig=encode(genome[:90]), reads=reads, quals=quals,
            )
        )
    return TaskSet(out)


class TestRoundtrip:
    def test_exact_roundtrip(self, tasks, tmp_path):
        p = tmp_path / "dump.npz"
        save_tasks(p, tasks)
        back = load_tasks(p)
        assert len(back) == len(tasks)
        for a, b in zip(tasks, back):
            assert a.cid == b.cid and a.side == b.side
            assert np.array_equal(a.contig, b.contig)
            assert len(a.reads) == len(b.reads)
            for ra, rb in zip(a.reads, b.reads):
                assert np.array_equal(ra, rb)
            for qa, qb in zip(a.quals, b.quals):
                assert np.array_equal(qa, qb)

    def test_results_identical_after_roundtrip(self, tasks, tmp_path):
        """The scientific requirement: a dump reproduces assembly exactly."""
        p = tmp_path / "dump.npz"
        save_tasks(p, tasks)
        cfg = LocalAssemblyConfig(k_init=17, max_walk_len=60)
        before, _ = run_local_assembly_cpu(tasks, cfg)
        after, _ = run_local_assembly_cpu(load_tasks(p), cfg)
        assert before == after

    def test_packed_roundtrip_edge_cases(self, rng, tmp_path):
        """Zero tasks, tasks without reads and a contig with reads on one
        side only come back array for array, dtypes included."""
        genome = random_dna(300, rng)
        contig = encode(genome[:120])
        reads = tuple(encode(genome[100 + 9 * i : 160 + 9 * i]) for i in range(5))
        quals = tuple(rng.integers(2, 42, 60).astype(np.uint8) for _ in reads)
        one_side = [
            ExtensionTask.from_reads(0, LEFT, revcomp_codes(contig), (), ()),
            ExtensionTask.from_reads(0, RIGHT, contig, reads, quals),
        ]
        no_reads = [
            ExtensionTask.from_reads(3, LEFT, revcomp_codes(contig[:50]), (), ()),
            ExtensionTask.from_reads(3, RIGHT, contig[:50], (), ()),
        ]
        for tasks in ([], no_reads, one_side + no_reads, no_reads + one_side):
            p = tmp_path / "dump.npz"
            save_tasks(p, TaskSet(tasks))
            back = load_tasks(p)
            assert len(back) == len(tasks)
            for a, b in zip(tasks, back):
                assert (a.cid, a.side, a.n_reads) == (b.cid, b.side, b.n_reads)
                for x, y in zip(
                    (a.contig, *a.packed_reads()), (b.contig, *b.packed_reads())
                ):
                    assert x.dtype == y.dtype and np.array_equal(x, y)

    def test_loaded_tasks_are_read_only(self, tasks, tmp_path):
        """Loaded tasks slice shared flat arrays: a write must raise."""
        p = tmp_path / "dump.npz"
        save_tasks(p, tasks)
        t = load_tasks(p)[-1]
        for a in (t.contig, *t.packed_reads()):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_empty_taskset(self, tmp_path):
        p = tmp_path / "empty.npz"
        save_tasks(p, TaskSet([]))
        assert len(load_tasks(p)) == 0

    def test_version_check(self, tasks, tmp_path):
        p = tmp_path / "dump.npz"
        save_tasks(p, tasks)
        with np.load(p) as data:
            arrays = {k: data[k] for k in data.files}
        arrays["version"] = np.int64(DUMP_FORMAT_VERSION + 1)
        np.savez(p, **arrays)
        with pytest.raises(ValueError, match="version"):
            load_tasks(p)



def _corrupt(path, **changes):
    """Rewrite the dump at *path* with each ``field=fn(array)`` applied."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    for field, fn in changes.items():
        arrays[field] = fn(arrays[field].copy())
    np.savez(path, **arrays)


def _set(i, value):
    def fn(a):
        a[i] = value
        return a

    return fn


class TestCorruptDumpRejected:
    """Each case loaded at the parent and then crashed inside NumPy or
    extended as if nothing were wrong."""

    def test_negative_read_length(self, tasks, tmp_path):
        p = tmp_path / "dump.npz"
        save_tasks(p, tasks)
        _corrupt(p, read_offsets=_set(1, -5))
        with pytest.raises(ValueError, match="read_offsets"):
            load_tasks(p)

    def test_read_base_code_above_n(self, tasks, tmp_path):
        p = tmp_path / "dump.npz"
        save_tasks(p, tasks)
        _corrupt(p, reads=_set(0, 9))
        with pytest.raises(ValueError, match="reads holds base code 9"):
            load_tasks(p)

    def test_contig_code_above_n(self, tasks, tmp_path):
        p = tmp_path / "dump.npz"
        save_tasks(p, tasks)
        _corrupt(p, contigs=_set(3, 7))
        with pytest.raises(ValueError, match="contigs holds base code 7"):
            load_tasks(p)

    @pytest.mark.parametrize(
        "field, fn, match",
        [
            ("contig_offsets", lambda a: a[:-1], "cids need"),
            ("sides", lambda a: a[1:], "cids need"),
            ("task_read_start", _set(-1, 999), "task_read_start"),
            ("task_read_start", _set(1, 5), "task_read_start"),
            ("contig_offsets", _set(0, 1), "contig_offsets"),
            ("quals", lambda a: a[:-1], "quals"),
        ],
    )
    def test_layout_mismatch(self, tasks, tmp_path, field, fn, match):
        p = tmp_path / "dump.npz"
        save_tasks(p, tasks)
        _corrupt(p, **{field: fn})
        with pytest.raises(ValueError, match=match):
            load_tasks(p)

    def test_localassm_reports_and_exits_2(self, tasks, tmp_path, capsys):
        from repro.cli import main

        p = tmp_path / "dump.npz"
        save_tasks(p, tasks)
        _corrupt(p, read_offsets=_set(1, -5))
        assert main(["localassm", str(p), "--mode", "cpu"]) == 2
        assert "error: read_offsets must be non-decreasing" in capsys.readouterr().err


class TestCliIntegration:
    def test_dump_and_localassm_commands(self, tmp_path):
        from repro.cli import main

        data = tmp_path / "d"
        rc = main([
            "generate", "--out", str(data), "--genomes", "2",
            "--genome-length", "5000", "--pairs", "400", "--seed", "9",
        ])
        assert rc == 0
        dump = tmp_path / "la.npz"
        rc = main([
            "dump-localassm", str(data / "reads.fastq"), "--out", str(dump),
        ])
        assert rc == 0 and dump.exists()
        rc = main(["localassm", str(dump), "--mode", "cpu"])
        assert rc == 0
