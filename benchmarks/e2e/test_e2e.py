"""Process and segment hygiene of the benchmark runner.

Run with ``pytest benchmarks/e2e`` (outside tier-1's ``testpaths``).
"""

from __future__ import annotations

import json
import sys
import textwrap

import pytest
import run
import workloads as wl


def test_lower_quartile_is_second_fastest_of_five():
    assert run.lower_quartile([5.0, 1.0, 9.0, 2.0, 3.0]) == 2.0
    assert run.lower_quartile([4.0, 2.0, 3.0]) == 2.5
    assert run.lower_quartile([7.0]) == 7.0


def test_ranked_child_leaves_no_process_and_no_segment(tmp_path):
    children = run.Children()
    shm_before = run.shm_listing()
    out = children.run(
        [sys.executable, str(run.CHILD), "generate", "--dataset", "even",
         "--seed", "3", "--scale", str(run.CHECK_SCALE), "--out", str(tmp_path)]
    )  # fmt: skip
    assert out.failure is None
    out = children.run(
        [sys.executable, str(run.CHILD), "run",
         "--fastq", str(tmp_path / "reads.fastq"),
         "--config", json.dumps(wl.workload("even_ranks2").config)]
    )  # fmt: skip
    assert out.failure is None
    assert out.data["digest"]
    # the ranks forked, so the resource tracker was in this session too
    assert out.data["minor_faults"] > 0
    assert run.session_pids(children.sessions[-1]) == []
    assert run.shm_listing() == shm_before


def _bench_with_stub_child(tmp_path, monkeypatch, body: str) -> run.Bench:
    """A Bench whose ``child.py`` is replaced by *body*."""
    stub = tmp_path / "stub_child.py"
    stub.write_text(textwrap.dedent(body))
    monkeypatch.setattr(run, "CHILD", stub)
    bench = run.Bench(seed=1, scale=1.0)
    bench.runs["arctic_cpu"] = run.WorkloadRuns(wl.workload("arctic_cpu"))
    bench.setup["arctic"] = []
    return bench


def test_hung_child_is_killed_with_its_session_and_counted(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "RUN_TIMEOUT_S", 1.0)
    bench = _bench_with_stub_child(
        tmp_path,
        monkeypatch,
        """
        import os, time
        if os.fork() == 0:
            time.sleep(60)  # a grandchild in the same session
        time.sleep(60)
        """,
    )
    out = bench.timed("arctic_cpu")
    runs = bench.runs["arctic_cpu"]
    assert "timed out" in out.failure
    assert (runs.attempted, len(runs.failures), runs.samples) == (1, 1, [])
    assert run.session_pids(bench.children.sessions[-1]) == []


def test_child_with_a_different_digest_is_a_failed_run(tmp_path, monkeypatch):
    counter = tmp_path / "calls"
    bench = _bench_with_stub_child(
        tmp_path,
        monkeypatch,
        f"""
        import json, pathlib
        calls = pathlib.Path({str(counter)!r})
        n = int(calls.read_text()) if calls.exists() else 0
        calls.write_text(str(n + 1))
        print(json.dumps({{"digest": "same" if n < 2 else "other", "setup_s": 0.1}}))
        """,
    )
    for _ in range(3):
        bench.timed("arctic_cpu")
    runs = bench.runs["arctic_cpu"]
    assert (runs.attempted, len(runs.samples)) == (3, 2)
    assert runs.failures == ["output digest differs from the workload's other runs"]


def test_child_that_leaves_a_segment_is_a_failed_run(tmp_path):
    if not run.SHM.is_dir():
        pytest.skip("no /dev/shm on this platform")
    shm_before = run.shm_listing()
    leak = (
        "from multiprocessing import shared_memory, resource_tracker\n"
        "s = shared_memory.SharedMemory(create=True, size=64)\n"
        "resource_tracker.unregister(s._name, 'shared_memory')\n"
        "print('{}')\n"
    )
    out = run.Children().run([sys.executable, "-c", leak])
    assert "segment" in out.failure
    assert run.shm_listing() == shm_before  # the runner removed it
