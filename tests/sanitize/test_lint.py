"""Static kernel-lint tests: the real tree is clean, seeded defects are not."""

from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.gpusim.batched import WarpBatch
from repro.gpusim.counters import KernelCounters
from repro.sanitize.lint import _BATCHED_COUNTERS, _COUNTER_FIELDS, lint_files, lint_paths

_PKG = Path(repro.__file__).parent


# -- seeded-defect fixtures ---------------------------------------------------

TWIN_ARG_MISMATCH = '''\
def my_kernel(warp, warp_id, table, out):
    warp.int_op()


def my_kernel_batched(wb, rows, table, result):
    wb.int_op(1, rows, 32)


register_batched(my_kernel, my_kernel_batched)
'''

TWIN_COUNTER_MISMATCH = '''\
def walk_kernel(warp, warp_id, buf):
    warp.global_load(buf, 0)


def walk_kernel_batched(wb, rows, buf):
    wb.int_op(1, rows, 32)


register_batched(walk_kernel, walk_kernel_batched)
'''

BANNED_CALL = '''\
import time


def timed_kernel(warp, warp_id):
    t = time.time()
    warp.int_op()
'''

ATOMIC_DISCARD = '''\
def count_kernel(warp, warp_id, buf, idx):
    warp.atomic_add(buf, idx, 1)
'''

CLEAN_KERNEL = '''\
def good_kernel(warp, warp_id, buf, idx):
    _ = warp.atomic_add(buf, idx, 1)
    old = warp.atomic_cas(buf, idx, 0, 1)
    warp.int_op()
    return old


def good_kernel_batched(wb, rows, buf, idx):
    wb.counters.atomic_inst[rows] += 2
    wb.int_op(1, rows, 32)


register_batched(good_kernel, good_kernel_batched)
'''

#: a derived twin: it accounts every class by writing counter fields
#: directly (attribute or string key), through a helper
DERIVED_TWIN = '''\
def walk_kernel(warp, warp_id, buf, idx):
    _ = warp.atomic_cas(buf, idx, 0, 1)
    warp.global_load(buf, idx)
    warp.global_store(buf, idx, 0)
    warp.int_op()


def _account(wb, rows, acc):
    acc["global_ld_inst"] += 1
    wb.counters.atomic_inst[rows] += 1


def walk_kernel_batched(wb, rows, buf, idx):
    acc = {"global_ld_inst": 0}
    _account(wb, rows, acc)
    wb.store_lane0(buf, idx, 0, rows)
    wb.int_op(1, rows, 32)


register_batched(walk_kernel, walk_kernel_batched)
'''


def _lint_source(tmp_path, source, name="fixture_kernel.py"):
    path = tmp_path / name
    path.write_text(source)
    return lint_files([path])


class TestTwinParity:
    def test_argument_mismatch_flagged(self, tmp_path):
        findings = _lint_source(tmp_path, TWIN_ARG_MISMATCH)
        (f,) = findings
        assert f.rule == "twin-parity"
        assert "launch arguments" in f.message
        assert "result" in f.message

    def test_counter_class_mismatch_flagged(self, tmp_path):
        findings = _lint_source(tmp_path, TWIN_COUNTER_MISMATCH)
        (f,) = findings
        assert f.rule == "twin-parity"
        assert "counter classes" in f.message
        assert "global_ld" in f.message

    def test_matching_twins_clean(self, tmp_path):
        assert _lint_source(tmp_path, CLEAN_KERNEL) == []

    def test_derived_twin_writing_counters_directly_is_clean(self, tmp_path):
        assert _lint_source(tmp_path, DERIVED_TWIN) == []

    def test_derived_twin_omitting_a_class_flagged(self, tmp_path):
        source = DERIVED_TWIN.replace('    acc["global_ld_inst"] += 1\n', "")
        source = source.replace('{"global_ld_inst": 0}', "{}")
        (f,) = _lint_source(tmp_path, source)
        assert f.rule == "twin-parity"
        assert "sequential-only=['global_ld']" in f.message

    def test_batched_counter_map_names_warpbatch_methods(self):
        for name in _BATCHED_COUNTERS:
            assert callable(getattr(WarpBatch, name, None)), name
        for name in _COUNTER_FIELDS:
            assert name in KernelCounters.__dataclass_fields__, name


class TestBannedCalls:
    def test_time_call_in_kernel_flagged(self, tmp_path):
        findings = _lint_source(tmp_path, BANNED_CALL)
        (f,) = findings
        assert f.rule == "banned-call"
        assert "time" in f.message

    def test_time_outside_kernel_is_fine(self, tmp_path):
        source = "import time\n\n\ndef host_helper(batch):\n    return time.time()\n"
        assert _lint_source(tmp_path, source) == []


class TestAtomicDiscard:
    def test_bare_atomic_flagged(self, tmp_path):
        findings = _lint_source(tmp_path, ATOMIC_DISCARD)
        (f,) = findings
        assert f.rule == "atomic-discard"
        assert "atomic_add" in f.message


class TestRealTree:
    def test_kernel_tree_is_clean(self):
        assert lint_paths([_PKG / "core", _PKG / "gpusim"]) == []

    def test_finding_str_has_location(self, tmp_path):
        (f,) = _lint_source(tmp_path, ATOMIC_DISCARD)
        text = str(f)
        assert "fixture_kernel.py" in text
        assert "[atomic-discard]" in text


class TestCli:
    def test_lint_default_tree_exits_zero(self, capsys):
        assert main(["lint"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_seeded_violation_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad_twins.py"
        bad.write_text(TWIN_ARG_MISMATCH)
        assert main(["lint", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "twin-parity" in captured.out
        assert "1 lint finding" in captured.err

    def test_lint_json_output(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad.py"
        bad.write_text(ATOMIC_DISCARD)
        assert main(["lint", str(bad), "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["mode"] == "lint"
        assert payload["n_errors"] == 1
        (err,) = payload["errors"]
        assert err["kind"] == "atomic-discard"
        assert err["details"]["rule"] == "atomic-discard"
        assert err["warp"] == 2  # the finding's line
