"""Concurrency-lint tests: the real tree is clean, seeded bugs are not.

Every rule is pinned from both sides: a fixture with exactly one
violation fires exactly that rule, and a clean counterpart fires
nothing — so rule drift (over- or under-matching) breaks a test, not a
CI gate on unrelated code.
"""

from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.sanitize.concheck import CONCURRENCY_RULES, conlint_files, conlint_paths

_PKG = Path(repro.__file__).parent


def _conlint_source(tmp_path, source, name="fixture_conc.py"):
    path = tmp_path / name
    path.write_text(source)
    return conlint_files([path])


# -- seeded-bug fixtures (one violation each) ---------------------------------

LEAKED_NAMED_SEGMENT = '''\
def publish_outbox(token, rank, rows):
    outbox = create_named_shared_array(
        f"repro-{token}-out{rank}", rows.shape, "u8"
    )
    outbox[...] = rows
'''

UNCLOSED_ATTACH = '''\
def peek(name, n):
    box = attach_shared_array(name, (n,), "u8")
    first = int(box[0])
    print(first)
'''

UNRELEASED_CLAIM = '''\
def grab(path):
    claim = ClaimFile(path)
    if not claim.acquire():
        return False
    do_work()
    claim.release()  # not in a finally: a crash in do_work() wedges it
    return True
'''

LOCK_ACROSS_FORK = '''\
def spawn_worker(self):
    with self._lock:
        proc = Process(target=run_worker)
        proc.start()
    return proc
'''

NONDET_RANK_WORKER = '''\
import random


def worker(seed):
    jitter = random.random()
    process(jitter)


def launch(ctx):
    p = ctx.Process(target=worker)
    p.start()
'''

BARRIER_NO_ABORT = '''\
def rank_body(barrier, rows):
    publish(rows)
    barrier.wait(timeout=30.0)
    consume(rows)
'''

BARRIER_NO_TIMEOUT = '''\
def rank_body(barrier, rows):
    try:
        publish(rows)
        barrier.wait()
        consume(rows)
    except Exception:
        barrier.abort()
        raise
'''

# -- clean counterparts -------------------------------------------------------

CLEAN_RANK_BODY = '''\
def rank_body(token, rank, barrier, rows):
    outbox = create_named_shared_array(
        _out_name(token, rank), rows.shape, "u8", token=token
    )
    try:
        outbox[...] = rows
        barrier.wait(timeout=30.0)
        box = None
        try:
            box = attach_shared_array(_out_name(token, 0), rows.shape, "u8")
            consume(box)
        finally:
            if box is not None:
                box.close()
    except Exception:
        barrier.abort()
        raise
'''

CLEAN_CLAIM = '''\
def with_claim(path):
    claim = ClaimFile(path)
    if not claim.acquire():
        return None
    try:
        return do_work()
    finally:
        claim.release()
'''

CLEAN_CLAIM_HANDOFF = '''\
def take(path):
    claim = ClaimFile(path)
    return claim if claim.acquire() else None
'''

CLEAN_REGISTERED_NAME = '''\
def launch(token, n_ranks, shapes):
    for r in range(n_ranks):
        register_launch_segment(token, _out_name(token, r))
    for r in range(n_ranks):
        seg = create_named_shared_array(_out_name(token, r), shapes[r], "u8")
        fill(seg)
'''


class TestSeededBugs:
    """Each seeded fixture fires exactly its own rule, once."""

    @pytest.mark.parametrize(
        "source, rule, needle",
        [
            (LEAKED_NAMED_SEGMENT, "segment-lifecycle", "register_launch_segment"),
            (UNCLOSED_ATTACH, "segment-lifecycle", "close"),
            (UNRELEASED_CLAIM, "claim-lifecycle", "finally"),
            (LOCK_ACROSS_FORK, "lock-across-fork", "deadlock"),
            (NONDET_RANK_WORKER, "rank-nondeterminism", "random"),
            (BARRIER_NO_ABORT, "barrier-abort", "abort"),
            (BARRIER_NO_TIMEOUT, "barrier-abort", "timeout"),
        ],
        ids=[
            "leaked-named-segment",
            "unclosed-attach",
            "unreleased-claim",
            "lock-across-fork",
            "nondet-rank-worker",
            "barrier-no-abort",
            "barrier-no-timeout",
        ],
    )
    def test_fixture_fires_exactly_its_rule(self, tmp_path, source, rule, needle):
        findings = _conlint_source(tmp_path, source)
        assert len(findings) == 1, [str(f) for f in findings]
        (f,) = findings
        assert f.rule == rule
        assert needle in f.message

    def test_rules_are_the_documented_set(self):
        assert set(CONCURRENCY_RULES) == {
            "segment-lifecycle",
            "claim-lifecycle",
            "lock-across-fork",
            "rank-nondeterminism",
            "barrier-abort",
        }


class TestCleanPatterns:
    @pytest.mark.parametrize(
        "source",
        [
            CLEAN_RANK_BODY,
            CLEAN_CLAIM,
            CLEAN_CLAIM_HANDOFF,
            CLEAN_REGISTERED_NAME,
        ],
        ids=[
            "rank-body",
            "claim-finally",
            "claim-handoff",
            "registered-name",
        ],
    )
    def test_clean_pattern_has_no_findings(self, tmp_path, source):
        assert _conlint_source(tmp_path, source) == []


class TestRealTree:
    def test_concurrency_surface_is_clean(self):
        paths = [
            _PKG / "distributed",
            _PKG / "locking.py",
            _PKG / "service",
        ]
        assert conlint_paths(paths) == []

    def test_whole_src_tree_is_clean(self):
        assert conlint_paths([_PKG]) == []


class TestCli:
    def test_lint_concurrency_default_exits_zero(self, capsys):
        assert main(["lint", "--concurrency"]) == 0
        assert "concheck" in capsys.readouterr().out

    def test_lint_concurrency_src_exits_zero(self, capsys):
        assert main(["lint", "--concurrency", str(_PKG)]) == 0

    def test_seeded_bug_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad_claim.py"
        bad.write_text(UNRELEASED_CLAIM)
        assert main(["lint", "--concurrency", str(bad)]) == 1
        captured = capsys.readouterr()
        assert "claim-lifecycle" in captured.out
        assert "1 lint finding" in captured.err

    def test_json_report_matches_sanitizer_schema(self, tmp_path, capsys):
        import json

        bad = tmp_path / "bad_barrier.py"
        bad.write_text(BARRIER_NO_ABORT)
        assert main(["lint", "--concurrency", "--json", str(bad)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {
            "mode", "n_errors", "n_suppressed", "n_checked", "errors",
        }
        assert report["mode"] == "concheck"
        assert report["n_errors"] == 1
        assert report["n_checked"] == 1  # one file linted
        (err,) = report["errors"]
        assert err["checker"] == "concheck"
        assert err["kind"] == "barrier-abort"
        assert err["kernel"].endswith("bad_barrier.py")
        assert err["details"]["line"] == err["warp"]

    def test_kernel_lint_json_uses_same_schema(self, capsys):
        import json

        assert main(["lint", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mode"] == "lint"
        assert report["n_errors"] == 0
        assert report["errors"] == []
