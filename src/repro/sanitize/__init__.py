"""Compute-sanitizer-style dynamic checkers and static kernel lint.

Dynamic side (:class:`repro.sanitize.sanitizer.Sanitizer`): memcheck
(out-of-bounds / use-after-free), racecheck (conflicting non-atomic lane
accesses between sync points) and initcheck (reads of never-written
device elements), instrumenting the `gpusim` interpreter through hooks in
:class:`~repro.gpusim.warp.Warp` and
:class:`~repro.gpusim.memory.DeviceAllocator`.  A sanitized context
interprets every launch, whatever its engine: the batched engine derives
a kernel's effect in bulk, so the interpreter is the one path whose
accesses are the kernel's own.

Static side (:func:`repro.sanitize.lint.lint_paths`): AST hygiene rules
over kernel source — twin signature/counter parity, banned impure calls,
discarded atomics.  The concurrency checkers of the process-rank era live
next door: :func:`repro.sanitize.concheck.conlint_paths` (segment/claim
lifecycle pairing, fork safety, barrier-abort pairing) and
:mod:`repro.sanitize.rankcheck` (the dynamic vector-clock cross-rank race
detector + segment-leak ledger behind ``sanitize=rankcheck``).

Only the report types are re-exported: a ranked run with
``sanitize=rankcheck`` imports :mod:`~repro.sanitize.rankcheck` through
this package (other ranked runs import none of it), and must not pay for
the two linters and the kernel sanitizer it never calls.
"""

from repro.sanitize.report import (
    MAX_ERRORS,
    SANITIZE_MODES,
    SanitizerError,
    SanitizerReport,
)

__all__ = [
    "MAX_ERRORS",
    "SANITIZE_MODES",
    "SanitizerError",
    "SanitizerReport",
]
