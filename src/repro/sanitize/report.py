"""Structured sanitizer reports (the compute-sanitizer output analogue).

Every defect a dynamic checker finds becomes one :class:`SanitizerError`
naming the checker, the kind of hazard, where it happened on the device
(kernel, contig bin, warp, lane, simulated byte address) and a human
message.  A :class:`SanitizerReport` collects the errors of a context's
lifetime and serialises to JSON so drivers, the CLI and CI can consume
the same artifact.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.core.config import SANITIZE_MODES

__all__ = ["SANITIZE_MODES", "SanitizerError", "SanitizerReport"]

#: errors kept per report; further ones only bump ``n_suppressed`` (real
#: compute-sanitizer caps at 100 reported errors too).
MAX_ERRORS = 100


@dataclass(frozen=True)
class SanitizerError:
    """One detected hazard, located on the simulated device.

    ``lane`` is ``-1`` for warp-cooperative (span) accesses, where no
    single lane owns the operation.  ``address`` is the simulated global
    byte address of the first offending element.
    """

    checker: str  # "memcheck" | "racecheck" | "initcheck"
    kind: str  # e.g. "oob_store", "use_after_free", "race", "uninit_load"
    kernel: str  # launch name active when the hazard fired
    bin: str  # contig bin of the launch ("" if n/a)
    warp: int
    lane: int
    address: int
    message: str
    #: free-form extras (offending element index, other party of a race...)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    def __str__(self) -> str:
        where = f"kernel={self.kernel or '?'}"
        if self.bin:
            where += f" bin={self.bin}"
        return (
            f"[{self.checker}:{self.kind}] {where} warp={self.warp} "
            f"lane={self.lane} addr=0x{self.address:x}: {self.message}"
        )


@dataclass
class SanitizerReport:
    """All errors observed under one sanitizer-enabled context."""

    mode: str
    errors: list[SanitizerError] = field(default_factory=list)
    #: errors beyond the per-report cap (recorded, not materialised)
    n_suppressed: int = 0
    #: accesses inspected — the denominator of the overhead story
    n_checked: int = 0

    @property
    def n_errors(self) -> int:
        return len(self.errors) + self.n_suppressed

    @property
    def clean(self) -> bool:
        return self.n_errors == 0

    def by_checker(self, checker: str) -> list[SanitizerError]:
        return [e for e in self.errors if e.checker == checker]

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "n_errors": self.n_errors,
            "n_suppressed": self.n_suppressed,
            "n_checked": self.n_checked,
            "errors": [e.to_dict() for e in self.errors],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    def summary(self) -> str:
        if self.clean:
            return (
                f"sanitizer ({self.mode}): 0 errors, "
                f"{self.n_checked:,} accesses checked"
            )
        lines = [
            f"sanitizer ({self.mode}): {self.n_errors} error(s), "
            f"{self.n_checked:,} accesses checked"
        ]
        lines.extend(f"  {e}" for e in self.errors)
        if self.n_suppressed:
            lines.append(f"  ... and {self.n_suppressed} more (capped)")
        return "\n".join(lines)
