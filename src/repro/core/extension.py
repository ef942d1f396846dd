"""Shared extension semantics: walk statuses, base classification, k-shift.

Everything here is *pure logic* used identically by the CPU reference
implementation and the simulated GPU kernels, so that the two paths can
only differ in execution strategy, never in assembly results — the
differential tests rely on that.

The k-shift state machine implements §2.3 of the paper:

    "If a fork is encountered k ... is increased or up-shifted and the
    whole process starting from the first step is repeated; in case of a
    dead-end k is downshifted.  The mer walk phase terminates when a fork
    is encountered after downshifting or when a dead-end is met after
    up-shifting."

Longer k disambiguates forks (more context); shorter k bridges dead ends
(more sensitivity).  Once the machine has moved in one direction,
encountering the opposite obstacle means no k can fix both — terminate and
keep whatever extension has accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

__all__ = [
    "WalkStatus",
    "ExtCounts",
    "classify_extension",
    "classify_extensions",
    "KShiftState",
    "kshift_next",
]


class WalkStatus(IntEnum):
    """Why a single mer-walk stopped."""

    RUNOUT = 0   # walked off the known k-mers cleanly (dead end, 0 viable)
    FORK = 1     # two or more viable extension bases
    MAX_LEN = 2  # hit the per-walk step cap
    LOOP = 3     # revisited a k-mer (cycle)


@dataclass(frozen=True)
class ExtCounts:
    """Occurrence tallies for the base following one k-mer.

    ``hi[b]`` counts occurrences whose base quality met the high-quality
    threshold; ``total[b]`` counts all occurrences (b in 0..3 = A,C,G,T).
    """

    hi: tuple[int, int, int, int] = (0, 0, 0, 0)
    total: tuple[int, int, int, int] = (0, 0, 0, 0)

    def merged(self, base: int, is_hi: bool) -> "ExtCounts":
        """A copy with one more observation of *base*."""
        hi = list(self.hi)
        total = list(self.total)
        total[base] += 1
        if is_hi:
            hi[base] += 1
        return ExtCounts(hi=tuple(hi), total=tuple(total))


def classify_extension(
    hi: tuple[int, ...] | list[int],
    total: tuple[int, ...] | list[int],
    min_viable: int = 2,
    dominance_ratio: float = 2.0,
) -> tuple[WalkStatus, int]:
    """Decide the walk step from one k-mer's extension tallies.

    Returns ``(status, base)`` where exactly one of the two is meaningful:

    * ``(None, base)`` — a single viable (or clearly dominant) extension
      base was chosen; the walk appends it and continues;
    * ``(WalkStatus.RUNOUT, -1)`` — no viable base: dead end;
    * ``(WalkStatus.FORK, -1)`` — several viable bases, none dominant.

    A base is *viable* when its high-quality count reaches ``min_viable``;
    if no base qualifies, total counts are consulted at the same threshold
    (low-coverage rescue).  Among multiple viable bases, the top one still
    wins when it leads the runner-up by ``dominance_ratio`` (a lone
    erroneous read should not fork a well-supported path).
    """
    viable = [b for b in range(4) if hi[b] >= min_viable]
    if not viable:
        # Low-coverage fallback: accept total-count support.
        viable = [b for b in range(4) if total[b] >= min_viable]
    if not viable:
        return WalkStatus.RUNOUT, -1
    if len(viable) == 1:
        return None, viable[0]  # type: ignore[return-value]
    # Multiple viable bases: dominant one still wins.
    scored = sorted(viable, key=lambda b: (total[b], hi[b]), reverse=True)
    top, second = scored[0], scored[1]
    if total[top] >= dominance_ratio * total[second] and total[top] > total[second]:
        return None, top  # type: ignore[return-value]
    return WalkStatus.FORK, -1


def classify_extensions(
    hi4: np.ndarray,
    tot4: np.ndarray,
    min_viable: int = 2,
    dominance_ratio: float = 2.0,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`classify_extension` over ``(n, 4)`` tally arrays in one pass.

    Returns ``(status, base)`` int64 arrays: where a base was chosen
    ``status`` is -1 and ``base`` its code; elsewhere ``status`` is the
    :class:`WalkStatus` value (RUNOUT or FORK) and ``base`` is -1.

    Same decisions as the scalar, row for row: viability with the
    total-count fallback, ``(total, hi)`` ranking with the lowest base
    winning ties, and the dominance test in the same float expression.
    """
    hi4 = np.asarray(hi4, dtype=np.int64)
    tot4 = np.asarray(tot4, dtype=np.int64)
    viable = hi4 >= min_viable
    no_hi = ~viable.any(axis=1)
    if no_hi.any():  # low-coverage fallback rows
        viable[no_hi] = tot4[no_hi] >= min_viable
    nv = viable.sum(axis=1)
    key = np.where(viable, (tot4 << 32) + hi4, np.int64(-1))
    top_b = np.argmax(key, axis=1)  # first max == lowest base on ties
    tv = np.where(viable, tot4, np.int64(-1))
    tv.sort(axis=1)
    t1 = tv[:, 3]
    t2 = tv[:, 2]
    dominant = (t1 > t2) & (t1 >= dominance_ratio * t2)
    status = np.full(nv.size, -1, dtype=np.int64)
    status[(nv >= 2) & ~dominant] = int(WalkStatus.FORK)
    status[nv == 0] = int(WalkStatus.RUNOUT)
    return status, np.where(status < 0, top_b, -1)


@dataclass(frozen=True)
class KShiftState:
    """State of the up/down-shift loop for one extension."""

    k: int
    shifted_up: bool = False
    shifted_down: bool = False
    done: bool = False


def kshift_next(
    state: KShiftState,
    status: WalkStatus,
    k_min: int,
    k_max: int,
    k_step: int,
) -> KShiftState:
    """Advance the k-shift machine after a walk ended with *status*.

    Termination cases (``done=True``):

    * LOOP or MAX_LEN — the walk is as long as it can meaningfully be;
    * FORK after having downshifted, or RUNOUT after having upshifted
      (the paper's stated termination rule);
    * the next k would leave ``[k_min, k_max]``.
    """
    if status in (WalkStatus.LOOP, WalkStatus.MAX_LEN):
        return replace(state, done=True)
    if status == WalkStatus.FORK:
        if state.shifted_down:
            return replace(state, done=True)
        new_k = state.k + k_step
        if new_k > k_max:
            return replace(state, done=True)
        return KShiftState(k=new_k, shifted_up=True, shifted_down=state.shifted_down)
    if status == WalkStatus.RUNOUT:
        if state.shifted_up:
            return replace(state, done=True)
        new_k = state.k - k_step
        if new_k < k_min:
            return replace(state, done=True)
        return KShiftState(k=new_k, shifted_up=state.shifted_up, shifted_down=True)
    raise ValueError(f"unexpected walk status: {status!r}")
