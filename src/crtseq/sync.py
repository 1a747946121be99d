"""Blind user identification and frame synchronization from channel activity.

The receiver sees only the per-slot activity symbol (idle / one sender /
collision).  A candidate sequence is *matched* at a start slot when every
one of its ones falls on a non-idle symbol in the following period.  The
detector keeps one boolean per potential user (generators 1..p-1; generator
0 is never assigned because its autocorrelation is too forgiving) and flips
it per the matching rule: an idle user that matches at t0 becomes active
with start t0; an active user is re-examined only at whole-period
boundaries of its own start and is dropped on the first failed match.

Identification is provably reliable when the period is long enough
relative to p^2 and at most (p+1)/2 users are simultaneously active;
outside those conditions the detector may mistake one user's delayed
transmissions for another user (a documented failure mode that the tests
reproduce).  The supporting machinery - the slot layout matrix, windowed
partial correlations, and the uncovered-ones witness - lives here too.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .channel import IDLE, ActivitySignal
from .core import (
    BinarySequence,
    CrtParams,
    GridPoint,
    Variant,
    crt_inverse,
    crt_map,
    generate_sequence,
)

__all__ = [
    "is_matched",
    "Activated",
    "Deactivated",
    "ActivityDetector",
    "run_detector",
    "GuaranteeLevel",
    "SyncGuarantee",
    "sync_guarantee",
    "slot_matrix",
    "partial_cross_correlation",
    "UncoveredOnes",
    "uncovered_ones",
]


def _codes(signal) -> np.ndarray:
    return signal.codes if isinstance(signal, ActivitySignal) else np.asarray(signal)


def is_matched(signal, seq: BinarySequence, t0: int) -> bool:
    """True iff every one of the sequence sees a non-idle symbol in the
    window [t0, t0 + L)."""
    codes = _codes(signal)
    L = len(seq)
    if t0 < 0 or t0 + L > codes.size:
        raise ValueError(f"window [{t0}, {t0 + L}) not covered by the signal")
    return bool(np.all(codes[t0 + seq.support()] != IDLE))


@dataclass(frozen=True)
class Activated:
    user: int
    start: int


@dataclass(frozen=True)
class Deactivated:
    user: int
    at: int  # period boundary whose window failed to match


# Both ways of matching n starts cost in proportion to (p-1)*q: a gather of
# every (start, one-position) pair also scales with n, while ANDing one
# shifted slice per one-position pays a fixed overhead per slice.  They break
# even near n = 256 whatever p and q; the cut sits lower because the gather
# materializes a (p-1)*q*n index array.
_GATHER_MAX_STARTS = 128


class ActivityDetector:
    """Blind detector for generators 1..p-1, fed activity symbols in chunks.

    ``push`` takes one symbol, a 1-D array of symbols, or an ActivitySignal.
    A start slot t0 is decided once its window [t0, t0+L) is complete, so the
    detector keeps only the busy flags of the at most L-1 slots from the
    oldest undecided start onward, plus each user's next start to examine.
    Any chunking of a signal yields the same events as pushing it at once.
    """

    def __init__(self, params: CrtParams):
        self.params = params
        self.user_ids = list(range(1, params.p))
        # every CRT sequence has weight q, so the supports stack into (p-1, q)
        self._offsets = np.stack([generate_sequence(g, params).support() for g in self.user_ids])
        self._L = params.L
        self._busy = np.zeros(0, dtype=bool)
        self._now = 0
        self._next = dict.fromkeys(self.user_ids, 0)
        self.active: dict[int, bool] = dict.fromkeys(self.user_ids, False)
        self.start: dict[int, int | None] = dict.fromkeys(self.user_ids, None)

    @property
    def time(self) -> int:
        """Number of symbols consumed so far."""
        return self._now

    def _matched(self, busy: np.ndarray, n: int) -> np.ndarray:
        """matched[k, j]: generator user_ids[k] matches the window that
        starts at busy[j], for the first n starts."""
        if n <= _GATHER_MAX_STARTS:
            return busy[self._offsets[:, None, :] + np.arange(n)[:, None]].all(axis=2)
        matched = np.ones((len(self.user_ids), n), dtype=bool)
        for row, offsets in zip(matched, self._offsets):
            for d in offsets:
                row &= busy[d : d + n]
        return matched

    def push(self, symbols) -> list[Activated | Deactivated]:
        """Consume symbols; return the events they decide, ordered by
        (start, user).

        An idle user that matches at t0 is activated with start t0; an
        active user is re-examined at each whole period after its start and
        deactivated at the first one that fails to match.
        """
        codes = np.atleast_1d(_codes(symbols))
        if codes.ndim != 1:
            raise ValueError(f"push takes a symbol or a 1-D array, got shape {codes.shape}")
        busy = np.concatenate((self._busy, codes != IDLE))
        self._now += codes.size
        n = busy.size - self._L + 1
        if n <= 0:
            self._busy = busy
            return []
        matched = self._matched(busy, n)
        self._busy = busy[n:].copy()  # drop the chunk's buffer
        base = self._now - busy.size  # slot of busy[0]: the oldest undecided start
        end = base + n

        L = self._L
        events: list[tuple[int, int, Activated | Deactivated]] = []
        for k, u in enumerate(self.user_ids):
            t0 = self._next[u]
            while t0 < end:
                if self.active[u]:
                    if matched[k, t0 - base]:
                        t0 += L
                        continue
                    events.append((t0, u, Deactivated(u, t0)))
                    self.active[u], self.start[u] = False, None
                    t0 += 1
                else:
                    i = t0 - base  # argmax finds the first match at or after i, if any
                    hit = i + int(matched[k, i:].argmax())
                    if not matched[k, hit]:
                        t0 = end
                        break
                    t0 = base + hit
                    events.append((t0, u, Activated(u, t0)))
                    self.active[u], self.start[u] = True, t0
                    t0 += L
            self._next[u] = t0
        events.sort(key=lambda item: item[:2])
        return [ev for _, _, ev in events]


def run_detector(signal, params: CrtParams) -> list[Activated | Deactivated]:
    """Events of a fresh ActivityDetector pushed the whole signal at once."""
    return ActivityDetector(params).push(signal)


class GuaranteeLevel(enum.Enum):
    GENERAL = "general"            # q > 2p^2, any coprime q
    THREE_VALUED = "three-valued"  # q > p^2 suffices when q = +-1 mod p
    NONE = "none"


@dataclass(frozen=True)
class SyncGuarantee:
    level: GuaranteeLevel
    reason: str | None = None

    @property
    def guaranteed(self) -> bool:
        return self.level is not GuaranteeLevel.NONE


def sync_guarantee(p: int, q: int, active_count: int) -> SyncGuarantee:
    """Whether identification and synchronization are provably error-free
    for the given parameters and number of simultaneously active users."""
    if math.gcd(p, q) != 1:
        raise ValueError("p and q must be coprime")
    cap = (p + 1) // 2
    if q > 2 * p * p and active_count <= cap:
        return SyncGuarantee(GuaranteeLevel.GENERAL)
    if q > p * p and q % p in (1, p - 1) and active_count <= cap:
        return SyncGuarantee(GuaranteeLevel.THREE_VALUED)
    if active_count > cap:
        return SyncGuarantee(GuaranteeLevel.NONE, f"active users {active_count} > (p+1)/2 = {cap}")
    if q <= p * p:
        return SyncGuarantee(GuaranteeLevel.NONE, f"q = {q} <= p^2 = {p * p}")
    if q % p not in (1, p - 1):
        return SyncGuarantee(
            GuaranteeLevel.NONE, f"q = {q} <= 2p^2 = {2 * p * p} and q mod p not in {{1, p-1}}"
        )
    return SyncGuarantee(GuaranteeLevel.NONE, f"q = {q} <= 2p^2 = {2 * p * p}")


def slot_matrix(params: CrtParams) -> np.ndarray:
    """p x q matrix placing slot t at (t mod p, gamma*t mod q).

    Entries are a permutation of 0..pq-1; stepping one column to the right
    adds p (mod pq), so row 0 reads 0, p, 2p, ...  Requires the modified
    variant (the layout is what makes small slot indices occupy short
    horizontal runs).
    """
    if params.variant is not Variant.MODIFIED:
        raise ValueError("slot layout is defined for the modified variant only")
    rows, cols = np.ogrid[: params.p, : params.q]
    return crt_inverse(GridPoint(rows, cols), params)


def partial_cross_correlation(
    g: int,
    h: int,
    shift: GridPoint | tuple[int, int],
    params: CrtParams,
    *,
    band: int | None = None,
) -> int:
    """Overlap of the supports of g and the shifted h, restricted to a
    window: the grid image of the first p^2 slots (band=None), or the p
    consecutive columns starting at ``band``.

    For distinct generators the count never exceeds 2 (for the prefix
    window this needs q > 2p^2).
    """
    if g == h:
        raise ValueError("generators must differ")
    if params.variant is not Variant.MODIFIED:
        raise ValueError("partial correlation windows assume the modified variant")
    p, q = params.p, params.q
    if band is not None and not 0 <= band <= q - p:
        raise ValueError(f"band start {band} outside 0..{q - p}")
    dr, dc = int(shift[0]) % p, int(shift[1]) % q
    # g's point in column c is (g*c, c); the shifted h has a point there
    # iff h*((c - dc) mod q) = g*c - dr (mod p)
    cols = np.arange(q)
    rows = (g * cols) % p
    hits = (h * ((cols - dc) % q)) % p == (rows - dr) % p
    if band is None:
        window = crt_inverse(GridPoint(rows, cols), params) < p * p
    else:
        window = (band <= cols) & (cols < band + p)
    return int(np.count_nonzero(hits & window))


@dataclass(frozen=True)
class UncoveredOnes:
    """Ones of a sequence left uncovered by its own acyclic shift, plus the
    witness window whose ones are all uncovered."""

    slots: frozenset[int]
    witness: str  # "prefix" (first p^2 slots) or "band"
    band: int | None = None


def uncovered_ones(g: int, tau: int, params: CrtParams) -> UncoveredOnes:
    """Ones of the generator-g sequence not covered by the sequence delayed
    acyclically by tau (1 <= tau < L).

    The uncovered set always swallows all ones of one verification window:
    either the first p^2 slots or some p-column band.  Which witness
    applies is reported; absence of any witness would disprove the
    detector's soundness argument, so it raises.
    """
    if params.variant is not Variant.MODIFIED:
        raise ValueError("uncovered-ones analysis assumes the modified variant")
    p, q, L = params.p, params.q, params.L
    if q <= 2 * p * p:
        raise ValueError("analysis requires q > 2p^2")
    if not 1 <= tau <= L - 1:
        raise ValueError(f"shift {tau} outside 1..{L - 1}")
    bits = generate_sequence(g, params).bits
    support = np.flatnonzero(bits)
    covered = (support >= tau) & (bits[support - tau] == 1)
    uncovered = frozenset(support[~covered].tolist())

    if not np.any(covered & (support < p * p)):
        return UncoveredOnes(uncovered, "prefix")

    # a band of p columns is a witness when it holds no covered one
    per_col = np.bincount(crt_map(support[covered], params).col, minlength=q)
    in_band = np.convolve(per_col, np.ones(p, dtype=np.int64), mode="valid")
    empty = np.flatnonzero(in_band == 0)
    if empty.size:
        return UncoveredOnes(uncovered, "band", int(empty[0]))
    raise AssertionError(
        f"no witness window for g={g}, tau={tau}: uncovered-ones containment violated"
    )
