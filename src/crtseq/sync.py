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

from .channel import IDLE, ActivitySignal, check_codes
from .core import (
    CrtParams,
    GridPoint,
    Variant,
    crt_inverse,
    crt_map,
    generate_sequence,
)

__all__ = [
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


def _as_int(flags: np.ndarray) -> int:
    """The 1-D boolean array as one int whose bit i is flags[i]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


class ActivityDetector:
    """Blind detector for generators 1..p-1, fed activity symbols in chunks.

    ``push`` takes one symbol, a 1-D array of symbols, or an ActivitySignal.
    A start slot t0 is decided once its window [t0, t0+L) is complete, so the
    detector keeps only the busy flags of the at most L-1 slots from the
    oldest undecided start onward, plus each active user's next start to
    examine; an idle user's next start is always the oldest undecided one.
    Any chunking of a signal yields the same events as pushing it at once.
    """

    def __init__(self, params: CrtParams):
        self.params = params
        self.user_ids = list(range(1, params.p))
        # every CRT sequence has weight q, so the supports stack into (p-1, q)
        self._offsets = np.stack([generate_sequence(g, params).support() for g in self.user_ids])
        self._L = params.L
        # busy flags of slots time-(hi-lo) .. time-1 live in _buf[lo:hi].  A
        # chunk is written in place behind them; only when it does not fit
        # do they move to the front of a buffer of max(2L, live + chunk)
        # flags, the old one if it has that size
        self._buf = np.zeros(2 * self._L, dtype=bool)
        self._view = memoryview(self._buf)
        self._lo = self._hi = 0
        self._now = 0
        self._next = [0] * len(self.user_ids)
        self.active: dict[int, bool] = dict.fromkeys(self.user_ids, False)
        self.start: dict[int, int | None] = dict.fromkeys(self.user_ids, None)
        # state of the one-symbol path: the idle users, the earliest next
        # start of an active user, each sequence's ones as the bits of one
        # int, and while some user is idle the busy flags of the last
        # decided window as one int
        self._idle = list(range(len(self.user_ids)))
        self._wake = math.inf
        self._masks = [_as_int(np.bincount(offs, minlength=self._L) > 0) for offs in self._offsets]
        self._w: int | None = None
        self._top = 1 << (self._L - 1)

    @property
    def time(self) -> int:
        """Number of symbols consumed so far."""
        return self._now

    def _matched(self, busy: np.ndarray, n: int) -> np.ndarray:
        """matched[k, j]: generator user_ids[k] matches the window that
        starts at busy[j], for the first n starts."""
        offsets = self._offsets
        if n <= _GATHER_MAX_STARTS:
            return busy[offsets[:, None, :] + np.arange(n)[:, None]].all(axis=2)
        matched = np.ones((len(offsets), n), dtype=bool)
        for row, offs in zip(matched, offsets):
            for d in offs:
                row &= busy[d : d + n]
        return matched

    def _append(self, codes: np.ndarray) -> None:
        """Store the busy flags of a validated chunk behind the live ones."""
        m, live = codes.size, self._hi - self._lo
        if self._hi + m > self._buf.size:
            size = max(2 * self._L, live + m)
            buf = self._buf if size == self._buf.size else np.empty(size, dtype=bool)
            buf[:live] = self._buf[self._lo : self._hi]
            self._buf, self._view, self._lo, self._hi = buf, memoryview(buf), 0, live
        np.not_equal(codes, IDLE, out=self._buf[self._hi : self._hi + m])
        self._hi += m
        self._now += m

    def _flip(self, k: int, t0: int, events: list) -> int:
        """Deactivate an active user k, or activate an idle one, at start t0;
        record the event as (t0, user, event) and return the user's next
        start to examine."""
        u = self.user_ids[k]
        if self.active[u]:
            self.active[u], self.start[u] = False, None
            events.append((t0, u, Deactivated(u, t0)))
            return t0 + 1
        self.active[u], self.start[u] = True, t0
        events.append((t0, u, Activated(u, t0)))
        return t0 + self._L

    def _reindex(self) -> None:
        """Recompute the idle users and the wake time after a decision."""
        users = range(len(self.user_ids))
        self._idle = [k for k in users if not self.active[self.user_ids[k]]]
        self._wake = min((self._next[k] for k in users if self.active[self.user_ids[k]]),
                         default=math.inf)

    def push(self, symbols) -> list[Activated | Deactivated]:
        """Consume symbols; return the events they decide, ordered by
        (start, user).

        An idle user that matches at t0 is activated with start t0; an
        active user is re-examined at each whole period after its start and
        deactivated at the first one that fails to match.
        """
        if not isinstance(symbols, int) and isinstance(symbols, (np.integer, np.bool_)):
            symbols = int(symbols)  # a numpy integer or bool takes the one-symbol path too
        if isinstance(symbols, int) and 0 <= symbols <= 2 and self._hi < self._buf.size:
            busy = symbols != IDLE
            self._view[self._hi] = busy
            self._hi += 1
            self._now += 1
            if self._hi - self._lo < self._L:
                return []
            return self._decide_one(busy)
        if isinstance(symbols, ActivitySignal):
            codes = symbols.codes  # validated on construction
        else:
            codes = np.asarray(symbols)
            if codes.ndim > 1:
                raise ValueError(f"push takes a symbol or a 1-D array, got shape {codes.shape}")
            check_codes(codes)
        self._append(codes)
        self._w = None
        n = self._hi - self._lo - self._L + 1
        if n <= 0:
            return []
        events = self._decide(n)
        self._reindex()
        return [ev for _, _, ev in events]

    def _decide_one(self, busy: bool) -> list[Activated | Deactivated]:
        """Decide the oldest undecided start, whose window ends with the
        symbol just pushed, for the users due there: every idle user, and
        each active one at a whole period of its start.

        Slot 0 is a one of every sequence, so an idle start slot matches no
        user; then, and when no user is idle, nothing changes before the
        wake time.  Otherwise user k matches when the window's busy bits
        cover its mask.
        """
        L, lo = self._L, self._lo
        t = self._now - L
        self._lo = lo + 1
        w = self._w
        if w is not None:  # slide the last decided window by one slot
            w = w >> 1 | self._top if busy else w >> 1
        if t < self._wake and (not self._idle or not self._view[lo]):
            self._w = w
            return []
        if w is None:
            w = _as_int(self._buf[lo : lo + L])
        masks = self._masks
        flips = [k for k in self._idle if w & masks[k] == masks[k]]
        if t >= self._wake:
            nxt = self._next
            for k, t0 in enumerate(nxt):
                if t0 == t and self.active[self.user_ids[k]]:
                    if w & masks[k] == masks[k]:
                        nxt[k] = t + L
                    else:
                        flips.append(k)
        events: list = []
        if flips or t >= self._wake:
            for k in sorted(flips):
                self._next[k] = self._flip(k, t, events)
            self._reindex()
        self._w = w if self._idle else None
        return [ev for _, _, ev in events]

    def _decide(self, n: int) -> list:
        """Decide the n oldest undecided starts for every user.  An active
        user reads its match row at each whole period of its start; an idle
        one skips to its row's next match by argmax, which stops at the
        first True, so the scans of one row cover the chunk once in total."""
        L, lo = self._L, self._lo
        matched = self._matched(self._buf[lo : self._hi], n)
        self._lo = lo + n
        base = self._now - (self._hi - lo)  # slot of the oldest undecided start
        events: list = []
        for k, (u, row) in enumerate(zip(self.user_ids, matched)):
            j = max(self._next[k] - base, 0)  # an idle user's may be stale
            while j < n:
                if self.active[u]:
                    if row[j]:
                        j += L
                        continue
                else:
                    j += int(row[j:].argmax())
                    if not row[j]:  # no match left in the chunk
                        j = n
                        break
                j = self._flip(k, base + j, events) - base
            self._next[k] = base + j
        events.sort(key=lambda item: item[:2])
        return events


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
    detector's soundness argument, so it raises AssertionError.  Generator
    0 repeats with period p and lies outside that argument (ValueError).
    """
    if g == 0:
        raise ValueError("uncovered-ones analysis excludes generator 0")
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
