"""Blind user identification and frame synchronization from channel activity.

The receiver sees only the per-slot activity symbol (idle / one sender /
collision).  A candidate sequence is *matched* at a start slot when every
one of its ones falls on a non-idle symbol in the following period.  The
detector keeps each potential user's start (generators 1..p-1; generator 0
is never assigned because its autocorrelation is too forgiving), None
while the user is idle, and sets it per the matching rule: an idle user
that matches at t0 becomes active with start t0; an active user is
re-examined only at whole-period boundaries of its own start and is
dropped on the first failed match.

With the modified variant, identification is provably reliable when the
period is long enough relative to p^2 and at most (p+1)/2 users are active
at once, and ``judge`` returns a run's Verdict against those conditions;
outside them the detector may mistake one user's delayed transmissions for
another user.  The slot layout matrix and the windowed partial
correlations behind them live here too.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import IDLE, Scenario, check_codes
from .core import (
    CrtParams,
    GridPoint,
    Variant,
    crt_inverse,
    generate_sequence,
)

__all__ = [
    "Activated",
    "Deactivated",
    "ActivityDetector",
    "run_detector",
    "GuaranteeLevel",
    "Verdict",
    "sync_guarantee",
    "judge",
    "slot_matrix",
    "partial_cross_correlation",
]


@dataclass(frozen=True, slots=True)  # slots: a long run holds one per session
class Activated:
    user: int
    start: int


@dataclass(frozen=True, slots=True)
class Deactivated:
    user: int
    at: int  # period boundary whose window failed to match


def _as_int(flags: np.ndarray) -> int:
    """The 1-D boolean array as one int whose bit i is flags[i]."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


class ActivityDetector:
    """Blind detector for generators 1..p-1, fed activity symbols in chunks.

    ``push`` takes one symbol or a 1-D array of activity codes.
    A start slot t0 is decided once its window [t0, t0+L) is complete, so the
    detector keeps only the idle flags of the at most L-1 slots from the
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
        # bit i of _idle_slots is set when slot time - _held + i, the oldest
        # undecided start plus i, was idle: idle flags, not busy ones, so
        # that an all-busy stretch is the int 0, on which appends and drops
        # cost O(1)
        self._idle_slots = 0
        self._held = 0
        self._now = 0
        self._next = [0] * len(self.user_ids)
        self.start: dict[int, int | None] = dict.fromkeys(self.user_ids, None)
        # state of the one-symbol path: the idle users, the earliest next
        # start of an active user, and each sequence's ones as the bits of
        # one int
        self._idle = list(range(len(self.user_ids)))
        self._wake = math.inf
        self._masks = [_as_int(np.bincount(offs, minlength=self._L) > 0) for offs in self._offsets]

    @property
    def time(self) -> int:
        """Number of symbols consumed so far."""
        return self._now

    def _matched(self, n: int) -> np.ndarray:
        """matched[k, j]: generator user_ids[k] matches the window that
        starts at held slot j, for the first n held starts.

        The idle flags are read as bytes once, and the bytes at bit shifts
        1..7 are ORs of adjacent shifted bytes; each row ORs, per one d of
        its sequence, the ceil(n/8) bytes of shift d & 7 from byte d >> 3,
        and a start matches where no idle flag was ORed in: (p-1)*q byte
        slices whatever n, plus the 8 shifts, so only chunks of 2q or more
        symbols come here; shorter pushes go one symbol at a time, at most
        p-1 window tests each.  At least n + L - 1 slots are held, so every
        slice is whole; the bits past n are dropped when the rows are
        unpacked."""
        width = -(-n // 8)
        size = -(-self._held // 8) + 1  # a zero byte past the last one for the shifts
        b = np.frombuffer(self._idle_slots.to_bytes(size, "little"), dtype=np.uint8)
        r = np.arange(1, 8, dtype=np.uint8)[:, None]
        shifted = b[:-1] >> r
        shifted |= b[1:] << (8 - r)  # in place: one (7, size) temporary fewer
        shifts = [b[:-1], *shifted]
        idle = np.zeros((len(self._offsets), width), dtype=np.uint8)
        for row, offs in zip(idle, self._offsets.tolist()):
            for d in offs:
                row |= shifts[d & 7][d >> 3 : (d >> 3) + width]
        return np.unpackbits(~idle, axis=1, count=n, bitorder="little").view(bool)

    def _flip(self, k: int, t0: int, events: list) -> int:
        """Deactivate an active user k, or activate an idle one, at start t0;
        record the event as (t0, user, event) and return the user's next
        start to examine."""
        u = self.user_ids[k]
        if self.start[u] is not None:
            self.start[u] = None
            events.append((t0, u, Deactivated(u, t0)))
            return t0 + 1
        self.start[u] = t0
        events.append((t0, u, Activated(u, t0)))
        return t0 + self._L

    def _reindex(self) -> None:
        """Recompute the idle users and the wake time after a decision."""
        starts = list(self.start.values())
        self._idle = [k for k, s in enumerate(starts) if s is None]
        self._wake = min((t for t, s in zip(self._next, starts) if s is not None),
                         default=math.inf)

    def push(self, symbols) -> list[Activated | Deactivated]:
        """Consume one symbol (an int) or a 1-D array of codes 0, 1, 2, such
        as ``channel_activity`` returns; return the events they decide,
        ordered by (start, user).  Any other array-like goes through
        ``np.asarray`` and ``check_codes``: a 0-d array or numpy scalar is a
        one-symbol array, and a code outside {0, 1, 2} raises ValueError.

        An idle user that matches at t0 is activated with start t0; an
        active user is re-examined at each whole period after its start and
        deactivated at the first one that fails to match.
        """
        if isinstance(symbols, int) and 0 <= symbols <= 2:
            if symbols == IDLE:
                self._idle_slots |= 1 << self._held
            self._held += 1
            self._now += 1
            if self._held < self._L:
                return []
            return self._decide_one()
        codes = np.asarray(symbols)
        if codes.ndim > 1:
            raise ValueError(f"push takes a symbol or a 1-D array, got shape {codes.shape}")
        check_codes(codes)
        m = codes.size
        if m < 2 * self.params.q:  # see _matched
            return [ev for c in codes.ravel().tolist() for ev in self.push(c)]
        self._idle_slots |= _as_int(codes == IDLE) << self._held
        self._held += m
        self._now += m
        n = self._held - self._L + 1
        if n <= 0:
            return []
        events = self._decide(n)
        self._reindex()
        return [ev for _, _, ev in events]

    def _decide_one(self) -> list[Activated | Deactivated]:
        """Decide the oldest undecided start, whose window of L held slots
        ends with the symbol just pushed, for the users due there: every
        idle user, and each active one at a whole period of its start.

        Slot 0 is a one of every sequence, so an idle start slot matches no
        user; then, and when no user is idle, nothing changes before the
        wake time.  Otherwise user k matches when none of the window's idle
        bits falls on its mask.
        """
        L = self._L
        t = self._now - L
        w = self._idle_slots
        self._idle_slots = w >> 1
        self._held -= 1
        if t < self._wake and (not self._idle or w & 1):
            return []
        masks = self._masks
        flips = [k for k in self._idle if not w & masks[k]]
        if t >= self._wake:
            nxt = self._next
            for k, t0 in enumerate(nxt):
                if t0 == t and self.start[self.user_ids[k]] is not None:
                    if w & masks[k]:
                        flips.append(k)
                    else:
                        nxt[k] = t + L
        events: list = []
        if flips or t >= self._wake:
            for k in sorted(flips):
                self._next[k] = self._flip(k, t, events)
            self._reindex()
        return [ev for _, _, ev in events]

    def _decide(self, n: int) -> list:
        """Decide the n oldest undecided starts for every user.  An active
        user reads its match row at each whole period of its start; an idle
        one skips to its row's next match by argmax, which stops at the
        first True, so the scans of one row cover the chunk once in total."""
        L = self._L
        matched = self._matched(n)
        base = self._now - self._held  # slot of the oldest undecided start
        self._idle_slots >>= n
        self._held -= n
        events: list = []
        for k, (u, row) in enumerate(zip(self.user_ids, matched)):
            j = max(self._next[k] - base, 0)  # an idle user's may be stale
            while j < n:
                if self.start[u] is not None:
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
class Verdict:
    level: GuaranteeLevel
    reason: str | None = None  # why there is no guarantee
    errors: tuple[str, ...] = ()  # a run's errors, in report order
    unjudged: tuple[int, ...] = ()  # ids of the users the run's verdict leaves out

    @property
    def guaranteed(self) -> bool:
        return self.level is not GuaranteeLevel.NONE

    @property
    def violated(self) -> bool:
        return self.guaranteed and bool(self.errors)

    def __str__(self) -> str:
        head = f"guarantee: {self.level.value}" + (f" ({self.reason})" if self.reason else "")
        unjudged = [f"not judged: user {u} (started before slot 0)" for u in self.unjudged]
        return "\n".join([head, *unjudged, *self.errors])


def sync_guarantee(p: int, q: int, active_count: int) -> Verdict:
    """Whether identification and synchronization are provably error-free,
    as a Verdict without errors, for the modified variant (the conditions
    are that variant's) at (p, q) with active_count users active at once."""
    if math.gcd(p, q) != 1:
        raise ValueError("p and q must be coprime")
    cap = (p + 1) // 2
    if active_count > cap:
        return Verdict(GuaranteeLevel.NONE, f"active users {active_count} > (p+1)/2 = {cap}")
    if q > 2 * p * p:
        return Verdict(GuaranteeLevel.GENERAL)
    if q <= p * p:
        return Verdict(GuaranteeLevel.NONE, f"q = {q} <= p^2 = {p * p}")
    if q % p in (1, p - 1):
        return Verdict(GuaranteeLevel.THREE_VALUED)
    return Verdict(
        GuaranteeLevel.NONE, f"q = {q} <= 2p^2 = {2 * p * p} and q mod p not in {{1, p-1}}"
    )


def _peak_active(sc: Scenario) -> int:
    """Most users active at once over the users' phase spans, clipped to
    the simulated horizon; the edges of a long run's many sessions are held
    as int64 pairs, not as Python tuples."""
    spans = np.fromiter((x for user in sc.spans().values() for span in user for x in span),
                        dtype=np.int64).reshape(-1, 2)
    edges = np.minimum(spans[spans[:, 0] < sc.duration], sc.duration).ravel()
    steps = np.resize(np.array([1, -1]), edges.size)
    # by slot, and at equal slots an end sorts before a start
    return int(np.cumsum(steps[np.lexsort((steps, edges))]).max(initial=0))


def _expected_activations(sc: Scenario) -> dict[int, set[int]]:
    """Per judged user: the start slots at which a correct detector must
    activate it, each span's first period boundary at or after slot 0 whose
    window fits in the horizon.  A span that starts before slot 0 off a
    period boundary (a permanent user with offset tau > 0) leaves its user
    out: its previous period fills [0, tau), so the receiver sees a cyclic
    shift of its sequence, which the identification guarantee does not cover."""
    L = sc.params.L
    return {
        uid: {max(a, 0) for a, _ in spans if max(a, 0) + L <= sc.duration}
        for uid, spans in sc.spans().items()
        if all(a >= 0 or a % L == 0 for a, _ in spans)
    }


def judge(sc: Scenario, events: list[Activated | Deactivated]) -> Verdict:
    """The Verdict on the events of a detector run over the scenario: false
    alarms and start errors in event order, then missed detections per user
    in scenario order, by start.  The std variant is guaranteed nothing."""
    expected = _expected_activations(sc)
    user_of = {u.generator: u.user_id for u in sc.users}  # events carry generators
    errors, found = [], set()
    for ev in events:
        if isinstance(ev, Activated):
            user = user_of.get(ev.user)
            if user is None:
                errors.append(f"false alarm: generator {ev.user} activated at {ev.start}")
            elif ev.start in expected.get(user, ()):
                found.add((user, ev.start))
            elif user in expected:
                errors.append(f"start error: user {user} activated at {ev.start}")
    errors += [f"missed detection: user {u} at start {s}"
               for u, starts in expected.items() for s in sorted(starts) if (u, s) not in found]
    if sc.params.variant is Variant.MODIFIED:
        verdict = sync_guarantee(sc.params.p, sc.params.q, _peak_active(sc))
    else:
        verdict = Verdict(GuaranteeLevel.NONE, "std variant: proven for the mod variant only")
    unjudged = tuple(u.user_id for u in sc.users if u.user_id not in expected)
    return replace(verdict, errors=tuple(errors), unjudged=unjudged)


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
