"""Slot-synchronous collision channel without feedback.

A slot with exactly one transmitter delivers its packet; two or more
transmitters collide and everything in the slot is lost; senders never
learn what happened.  Users follow their zero-one schedule: a user with
delay offset tau transmits at slot t when its sequence has a one at
(t - tau) mod L, so the schedule starts at slot tau.  Session users run
the schedule afresh from each session's start slot; both are [start, end)
phase spans (``Scenario.spans``), and a run is its sorted transmissions,
computed block by block (``simulate_blocks``) so that a long run streams
in bounded memory.

Also hosts the worst-case throughput calculators for the q = k*p - 1
sequence family and the offset-sampling throughput experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .core import CrtParams, Variant, generate_sequence
from .correlation import predicted_cross_range

__all__ = [
    "IDLE",
    "SUCCESS",
    "COLLISION",
    "check_codes",
    "activity_text",
    "UserSpec",
    "Scenario",
    "TraceBlock",
    "ThroughputReport",
    "BLOCK_SLOTS",
    "simulate_blocks",
    "simulate",
    "channel_activity",
    "construction_params",
    "throughput_lower_bound",
    "optimal_user_count",
    "peak_throughput_bound",
    "monte_carlo_throughput",
    "exhaustive_pair_throughput",
    "scenario_from_json",
]

IDLE, SUCCESS, COLLISION = 0, 1, 2
# slots per block of a streamed run: long enough that a detector push and
# the per-block numpy calls amortise, short enough that a block's arrays
# stay a few MiB
BLOCK_SLOTS = 1 << 16
_INT64 = range(-(2**63), 2**63)  # ids and slots become int64 arrays
_SYMBOL_BYTES = np.frombuffer(b"01*", dtype=np.uint8)  # ASCII byte of each code


def check_codes(codes: np.ndarray) -> None:
    """Raise ValueError unless ``codes`` is empty or a bool or integer array
    whose entries are all activity codes (0, 1 or 2)."""
    if codes.size == 0:
        return
    if codes.dtype.kind not in "biu" or not (0 <= codes.min() and codes.max() <= 2):
        raise ValueError("activity codes must be 0, 1 or 2")


def activity_text(codes: np.ndarray) -> str:
    """The activity codes as text: 0 idle, 1 lone sender, * collision."""
    codes = np.asarray(codes)
    check_codes(codes)  # a code of -1 would index to *
    # int8 before indexing: a bool array would select, not index
    return _SYMBOL_BYTES[codes.astype(np.int8, copy=False)].tobytes().decode()


@dataclass(frozen=True)
class UserSpec:
    """One transmitter: either permanently active with a delay offset, or
    active in explicit [start, end) sessions (schedule restarts per session).

    ``offset=None`` on a permanent user means "sample it from the scenario
    seed".  Sessions and offsets are mutually exclusive: a session's start
    slot is its phase.
    """

    user_id: int
    generator: int
    offset: int | None = None
    sessions: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        if self.sessions is not None:
            object.__setattr__(self, "sessions", tuple((int(a), int(b)) for a, b in self.sessions))
            if self.offset is not None:
                raise ValueError(
                    f"user {self.user_id}: offset and sessions are mutually exclusive"
                )


@dataclass(frozen=True)
class Scenario:
    params: CrtParams
    users: tuple[UserSpec, ...]
    duration: int
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "users", tuple(self.users))
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if self.duration not in _INT64:
            raise ValueError(f"duration {self.duration} outside the int64 range")
        if self.seed < 0:
            raise ValueError(f"scenario field 'seed' must be non-negative, got {self.seed}")
        L = self.params.L
        gens = [u.generator for u in self.users]
        if len(set(gens)) != len(gens):
            raise ValueError("users must have distinct generators")
        ids = [u.user_id for u in self.users]
        if len(set(ids)) != len(ids):
            raise ValueError("users must have distinct ids")
        for u in self.users:
            if u.user_id not in _INT64:
                raise ValueError(f"user {u.user_id}: id outside the int64 range")
            sessions = u.sessions or ()
            for prev, (a, b) in zip((None, *sessions), sessions):
                for field, slot in (("start", a), ("end", b)):
                    if slot not in _INT64:
                        raise ValueError(
                            f"user {u.user_id}: session {field} {slot} outside the int64 range"
                        )
                if a < 0:
                    raise ValueError(f"user {u.user_id}: session [{a},{b}) starts before slot 0")
                if b - a < L:
                    raise ValueError(f"user {u.user_id}: session [{a},{b}) "
                                     "shorter than one period")
                if prev and a < prev[0]:
                    raise ValueError(f"user {u.user_id}: sessions out of order: [{a},{b}) "
                                     f"listed after [{prev[0]},{prev[1]})")
                if prev and a - prev[1] < L:
                    raise ValueError(f"user {u.user_id}: inter-session gap below one period")
            if not 0 <= u.generator < self.params.p:
                raise ValueError(
                    f"user {u.user_id}: generator {u.generator} outside 0..{self.params.p - 1}"
                )
            if u.offset is not None and not 0 <= u.offset < L:
                raise ValueError(f"user {u.user_id}: offset {u.offset} outside 0..{L - 1}")

    def resolved_offsets(self) -> dict[int, int]:
        """Offsets per user id, sampling unspecified permanent offsets from
        the scenario seed (in user order, so the draw is reproducible).  The
        Generator, and with it numpy.random, is built only when some
        permanent offset is unspecified."""
        permanent = [u for u in self.users if u.sessions is None]
        drawn = any(u.offset is None for u in permanent)
        rng = np.random.default_rng(self.seed) if drawn else None
        return {
            u.user_id: int(rng.integers(0, self.params.L)) if u.offset is None else u.offset
            for u in permanent
        }

    def spans(self) -> dict[int, tuple[tuple[int, int], ...]]:
        """Each user's [start, end) phase spans, by user id: the schedule
        runs afresh from every span's start.  A session user's spans are its
        sessions; a permanent user with offset tau is the one span
        [tau - L, duration), whose first period covers slots [0, tau)."""
        offsets = self.resolved_offsets()
        return {
            u.user_id: ((offsets[u.user_id] - self.params.L, self.duration),)
            if u.sessions is None
            else u.sessions
            for u in self.users
        }


@dataclass(frozen=True)
class TraceBlock:
    """Slots [lo, lo + len(n_senders)) of a run: ``n_senders[t - lo]``
    counts slot t's transmitters; ``transmission_slot``/``transmission_rank``
    hold the block's every transmission as a (slot, sender rank) pair,
    sorted by slot, then rank; ``ids`` holds every user's id in ascending
    order, so rank r is user ``ids[r]``."""

    lo: int
    n_senders: np.ndarray
    transmission_slot: np.ndarray
    transmission_rank: np.ndarray
    ids: np.ndarray


def _transmission_keys(
    schedules: np.ndarray, L: int, spans: np.ndarray, bits: int, lo: int, hi: int
) -> np.ndarray:
    """Every transmission in [lo, hi) as the key (slot << bits) | rank,
    unsorted.  Row ``rank`` of ``schedules`` holds those keys for the
    schedule run from slot 0; span row (start, end, rank) runs it from its
    start, cut at its end.  One mask picks the spans that meet the block;
    only their periods that meet it expand, in one step, one row of q keys
    per period."""
    start, end, rank = spans[(spans[:, 1] > lo) & (spans[:, 0] < hi)].T
    end = np.minimum(end, hi)
    first = start + np.maximum(lo - start, 0) // L * L  # the first period that meets the block
    periods = -((first - end) // L)  # ceil((end - first) / L) >= 1
    span = np.repeat(np.arange(first.size), periods)  # the span of each period row
    period = np.arange(span.size) - (np.cumsum(periods) - periods)[span]
    keys = ((first[span] + L * period) << bits)[:, None] + schedules[rank[span]]
    # rank < 1 << bits: a key's slot is in [lo, end) iff it is in [lo << bits, end << bits)
    return keys[(keys >= lo << bits) & (keys < (end << bits)[span, None])]


def simulate_blocks(scenario: Scenario, block: int) -> Iterator[TraceBlock]:
    """Run the collision rule over the scenario in blocks of ``block``
    slots: one TraceBlock per [lo, hi), in order, so memory follows the
    block size, not the duration.  Every user's spans sit in one table, and
    each block expands the ones that meet it in one step.  Deterministic
    given the scenario (the seed only feeds unspecified offsets)."""
    if block < 1:
        raise ValueError(f"block must be a positive number of slots, got {block}")
    params, duration, spans = scenario.params, scenario.duration, scenario.spans()
    users = sorted((u.user_id, u.generator) for u in scenario.users)
    ids = np.array([uid for uid, _ in users], dtype=np.int64)
    ids.flags.writeable = False  # one table shared by every block
    table = np.array([(a, b, rank) for rank, (uid, _) in enumerate(users) for a, b in spans[uid]],
                     dtype=np.int64).reshape(-1, 3)
    # each transmission is the key (slot << bits) | rank of its sender's id,
    # so one sort orders a block's transmissions by slot, then id; every CRT
    # sequence has weight q, so the schedules' keys stack into one (M, q) table
    bits = max(len(users) - 1, 0).bit_length()
    schedules = np.array([generate_sequence(g, params).support() << bits | rank
                          for rank, (_, g) in enumerate(users)], dtype=np.int64)
    for lo in range(0, duration, block):
        hi = min(lo + block, duration)
        key = _transmission_keys(schedules, params.L, table, bits, lo, hi)
        key.sort()
        rank = key & ((1 << bits) - 1)
        slot = np.right_shift(key, bits, out=key)
        yield TraceBlock(lo, np.bincount(slot - lo, minlength=hi - lo), slot, rank, ids)


def simulate(scenario: Scenario) -> TraceBlock:
    """The whole run as one block, from slot 0 to the duration."""
    return next(simulate_blocks(scenario, scenario.duration))


def channel_activity(block: TraceBlock) -> np.ndarray:
    """The activity codes of a block's slots, as a 1-D int8 array."""
    return np.minimum(block.n_senders, 2, dtype=np.int8)


# --- worst-case bounds for the q = k*p - 1 family ---


def construction_params(p: int, k: int) -> CrtParams:
    """Parameters of the fixed-duty family: q = k*p - 1, period k*p^2 - p."""
    if k < 1:
        raise ValueError(f"k must be a positive integer, got k={k}")
    return CrtParams(p, k * p - 1)


def throughput_lower_bound(p: int, k: int, m_users: int) -> Fraction:
    """Guaranteed system throughput with m_users active, any delay offsets.

    Each user keeps at least q - (m_users - 1)*(k + 1) of its q packet
    slots, since no other user can overlap it in more than k + 1 slots per
    period.  Clamped at zero.
    """
    params = construction_params(p, k)
    if not 1 <= m_users <= p:
        raise ValueError(f"need 1 <= m_users <= p, got {m_users}")
    per_period = m_users * (params.q - (m_users - 1) * (k + 1))
    return Fraction(max(0, per_period), params.L)


def optimal_user_count(p: int, k: int) -> tuple[Fraction, int]:
    """The real maximizer k*(p+1) / (2*(k+1)) of the per-period bound
    M*(q - (M-1)*(k+1)) over the user count M, and its floor.

    The floor need not be the best integer count: the bound is a parabola
    in M, so the integer nearest the maximizer is best.  At (7, 2) the
    maximizer is 8/3, the floor 2 and the best count 3."""
    construction_params(p, k)  # rejects (p, k) outside the family
    exact = Fraction(k * (p + 1), 2 * (k + 1))
    return exact, math.floor(exact)


def peak_throughput_bound(p: int, k: int) -> Fraction:
    """A lower bound on max over M of throughput_lower_bound(p, k, M), not
    that maximum.

    The completed square k^2 (p+1)^2 / (4(k+1)) is the per-period guarantee
    at the real maximizer; the floored count loses (k+1)*d^2 < k + 1 of it,
    d its distance from the maximizer, so the square less k + 1 successes
    per period lies strictly below the bound at the floored count, and so
    below the maximum: at (37, 2) it is 1435/8103, against 13/73 at M = 13.
    """
    length = construction_params(p, k).L
    return Fraction((p + 1) ** 2, 4 * length) * Fraction(k * k, k + 1) - Fraction(k + 1, length)


# --- sampled and exhaustive throughput over delay offsets ---


@dataclass(frozen=True)
class ThroughputReport:
    """Summary of system throughput over a collection of offset choices."""

    trials: int
    minimum: float
    mean: float
    maximum: float


class _SuccessCounter:
    """One-period success counts of a fixed user set, per offset row.

    Works on each user's L-bit schedule, 64 slots to a uint64 word, so a
    row of offsets is W = ceil(L/64) words per user.  A user with delay
    tau holds slot t when its schedule has a one at t + w, w = (-tau) mod
    L, so its row is the L bits of the repeated schedule from bit w on.
    The per-user table holds that repeated schedule packed at each of the
    8 bit shifts, one row of R = floor((L-1)/8) + 8W bytes per shift
    (about 2L bytes in all); the W words of delay tau are the W
    little-endian uint64 words read from byte (w & 7)*R + (w >> 3), through
    one read-only view with a stride of one byte between windows.  A slot
    succeeds when exactly one user's bit is set in it; the bits past L in
    the last word repeat the schedule and are masked off before counting.
    """

    _BATCH_WORDS = 1 << 15  # lanes per batch (b * W), sized for cache

    def __init__(self, params: CrtParams, generators: tuple[int, ...]):
        L = params.L
        self.params = params
        self.words = -(-L // 64)
        self._row = (L - 1) // 8 + 8 * self.words
        self._tail = np.uint64((1 << (L - 64 * (self.words - 1))) - 1)  # the last word's slots
        self._windows = []
        for g in generators:  # generate_sequence rejects a generator outside 0..p-1
            bits = np.resize(generate_sequence(g, params).bits, 8 * self._row + 7)
            shifted = np.lib.stride_tricks.sliding_window_view(bits, 8 * self._row)[:8]
            table = np.packbits(shifted, axis=1, bitorder="little").ravel()
            # window i is the W words starting at byte i: the last, at byte
            # 8R - 8W, ends at the table's end
            windows = np.ndarray((table.size - 8 * self.words + 1, self.words), dtype="<u8",
                                 buffer=table, strides=(1, 8))
            windows.flags.writeable = False
            self._windows.append(windows)

    def __call__(self, offsets: np.ndarray) -> np.ndarray:
        """Slots with exactly one transmitter; offsets has shape (n, M),
        row i assigning a delay in 0..L-1 to each of the M users."""
        L = self.params.L
        starts = np.array(offsets, dtype=np.int64)  # a copy, worked on in place
        if starts.ndim != 2 or starts.shape[1] != len(self._windows):
            raise ValueError(
                f"offsets must have shape (n, {len(self._windows)}), got {starts.shape}"
            )
        bad = starts[(starts < 0) | (starts >= L)]
        if bad.size:
            raise ValueError(f"offset {bad[0]} outside 0..{L - 1}")
        np.subtract(L, starts, out=starts)
        starts[starts == L] = 0  # w = (-tau) mod L: L - tau, and 0 at tau = 0
        byte = starts >> 3
        starts &= 7
        starts *= self._row
        starts += byte  # in place: byte (w & 7)*R + (w >> 3)
        del byte  # free the byte indices before the batches
        batch = max(1, self._BATCH_WORDS // self.words)
        out = np.empty(starts.shape[0], dtype=np.int64)
        for lo in range(0, starts.shape[0], batch):
            chunk = starts[lo : lo + batch]
            once = np.zeros((chunk.shape[0], self.words), dtype=np.uint64)
            multi = np.zeros_like(once)
            for u, windows in enumerate(self._windows):
                mask = windows[chunk[:, u]]
                multi |= once & mask
                once |= mask
            once &= ~multi
            once[:, -1] &= self._tail
            out[lo : lo + batch] = np.bitwise_count(once).sum(axis=1, dtype=np.int64)
        return out


# offset rows drawn and counted at a time by monte_carlo_throughput: well
# above the counter's batch, as drawing per batch re-maps and faults in the
# batch's arrays afresh each time
_DRAW_ROWS = 4096


def monte_carlo_throughput(
    p: int, k: int, m_users: int, trials: int, seed: int
) -> ThroughputReport:
    """Sample delay offsets i.i.d. uniform over Z_L and measure one-period
    system throughput of generators 1..m_users (all p when m_users = p).

    The offsets are drawn from one Generator in chunks of _DRAW_ROWS rows,
    which yields the same values as one draw of all rows; only each
    trial's success count is kept."""
    params = construction_params(p, k)
    if m_users < 1:
        raise ValueError(f"need at least one user, got m_users={m_users}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got trials={trials}")
    if m_users > p:
        raise ValueError("more users than available sequences")
    generators = tuple(range(1, m_users + 1)) if m_users < p else tuple(range(p))
    count = _SuccessCounter(params, generators)
    rng = np.random.default_rng(seed)
    succ = np.empty(trials, dtype=np.int64)
    for lo in range(0, trials, _DRAW_ROWS):
        rows = min(_DRAW_ROWS, trials - lo)
        succ[lo : lo + rows] = count(rng.integers(0, params.L, size=(rows, len(generators))))
    thr = succ / params.L
    return ThroughputReport(trials, float(thr.min()), float(thr.mean()), float(thr.max()))


def exhaustive_pair_throughput(p: int, k: int, generators: tuple[int, int]) -> ThroughputReport:
    """One-period throughput over all L^2 offset pairs of two users.

    Shift invariance: the pair (tau_a, tau_b) loses 2*C_ab(tau_b - tau_a)
    of its 2q sends, C_ab the cross-correlation, and each relative shift
    occurs for L of the L^2 pairs.  So the extremes come from the range of
    C_ab (``predicted_cross_range``) and the mean from its first moment
    q^2: 2q(L - q)/L^2 = 2(p-1)/p^2, the exact rational rounded once.
    Equal generators raise ValueError.
    """
    params = construction_params(p, k)
    lo, hi = predicted_cross_range(*generators, params)
    q, L = params.q, params.L
    return ThroughputReport(
        L * L, (2 * q - 2 * hi) / L, float(Fraction(2 * (p - 1), p * p)), (2 * q - 2 * lo) / L
    )


# --- scenario file format ---


_JSON_TYPES = {int: "integer", str: "string", list: "array"}
# key tables of the scenario objects: key -> (JSON type, default or ... if required)
_SCENARIO_KEYS = {"p": (int, ...), "q": (int, ...), "variant": (str, "std"),
                  "duration": (int, ...), "seed": (int, 0), "users": (list, ...)}
_USER_KEYS = {"id": (int, ...), "g": (int, ...), "offset": (int, None), "sessions": (list, None)}


def _json_object(obj, where: str, keys: dict[str, tuple[type, object]]) -> dict:
    """Each key of the table ``keys`` mapped to its value in the decoded JSON
    object obj at path ``where``, or to its default if missing or null.  A
    non-object, an unknown key (a misspelled optional field must not read as
    absent), a missing field or a mistyped one (booleans are not integers)
    raises ValueError naming it."""
    if not isinstance(obj, dict):
        raise ValueError(f"scenario {where or 'file'} must be a JSON object, got {obj!r:.60}")
    prefix = f"{where}." if where else ""
    for key in obj:
        if key not in keys:
            raise ValueError(f"scenario field {prefix + key!r} is not one of {', '.join(keys)}")
    fields = {}
    for key, (kind, default) in keys.items():
        value = fields[key] = default if obj.get(key) is None else obj[key]
        if value is ...:
            raise ValueError(f"scenario lacks field {prefix + key!r}")
        # type(default) lets a default through: no decoded value is None or ...
        if type(value) not in (kind, type(default)):
            raise ValueError(f"scenario field {prefix + key!r} must be a JSON "
                             f"{_JSON_TYPES[kind]}, got {value!r:.60}")
    return fields


def _json_sessions(spans: list, where: str) -> tuple[tuple[int, int], ...]:
    for j, span in enumerate(spans):
        if not (type(span) is list and len(span) == 2 and all(type(x) is int for x in span)):
            raise ValueError(
                f"scenario field '{where}.sessions[{j}]' must be a [start, end] "
                f"pair of integers, got {span!r:.60}"
            )
    return tuple((a, b) for a, b in spans)


def scenario_from_json(obj: dict) -> Scenario:
    """Build a scenario from decoded JSON of the schema
    {p, q, variant, duration, seed, users:[{id, g, offset|null, sessions|null}]}.

    Each object is read against its key table: a missing, mistyped or
    unknown field raises ValueError naming it.  A repeated key is the
    decoder's to report: a decoded object holds one.
    """
    top = _json_object(obj, "", _SCENARIO_KEYS)
    params = CrtParams(top["p"], top["q"], Variant.parse(top["variant"]))
    users = []
    for i, u in enumerate(top["users"]):
        where = f"users[{i}]"
        user = _json_object(u, where, _USER_KEYS)
        spans = user["sessions"]
        users.append(UserSpec(user["id"], user["g"], user["offset"],
                              None if spans is None else _json_sessions(spans, where)))
    return Scenario(params, tuple(users), top["duration"], top["seed"])
