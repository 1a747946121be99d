"""Slot-synchronous collision channel without feedback.

A slot with exactly one transmitter delivers its packet; two or more
transmitters collide and everything in the slot is lost; senders never
learn what happened.  Users follow their zero-one schedule: a user with
delay offset tau transmits at slot t when its sequence has a one at
(t - tau) mod L, so the schedule starts at slot tau.  Session users run
the schedule afresh from each session's start slot; both are [start, end)
phase spans (``Scenario.spans``), and a run is its sorted transmissions.

Also hosts the worst-case throughput calculators for the q = k*p - 1
sequence family and the offset-sampling throughput experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import BinarySequence, CrtParams, Variant, generate_sequence
from .correlation import correlation_spectrum

__all__ = [
    "IDLE",
    "SUCCESS",
    "COLLISION",
    "ActivitySignal",
    "check_codes",
    "UserSpec",
    "Scenario",
    "ChannelTrace",
    "ThroughputReport",
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
_INT64 = range(-(2**63), 2**63)  # ids and slots become int64 arrays
_SYMBOL_BYTES = np.frombuffer(b"01*", dtype=np.uint8)  # ASCII byte of each code


def check_codes(codes: np.ndarray) -> None:
    """Raise ValueError unless ``codes`` is empty or a bool or integer array
    whose entries are all activity codes (0, 1 or 2)."""
    if codes.size == 0:
        return
    if codes.dtype.kind not in "biu" or not (0 <= codes.min() and codes.max() <= 2):
        raise ValueError("activity codes must be 0, 1 or 2")


class ActivitySignal:
    """Per-slot channel reduction: 0 idle, 1 lone sender, * collision."""

    def __init__(self, codes: np.ndarray):
        codes = np.asarray(codes)
        if codes.ndim != 1:
            raise ValueError(f"activity codes must be a 1-D array, got shape {codes.shape}")
        check_codes(codes)  # before the cast, which would wrap 256 to 0 and cut 1.5 to 1
        self.codes = codes.astype(np.int8)  # a copy, so freezing it leaves the caller's array be
        self.codes.flags.writeable = False

    def __len__(self) -> int:
        return int(self.codes.size)

    def __getitem__(self, t: int) -> int:
        return int(self.codes[t])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActivitySignal):
            return NotImplemented
        return len(self) == len(other) and bool(np.all(self.codes == other.codes))

    def __str__(self) -> str:
        return _SYMBOL_BYTES[self.codes].tobytes().decode()


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
                if a < 0 or b - a < L:
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
        the scenario seed (in user order, so the draw is reproducible)."""
        rng = np.random.default_rng(self.seed)
        return {
            u.user_id: int(rng.integers(0, self.params.L)) if u.offset is None else u.offset
            for u in self.users
            if u.sessions is None
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


@dataclass
class ChannelTrace:
    """Outcome of a simulation run.

    ``n_senders[t]`` counts slot t's transmitters; ``transmission_slot``/``transmission_sender``
    hold every transmission's (slot, user) pair, sorted by slot, then user.
    """

    duration: int
    n_senders: np.ndarray
    transmission_slot: np.ndarray
    transmission_sender: np.ndarray
    sent: dict[int, int]
    succeeded: dict[int, int]

    @property
    def total_successes(self) -> int:
        return int(np.count_nonzero(self.n_senders == 1))

    @property
    def system_throughput(self) -> Fraction:
        return Fraction(self.total_successes, self.duration)


def _transmission_slots(
    seq: BinarySequence, spans: tuple[tuple[int, int], ...], duration: int
) -> np.ndarray:
    """Slots in [0, duration) where a user with this sequence transmits, in
    packet order: each span [a, b) runs the schedule from slot a, cut at b.
    All spans expand in one step, one row of q slots per period."""
    support, L = seq.support(), len(seq)
    # ends clipped in Python, so no int64 below exceeds the horizon
    start = np.array([a for a, _ in spans], dtype=np.int64)
    end = np.array([min(b, duration) for _, b in spans], dtype=np.int64)
    periods = np.maximum(-((start - end) // L), 0)  # ceil((end - start) / L)
    span = np.repeat(np.arange(start.size), periods)  # the span of each period row
    period = np.arange(span.size) - (np.cumsum(periods) - periods)[span]
    slots = (start[span] + L * period)[:, None] + support
    return slots[(slots >= 0) & (slots < end[span, None])]


def simulate(scenario: Scenario) -> ChannelTrace:
    """Run the collision rule over the scenario; deterministic given the
    scenario (the seed only feeds unspecified offsets)."""
    duration, spans = scenario.duration, scenario.spans()
    users = sorted((u.user_id, u.generator) for u in scenario.users)
    m = max(len(users), 1)
    # each transmission is the key (slot << bits) | rank of its sender's id,
    # so one sort orders them by slot, then id
    bits = (m - 1).bit_length()
    key = np.concatenate([np.empty(0, dtype=np.int64)] + [
        _transmission_slots(generate_sequence(g, scenario.params), spans[uid], duration) << bits
        | rank
        for rank, (uid, g) in enumerate(users)
    ])
    key.sort()
    rank = key & ((1 << bits) - 1)
    slot = np.right_shift(key, bits, out=key)
    counts = np.bincount(slot, minlength=duration)
    ids = [uid for uid, _ in users]
    return ChannelTrace(
        duration=duration,
        n_senders=counts,
        transmission_slot=slot,
        transmission_sender=np.array(ids, dtype=np.int64)[rank],
        sent=dict(zip(ids, np.bincount(rank, minlength=m).tolist())),
        succeeded=dict(zip(ids, np.bincount(rank[counts[slot] == 1], minlength=m).tolist())),
    )


def channel_activity(trace: ChannelTrace) -> ActivitySignal:
    return ActivitySignal(np.minimum(trace.n_senders, 2, dtype=np.int8))


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
    """User count maximizing the worst-case bound: the exact maximizer
    k*(p+1) / (2*(k+1)) and its floor."""
    construction_params(p, k)  # rejects (p, k) outside the family
    exact = Fraction(k * (p + 1), 2 * (k + 1))
    return exact, math.floor(exact)


def peak_throughput_bound(p: int, k: int) -> Fraction:
    """Worst-case system throughput bound at the best integer user count.

    Evaluates the completed-square form of the per-period guarantee at the
    floored optimum; flooring costs at most k + 1 successes per period.
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
    64 bit shifts, one row of R = floor((L-1)/64) + W words per shift; the
    W words of delay tau start at word (w & 63)*R + (w >> 6).  A slot
    succeeds when exactly one user's bit is set in it; the bits past L in
    the last word repeat the schedule and are masked off before counting.
    """

    _BATCH_WORDS = 1 << 15  # lanes per batch (b * W), sized for cache

    def __init__(self, params: CrtParams, generators: tuple[int, ...]):
        L = params.L
        self.params = params
        self.words = -(-L // 64)
        self._row = (L - 1) // 64 + self.words
        self._tail = np.uint64((1 << (L - 64 * (self.words - 1))) - 1)  # the last word's slots
        self._windows = []
        for g in generators:  # generate_sequence rejects a generator outside 0..p-1
            bits = np.resize(generate_sequence(g, params).bits, 64 * self._row + 63)
            shifted = np.lib.stride_tricks.sliding_window_view(bits, 64 * self._row)[:64]
            table = np.packbits(shifted, axis=1, bitorder="little").view("<u8").ravel()
            # read-only view: window i is the W words starting at word i
            self._windows.append(np.lib.stride_tricks.sliding_window_view(table, self.words))

    def __call__(self, offsets: np.ndarray) -> np.ndarray:
        """Slots with exactly one transmitter; offsets has shape (n, M),
        row i assigning a delay in 0..L-1 to each of the M users."""
        L = self.params.L
        starts = np.array(offsets, dtype=np.int64)  # a copy, worked on in place
        bad = starts[(starts < 0) | (starts >= L)]
        if bad.size:
            raise ValueError(f"offset {bad[0]} outside 0..{L - 1}")
        np.negative(starts, out=starts)
        starts %= L  # w = (-tau) mod L
        word = starts >> 6
        starts &= 63
        starts *= self._row
        starts += word  # in place: word (w & 63)*R + (w >> 6)
        del word  # free the word indices before the batches
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


def monte_carlo_throughput(
    p: int, k: int, m_users: int, trials: int, seed: int
) -> ThroughputReport:
    """Sample delay offsets i.i.d. uniform over Z_L and measure one-period
    system throughput of generators 1..m_users (all p when m_users = p)."""
    params = construction_params(p, k)
    if m_users < 1:
        raise ValueError(f"need at least one user, got m_users={m_users}")
    if trials < 1:
        raise ValueError(f"need at least one trial, got trials={trials}")
    if m_users > p:
        raise ValueError("more users than available sequences")
    generators = tuple(range(1, m_users + 1)) if m_users < p else tuple(range(p))
    rng = np.random.default_rng(seed)
    offsets = rng.integers(0, params.L, size=(trials, len(generators)))
    succ = _SuccessCounter(params, generators)(offsets)
    thr = succ / params.L
    return ThroughputReport(trials, float(thr.min()), float(thr.mean()), float(thr.max()))


def exhaustive_pair_throughput(p: int, k: int, generators: tuple[int, int]) -> ThroughputReport:
    """One-period throughput over all L^2 offset pairs of two users.

    Shift invariance: the pair (tau_a, tau_b) loses 2*C_ab(tau_b - tau_a)
    slots, C_ab the correlation spectrum, and each relative shift occurs
    for L of the L^2 pairs.  The mean is the exact rational rounded once.
    """
    params = construction_params(p, k)
    a, b = (generate_sequence(g, params) for g in generators)
    spec = correlation_spectrum(a, b)
    L = params.L
    succ = spec.weight_a + spec.weight_b - 2 * spec.values
    return ThroughputReport(
        L * L,
        int(succ.min()) / L,
        float(Fraction(L * int(succ.sum()), L**3)),
        int(succ.max()) / L,
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
