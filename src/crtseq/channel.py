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

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import BinarySequence, CrtParams, Variant, crt_map, generate_sequence
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
    "adversarial_min_throughput",
    "scenario_from_json",
    "scenario_to_json",
]

IDLE, SUCCESS, COLLISION = 0, 1, 2
_INT64 = range(-(2**63), 2**63)  # ids and slots become int64 arrays
_SYMBOL_BYTES = np.frombuffer(b"01*", dtype=np.uint8)  # ASCII byte of each code
_CODE_OF_BYTE = np.full(256, -1, dtype=np.int8)  # inverse table; -1 marks a bad byte
_CODE_OF_BYTE[_SYMBOL_BYTES] = (IDLE, SUCCESS, COLLISION)


def check_codes(codes: np.ndarray) -> None:
    """Raise ValueError unless ``codes`` is empty or a bool or integer array
    whose entries are all activity codes (0, 1 or 2)."""
    if codes.size == 0:
        return
    if codes.dtype.kind not in "biu":
        valid = False
    elif codes.ndim == 0:  # one symbol: a Python comparison is cheapest
        valid = 0 <= codes.item() <= 2
    else:
        valid = 0 <= codes.min() and codes.max() <= 2
    if not valid:
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

    @classmethod
    def from_string(cls, text: str) -> "ActivitySignal":
        text = text.strip()
        # a non-ASCII character encodes to bytes >= 0x80, one that cannot be
        # encoded to "?"; both are bad bytes
        codes = _CODE_OF_BYTE[np.frombuffer(text.encode(errors="replace"), dtype=np.uint8)]
        if codes.size and codes.min() < 0:
            at = next(i for i, ch in enumerate(text) if ch not in "01*")
            raise ValueError(f"activity character {text[at]!r} at position {at} is not 0, 1 or *")
        return cls(codes)

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
            for a, b in u.sessions or ():
                for field, slot in (("start", a), ("end", b)):
                    if slot not in _INT64:
                        raise ValueError(
                            f"user {u.user_id}: session {field} {slot} outside the int64 range"
                        )
            if not 0 <= u.generator < self.params.p:
                raise ValueError(f"user {u.user_id}: generator outside 0..p-1")
            if u.offset is not None and not 0 <= u.offset < L:
                raise ValueError(f"user {u.user_id}: offset outside 0..L-1")
            if u.sessions is not None:
                prev_end = None
                for a, b in u.sessions:
                    if a < 0 or b - a < L:
                        raise ValueError(
                            f"user {u.user_id}: session [{a},{b}) shorter than one period"
                        )
                    if prev_end is not None and a - prev_end < L:
                        raise ValueError(
                            f"user {u.user_id}: inter-session gap below one period"
                        )
                    prev_end = b

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

    Works on the p x q array view: every user's support holds one point
    per column, and a delay with residue pair (a, c) moves the point of
    column j to row g*((j - c) mod q) + a.  Each column of a row is a
    p-bit mask of W = ceil(p/64) uint64 words; a per-user table over
    (row shift a, column j' in [0, 2q)) holds the one-hot mask of
    g*(j' mod q) + a, so a delay's q columns are the q*W consecutive
    words starting at column a*2q + q - c.  A slot succeeds when exactly
    one user's bit is set in it.
    """

    _BATCH_WORDS = 1 << 15  # lanes per batch (b * q * W), sized for cache

    def __init__(self, params: CrtParams, generators: tuple[int, ...]):
        p, q = params.p, params.q
        for g in generators:
            if not 0 <= g < p:
                raise ValueError(f"generator {g} outside 0..{p - 1}")
        self.params = params
        self.words = -(-p // 64)
        jp = np.arange(2 * q) % q
        shifts = np.arange(p)[:, None]
        self._windows = []
        for g in generators:
            rows = (g * jp[None, :] + shifts) % p  # (p, 2q)
            table = np.zeros((p, 2 * q, self.words), dtype=np.uint64)
            bits = np.uint64(1) << (rows & 63).astype(np.uint64)
            table[shifts, np.arange(2 * q), rows >> 6] = bits
            # read-only view: window i is the q*W words starting at column i
            windows = np.lib.stride_tricks.sliding_window_view(table.ravel(), q * self.words)
            self._windows.append(windows[:: self.words])

    def __call__(self, offsets: np.ndarray) -> np.ndarray:
        """Slots with exactly one transmitter; offsets has shape (n, M),
        row i assigning a delay to each of the M users."""
        q = self.params.q
        starts, cols = crt_map(np.asarray(offsets, dtype=np.int64), self.params)
        starts *= 2 * q  # in place: column a*2q + q - c of the residue pair (a, c)
        starts += q
        starts -= cols
        del cols  # free the column residues before the batches
        lanes = q * self.words
        batch = max(1, self._BATCH_WORDS // lanes)
        out = np.empty(starts.shape[0], dtype=np.int64)
        for lo in range(0, starts.shape[0], batch):
            chunk = starts[lo : lo + batch]
            once = np.zeros((chunk.shape[0], lanes), dtype=np.uint64)
            multi = np.zeros_like(once)
            for u, windows in enumerate(self._windows):
                mask = windows[chunk[:, u]]
                multi |= once & mask
                once |= mask
            once &= ~multi
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


def adversarial_min_throughput(
    p: int,
    k: int,
    generators: tuple[int, ...],
    restarts: int = 20,
    seed: int = 0,
) -> float:
    """Search for a bad offset combination: random restarts plus greedy
    +-1 coordinate descent on the success count.  Returns the worst
    throughput found (an upper bound on the true worst case)."""
    params = construction_params(p, k)
    if not generators:
        raise ValueError(f"need at least one generator, got {generators!r}")
    if restarts < 1:
        raise ValueError(f"need at least one restart, got restarts={restarts}")
    count = _SuccessCounter(params, generators)
    L = params.L
    m = len(generators)
    rng = np.random.default_rng(seed)
    best = np.inf
    for _ in range(restarts):
        cur = rng.integers(0, L, size=m)
        cur_val = int(count(cur[None, :])[0])
        while True:
            neigh = np.repeat(cur[None, :], 2 * m, axis=0)
            for u in range(m):
                neigh[2 * u, u] = (neigh[2 * u, u] + 1) % L
                neigh[2 * u + 1, u] = (neigh[2 * u + 1, u] - 1) % L
            vals = count(neigh)
            j = int(vals.argmin())
            if vals[j] < cur_val:
                cur, cur_val = neigh[j], int(vals[j])
            else:
                break
        best = min(best, cur_val / L)
    return float(best)


# --- scenario file format ---


_JSON_TYPES = {int: "integer", str: "string", list: "array"}


def _json_field(obj, key: str, where: str, kind: type, required: bool = True):
    """obj[key] checked to be of the JSON-decoded type ``kind`` (so no
    booleans for int); a missing or null optional field reads None.  Any
    defect raises ValueError naming the field."""
    name = f"{where}.{key}" if where else key
    if not isinstance(obj, dict):
        raise ValueError(f"scenario {where or 'file'} must be a JSON object, got {obj!r:.60}")
    value = obj.get(key)
    if value is None:
        if required:
            raise ValueError(f"scenario lacks field {name!r}")
        return None
    if type(value) is not kind:
        raise ValueError(
            f"scenario field {name!r} must be a JSON {_JSON_TYPES[kind]}, got {value!r:.60}"
        )
    return value


def _json_sessions(spans: list, where: str) -> tuple[tuple[int, int], ...]:
    for j, span in enumerate(spans):
        if not (type(span) is list and len(span) == 2 and all(type(x) is int for x in span)):
            raise ValueError(
                f"scenario field '{where}.sessions[{j}]' must be a [start, end] "
                f"pair of integers, got {span!r:.60}"
            )
    return tuple((a, b) for a, b in spans)


def scenario_from_json(obj: dict | str) -> Scenario:
    """Build a scenario from the JSON schema
    {p, q, variant, duration, seed, users:[{id, g, offset|null, sessions|null}]}.

    A missing or mistyped field raises ValueError naming it.
    """
    if isinstance(obj, str):
        obj = json.loads(obj)
    variant = _json_field(obj, "variant", "", str, required=False)
    params = CrtParams(
        _json_field(obj, "p", "", int),
        _json_field(obj, "q", "", int),
        Variant.STANDARD if variant is None else Variant.parse(variant),
    )
    users = []
    for i, u in enumerate(_json_field(obj, "users", "", list)):
        where = f"users[{i}]"
        spans = _json_field(u, "sessions", where, list, required=False)
        users.append(
            UserSpec(
                user_id=_json_field(u, "id", where, int),
                generator=_json_field(u, "g", where, int),
                offset=_json_field(u, "offset", where, int, required=False),
                sessions=None if spans is None else _json_sessions(spans, where),
            )
        )
    seed = _json_field(obj, "seed", "", int, required=False)
    return Scenario(params, tuple(users), _json_field(obj, "duration", "", int), seed or 0)


def scenario_to_json(sc: Scenario) -> dict:
    return {
        "p": sc.params.p,
        "q": sc.params.q,
        "variant": sc.params.variant.value,
        "duration": sc.duration,
        "seed": sc.seed,
        "users": [
            {
                "id": u.user_id,
                "g": u.generator,
                "offset": u.offset,
                "sessions": None if u.sessions is None else [list(s) for s in u.sessions],
            }
            for u in sc.users
        ],
    }
