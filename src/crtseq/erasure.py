"""Erasure-coded sessions over the collision channel.

Once the receiver knows who is active and at which offset, every collision
slot of a user is an erasure at a known codeword position, so a
maximum-distance-separable code across one period's packets recovers the
payload whenever the erasure count stays within the redundancy.

The code is systematic over a characteristic-2 field: a codeword is the
evaluation of the unique degree < D polynomial through the D information
symbols, taken at n fixed distinct field points (the field elements
0..n-1).  Any D unerased symbols re-interpolate the polynomial, which is
exactly the MDS property.  Field arithmetic uses fixed primitive
polynomials per order, documented below bit-exactly.

Encoding and decoding are each one matrix-vector product over the field,
vectorized through the exp/log tables.  The matrix holds barycentric
Lagrange weights, computed once per point set in the log domain: the
parity matrix once per code, the decoding matrix once per erasure pattern.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import CrtParams, Variant, generate_sequence, is_prime

__all__ = [
    "GF",
    "PRIMITIVE_POLYS",
    "session_params",
    "CodeSpec",
    "ErasureCode",
    "DecodeFailure",
    "PayloadError",
    "session_roundtrip",
    "SessionReport",
]

# Primitive polynomial per field order, lowest-weight conventional choices;
# key 2^m maps to the polynomial's bit pattern (x^3 + x + 1 -> 0b1011).
PRIMITIVE_POLYS: dict[int, int] = {
    8: 0b1011,
    16: 0b10011,
    32: 0b100101,
    64: 0b1000011,
    128: 0b10001001,
    256: 0b100011101,
    512: 0b1000010001,
    1024: 0b10000001001,
    2048: 0b100000000101,
    4096: 0b1000001010011,
}


class GF:
    """Finite field of order 2^m via exp/log tables, elements as ints."""

    def __init__(self, order: int):
        if order not in PRIMITIVE_POLYS:
            raise ValueError(f"unsupported field order {order}")
        self.order = order
        poly = PRIMITIVE_POLYS[order]
        exp = np.zeros(2 * (order - 1), dtype=np.int64)
        log = np.zeros(order, dtype=np.int64)
        x = 1
        for i in range(order - 1):
            exp[i] = x
            log[x] = i
            x <<= 1
            if x & order:
                x ^= poly
        if x != 1:
            raise ValueError(f"polynomial {poly:#b} is not primitive for order {order}")
        exp[order - 1 :] = exp[: order - 1]
        exp.flags.writeable = log.flags.writeable = False  # shared by memoised codes
        self._exp, self._log = exp, log

    def lagrange_logs(self, pts: np.ndarray, xs: np.ndarray) -> np.ndarray:
        """Logarithms of the Lagrange weights W[r, i]: the value at xs[r] of
        the basis polynomial that is 1 at pts[i] and 0 at the other points.

        Barycentric form (Berrut & Trefethen, SIAM Review 2004) with
        subtraction as XOR: W[r, i] = l(xs[r]) / ((xs[r] ^ pts[i]) * w_i),
        where l(x) is the product of (x ^ pts[j]) over all j and w_i the
        product of (pts[i] ^ pts[j]) over j != i.  Points are distinct and
        xs is disjoint from pts, so no factor is zero and every weight has
        a logarithm.
        """
        log = self._log
        between = log[pts[:, None] ^ pts[None, :]]
        np.fill_diagonal(between, 0)  # j = i is not a factor of w_i
        to_pts = log[xs[:, None] ^ pts[None, :]]
        logs = to_pts.sum(axis=1)[:, None] - to_pts - between.sum(axis=1)
        return logs % (self.order - 1)

    def log_matvec(self, logs: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Product M @ v over the field for the matrix M with logarithms
        ``logs``: each row XOR-sums exp[log M + log v] over the nonzero
        entries of v (zero has no logarithm and contributes nothing)."""
        nonzero = v != 0
        terms = self._exp[logs[:, nonzero] + self._log[v[nonzero]]]
        return np.bitwise_xor.reduce(terms, axis=1)


def session_params(p: int, k: int) -> CrtParams:
    """Parameters of the erasure-coded session family: the modified
    variant with q = k*p + 1, period p*(k*p + 1).  Requires an odd prime p
    and k >= p."""
    if not is_prime(p) or p < 3:
        raise ValueError("p must be an odd prime")
    if k < p:
        raise ValueError(f"rate parameter k={k} must be at least p={p}")
    return CrtParams(p, k * p + 1, Variant.MODIFIED)


def _field_order_for(n: int) -> int:
    order = 8
    while order < n:
        order *= 2
    if order not in PRIMITIVE_POLYS:
        raise ValueError(f"codeword length {n} exceeds supported field orders")
    return order


@dataclass(frozen=True)
class CodeSpec:
    """Shape of the per-period code: n symbols, dim of them information."""

    n: int
    dim: int
    field_order: int

    def __post_init__(self) -> None:
        if not 1 <= self.dim <= self.n <= self.field_order:
            raise ValueError(f"need 1 <= dim <= n <= field order, got {self}")

    @classmethod
    def for_protocol(cls, p: int, k: int) -> "CodeSpec":
        """One codeword symbol per transmission opportunity in a period of
        ``session_params(p, k)``: n = q, field order the smallest supported
        power of two >= n."""
        return cls._of(session_params(p, k))

    @classmethod
    def _of(cls, params: CrtParams) -> "CodeSpec":
        """for_protocol of params = session_params(p, k), read without
        validating (p, k) again.

        dim = (k*p + k - p + 3) / 2 is the guaranteed number of surviving
        packets per period when (p+1)/2 users are active: each of the other
        (p+1)/2 - 1 users erases at most k + 1 of the q sent packets.  The
        numerator (k - 1)(p + 1) + 4 is even because p is odd.
        """
        p, n = params.p, params.q
        k = n // p  # n = q = k*p + 1
        return cls(n=n, dim=(k * p + k - p + 3) // 2, field_order=_field_order_for(n))

    @property
    def max_erasures(self) -> int:
        return self.n - self.dim


class DecodeFailure(Exception):
    """Too many erasures: recovery is impossible, not silently wrong."""


class PayloadError(ValueError):
    """A session payload that is absent, that names a generator that is not
    active, or that ``ErasureCode.encode`` rejects."""


class ErasureCode:
    """Systematic MDS erasure code: first dim symbols are the information."""

    def __init__(self, spec: CodeSpec):
        self.spec = spec
        self.field = GF(spec.field_order)
        # Parity rows: evaluation of each Lagrange basis polynomial (through
        # the information points 0..dim-1) at the parity points dim..n-1.
        self._parity_logs = self.field.lagrange_logs(
            np.arange(spec.dim), np.arange(spec.dim, spec.n)
        )
        self._parity_logs.flags.writeable = False

    def encode(self, info) -> np.ndarray:
        """The codeword of the information symbols ``info``.  This is the
        one check of symbols to be sent: ValueError unless ``info`` holds
        dim bools or integers in a 1-D array, all in the field."""
        info = np.asarray(info)
        if info.shape != (self.spec.dim,):
            raise ValueError(f"expected {self.spec.dim} symbols in a 1-D array, "
                             f"got shape {info.shape}")
        if info.dtype.kind not in "biu":  # the cast would cut 1.7 to 1, and overflow on 2**70
            raise ValueError(f"symbols must be integers, got dtype {info.dtype}")
        bad = info[(info < 0) | (info >= self.spec.field_order)]  # before a cast can wrap them
        if bad.size:
            raise ValueError(f"symbol {bad[0]} outside GF({self.spec.field_order})")
        info = info.astype(np.int64)
        return np.concatenate([info, self.field.log_matvec(self._parity_logs, info)])

    def decode(self, received, erased) -> np.ndarray:
        """Recover the information symbols from a codeword with erasures.

        ``erased`` is a mask over the n positions, of bools or of the
        integers 0 and 1; erased entries of ``received`` are ignored.
        Raises DecodeFailure when more than n - dim positions are erased,
        and ValueError when ``received`` is not a bool or integer array, the
        mask holds any other value, or an unerased symbol lies outside the
        field.
        """
        received = np.asarray(received)
        erased = np.asarray(erased)
        if received.shape != (self.spec.n,) or erased.shape != (self.spec.n,):
            raise ValueError(f"expected {self.spec.n} symbols and an erasure mask")
        if received.dtype.kind not in "biu":
            raise ValueError(f"symbols must be integers, got dtype {received.dtype}")
        if erased.dtype.kind != "b" and (
            erased.dtype.kind not in "iu" or np.any((erased != 0) & (erased != 1))
        ):
            raise ValueError(f"erasure mask must hold bools or the integers 0 and 1, "
                             f"got {erased.tolist()!r:.60}")
        erased = erased.astype(bool, copy=False)
        received = received.astype(np.int64)
        known = np.flatnonzero(~erased)
        if known.size < self.spec.dim:
            raise DecodeFailure(
                f"{int(erased.sum())} erasures exceed the budget of {self.spec.max_erasures}"
            )
        symbols = received[known]  # at least dim >= 1 of them
        if symbols.min() < 0 or symbols.max() >= self.spec.field_order:
            raise ValueError("received symbols outside the field")
        info = np.where(erased[: self.spec.dim], 0, received[: self.spec.dim])
        missing = np.flatnonzero(erased[: self.spec.dim])
        if missing.size:
            pts = known[: self.spec.dim]
            weights = self.field.lagrange_logs(pts, missing)
            info[missing] = self.field.log_matvec(weights, received[pts])
        return info


@functools.lru_cache(maxsize=16)
def _code(spec: CodeSpec) -> ErasureCode:
    """``ErasureCode(spec)``, memoised per spec as ``generate_sequence`` is
    per generator: a receiver decodes many sessions of the same few shapes,
    and a code's tables are read-only, so sessions can share one."""
    return ErasureCode(spec)


@dataclass(frozen=True)
class SessionReport:
    """Outcome of one session round trip.

    ``info_throughput`` is the guaranteed goodput users * dim / L, reported
    whether or not every user decoded; ``measured_throughput`` is the
    goodput delivered, dim * (users recovered) / L.  ``margins`` holds each
    user's erasure budget n - dim minus its erasures (negative when over).
    """

    spec: CodeSpec
    recovered: dict[int, np.ndarray | None]
    recovered_ok: dict[int, bool]
    erasure_counts: dict[int, int]
    all_recovered: bool
    info_throughput: Fraction
    measured_throughput: Fraction
    margins: dict[int, int]


def session_roundtrip(
    p: int,
    k: int,
    generators: tuple[int, ...],
    offsets: tuple[int, ...],
    payloads: dict[int, np.ndarray] | None = None,
    seed: int = 0,
) -> SessionReport:
    """End-to-end recovery over one period of ``session_params(p, k)``.

    Each active user encodes dim information symbols into q = n packets and
    sends packet j at its j-th transmission opportunity; collisions erase
    packets at positions the receiver knows (offsets are known after
    synchronization).  With at most (p+1)/2 active users every user decodes,
    and the information throughput is exactly users * dim / (p*q).

    This is the one check of given payloads: a generator without one, a
    payload for a generator that is not active, or one that
    ``ErasureCode.encode`` rejects, raises PayloadError naming the generator.
    Without ``payloads``, each generator in turn draws dim symbols from one
    ``random.Random(seed)``: 2*dim bytes read as little-endian uint16 and
    masked to the field, uniform because every supported order divides 2^16.
    """
    params = session_params(p, k)
    if len(generators) != len(offsets):
        raise ValueError("one offset per generator required")
    if len(set(generators)) != len(generators):
        raise ValueError("generators must be distinct")
    if not all(1 <= g < p for g in generators):
        raise ValueError("generators must lie in 1..p-1")
    if len(generators) > (p + 1) // 2:
        raise ValueError(f"at most (p+1)/2 = {(p + 1) // 2} active users are supported")
    bad = [tau for tau in offsets if not 0 <= tau < params.L]
    if bad:
        raise ValueError(f"offset {bad[0]} outside 0..{params.L - 1}")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")

    spec = CodeSpec._of(params)
    code = _code(spec)
    if payloads is None:
        draw = random.Random(seed).randbytes
        payloads = {
            g: np.frombuffer(draw(2 * spec.dim), dtype="<u2") & (spec.field_order - 1)
            for g in generators
        }
    missing = [g for g in generators if g not in payloads]
    if missing:
        raise PayloadError(f"no payload for generator {missing[0]}")
    extra = [g for g in payloads if g not in generators]
    if extra:
        raise PayloadError(f"payload for generator {extra[0]}, which is not active")

    L = params.L
    # j-th one of the schedule (in sequence order) carries codeword symbol j
    slot_lists = {}
    counts = np.zeros(L, dtype=np.int32)
    for g, tau in zip(generators, offsets):
        slots = (generate_sequence(g, params).support() + tau) % L
        slot_lists[g] = slots
        counts[slots] += 1

    recovered: dict[int, np.ndarray | None] = {}
    recovered_ok: dict[int, bool] = {}
    erasure_counts: dict[int, int] = {}
    for g in generators:
        try:
            word = code.encode(payloads[g])
        except ValueError as exc:
            raise PayloadError(f"generator {g}: {exc}") from None
        erased = counts[slot_lists[g]] >= 2
        erasure_counts[g] = int(erased.sum())
        try:
            out = code.decode(np.where(erased, 0, word), erased)
        except DecodeFailure:
            out = None
        recovered[g] = out
        recovered_ok[g] = out is not None and bool(np.array_equal(out, np.asarray(payloads[g])))

    all_ok = all(recovered_ok.values())
    throughput = Fraction(len(generators) * spec.dim, L)
    measured = Fraction(sum(recovered_ok.values()) * spec.dim, L)
    margins = {g: spec.max_erasures - e for g, e in erasure_counts.items()}
    return SessionReport(
        spec, recovered, recovered_ok, erasure_counts, all_ok, throughput, measured, margins
    )
