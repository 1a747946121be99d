"""Residue-pair arithmetic and protocol sequence generation.

A sequence of length L = p*q (p prime, q coprime to p) is viewed
interchangeably as a one-dimensional zero-one schedule over Z_L and as a
p x q binary array over Z_p (+) Z_q.  The bridge between the two views is
a bijective residue map; the ``modified`` variant rescales the column
coordinate so that consecutive multiples of p land in consecutive columns,
which is what the blind-synchronization machinery relies on.
"""

from __future__ import annotations

import enum
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "Variant",
    "CrtParams",
    "GridPoint",
    "CharacteristicSet",
    "BinarySequence",
    "crt_map",
    "crt_inverse",
    "characteristic_set",
    "generate_sequence",
    "multi_rate_characteristic_set",
    "points_to_sequence",
    "sequence_to_array",
    "array_to_sequence",
    "SequenceRecord",
    "write_sequence_file",
    "read_sequence_file",
    "is_prime",
]


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (desk-scale inputs)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Variant(enum.Enum):
    """Which residue map produces the column coordinate."""

    STANDARD = "std"   # column = x mod q
    MODIFIED = "mod"   # column = gamma*x mod q, gamma = p^{-1} mod q

    @classmethod
    def parse(cls, text: str) -> "Variant":
        for v in cls:
            if text in (v.value, v.name.lower()):
                return v
        raise ValueError(f"unknown variant {text!r} (expected 'std' or 'mod')")


class GridPoint(NamedTuple):
    """A point of Z_p (+) Z_q: row residue mod p, column residue mod q.

    The fields are ints, or integer arrays of one shape for many points.
    """

    row: int
    col: int


@dataclass(frozen=True)
class CrtParams:
    """Arithmetic context shared by every operation.

    ``gamma`` is derived, not passed: the inverse of p mod q for the
    modified variant, None for the standard one.
    """

    p: int
    q: int
    variant: Variant = Variant.STANDARD
    gamma: int | None = field(init=False, compare=False)
    _col_scale: int = field(init=False, repr=False, compare=False)
    _units: tuple[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not is_prime(self.p) or self.p < 3:
            raise ValueError(f"p must be a prime >= 3, got {self.p}")
        if self.q < 2:
            raise ValueError(f"q must be an integer >= 2, got {self.q}")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"p and q must be coprime, got p={self.p}, q={self.q}")
        modified = self.variant is Variant.MODIFIED
        scale = pow(self.p, -1, self.q) if modified else 1
        object.__setattr__(self, "gamma", scale if modified else None)
        object.__setattr__(self, "_col_scale", scale)
        # slots of the grid points (1, 0) and (0, 1); the inverse map is linear
        object.__setattr__(
            self,
            "_units",
            (self.q * pow(self.q, -1, self.p), self.p * pow(scale * self.p, -1, self.q)),
        )

    @property
    def L(self) -> int:
        """Sequence period."""
        return self.p * self.q


def crt_map(x: int | np.ndarray, params: CrtParams) -> GridPoint:
    """Map a time index in Z_L, or an integer array of them, to its residue
    pair (a GridPoint of arrays for array input).

    The map is bijective and linear: the image of a sum (mod L) is the
    componentwise sum of the images.
    """
    xs = np.asarray(x)
    bad = xs[(xs < 0) | (xs >= params.L)]
    if bad.size:
        raise ValueError(f"index {bad[0]} outside 0..{params.L - 1}")
    return GridPoint(x % params.p, (params._col_scale * x) % params.q)


def crt_inverse(pt: GridPoint, params: CrtParams) -> int | np.ndarray:
    """Unique time index in 0..L-1 mapping to the given residue pair; an
    array of indices for a GridPoint of arrays."""
    e_row, e_col = params._units
    x = ((pt.row % params.p) * e_row + (pt.col % params.q) * e_col) % params.L
    return x if np.ndim(x) else int(x)


@dataclass(frozen=True)
class CharacteristicSet:
    """Support of a protocol sequence as grid points, one per column.

    The points form an arithmetic progression with common difference
    (generator, 1), i.e. {(generator*t mod p, t) : 0 <= t < q}.
    """

    params: CrtParams
    generator: int
    points: frozenset[GridPoint]

    def __post_init__(self) -> None:
        if len(self.points) != self.params.q:
            raise ValueError("characteristic set must contain exactly q points")


def _check_generator(g: int, params: CrtParams) -> None:
    if not 0 <= g < params.p:
        raise ValueError(f"generator {g} outside 0..{params.p - 1}")


def characteristic_set(g: int, params: CrtParams) -> CharacteristicSet:
    """Grid support generated by g: one point in every column."""
    _check_generator(g, params)
    pts = frozenset(GridPoint((g * t) % params.p, t) for t in range(params.q))
    return CharacteristicSet(params, g, pts)


def multi_rate_characteristic_set(g: int, k: int, params: CrtParams) -> frozenset[GridPoint]:
    """Union of k row-shifted copies of the support generated by g.

    Row shifts 0..k-1 are applied, so the resulting schedule has k*q ones
    and duty factor exactly k/p.  k must stay below p, otherwise the
    shifted copies would wrap onto each other.
    """
    if not 1 <= k < params.p:
        raise ValueError(f"rate multiplier k={k} must satisfy 1 <= k < p={params.p}")
    base = characteristic_set(g, params).points
    out: set[GridPoint] = set()
    for j in range(k):
        out.update(GridPoint((pt.row + j) % params.p, pt.col) for pt in base)
    assert len(out) == k * params.q  # translates are disjoint for k < p
    return frozenset(out)


_BIT_CHARS = np.frombuffer(b"01", dtype=np.uint8)  # ASCII byte of each bit


@dataclass(frozen=True, eq=False)
class BinarySequence:
    """A period-L zero-one schedule.

    Bits are held as a read-only uint8 array.  ``support()`` returns the
    sorted one-positions; ``shifted(tau)`` is the cyclic delay by tau,
    i.e. the sequence t -> s(t - tau).
    """

    bits: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ValueError("bits must be one-dimensional")
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("bits must be zero or one")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "bits", arr)

    @classmethod
    def from_string(cls, text: str) -> "BinarySequence":
        return cls(np.frombuffer(text.strip().encode(), dtype=np.uint8) - ord("0"))

    @classmethod
    def from_support(cls, support: Iterable[int], length: int) -> "BinarySequence":
        bits = np.zeros(length, dtype=np.uint8)
        if not isinstance(support, np.ndarray):
            support = np.fromiter(support, dtype=np.int64)
        idx = support.astype(np.int64, copy=False)
        if idx.size and (idx.min() < 0 or idx.max() >= length):
            raise ValueError("support index out of range")
        bits[idx] = 1
        return cls(bits)

    def __len__(self) -> int:
        return int(self.bits.shape[0])

    def __str__(self) -> str:
        return _BIT_CHARS[self.bits].tobytes().decode()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BinarySequence):
            return NotImplemented
        return self.bits.shape == other.bits.shape and bool(np.all(self.bits == other.bits))

    def __hash__(self) -> int:
        return hash(self.bits.tobytes())

    @property
    def weight(self) -> int:
        return int(self.bits.sum())

    @property
    def duty_factor(self) -> Fraction:
        return Fraction(self.weight, len(self))

    def support(self) -> np.ndarray:
        return np.flatnonzero(self.bits)

    def shifted(self, tau: int) -> "BinarySequence":
        return BinarySequence(np.roll(self.bits, tau % len(self)))


def generate_sequence(g: int, params: CrtParams) -> BinarySequence:
    """Protocol sequence of generator g: bit t is one iff the residue pair
    of t lies in the characteristic set {(g*c mod p, c)}.  Weight is always q."""
    _check_generator(g, params)
    cols = np.arange(params.q)
    support = crt_inverse(GridPoint((g * cols) % params.p, cols), params)
    return BinarySequence.from_support(support, params.L)


def points_to_sequence(points: Iterable[GridPoint], params: CrtParams) -> BinarySequence:
    """Schedule whose ones sit at the preimages of the given grid points."""
    pts = np.array(list(points), dtype=np.int64).reshape(-1, 2)
    support = crt_inverse(GridPoint(pts[:, 0], pts[:, 1]), params)
    if np.unique(support).size != support.size:
        raise ValueError("grid points are not distinct")
    return BinarySequence.from_support(support, params.L)


def sequence_to_array(seq: BinarySequence, params: CrtParams) -> np.ndarray:
    """p x q array view of a sequence; entry at the residue pair of t is s(t)."""
    if len(seq) != params.L:
        raise ValueError(f"sequence length {len(seq)} != p*q = {params.L}")
    rows, cols = crt_map(np.arange(params.L), params)
    arr = np.zeros((params.p, params.q), dtype=np.uint8)
    arr[rows, cols] = seq.bits
    return arr


def array_to_sequence(arr: np.ndarray, params: CrtParams) -> BinarySequence:
    """Inverse of ``sequence_to_array``; exact round trip."""
    arr = np.asarray(arr)
    if arr.shape != (params.p, params.q):
        raise ValueError(f"array shape {arr.shape} != ({params.p}, {params.q})")
    rows, cols = crt_map(np.arange(params.L), params)
    return BinarySequence(arr[rows, cols])


# --- sequence file format: one '# p=.. q=.. variant=.. g=..' header line
#     followed by one ASCII 0/1 line per sequence ---

_HEADER_RE = re.compile(r"^#\s*p=(\d+)\s+q=(\d+)\s+variant=(std|mod)\s+g=(\d+)\s*$")


class SequenceRecord(NamedTuple):
    params: CrtParams
    generator: int
    sequence: BinarySequence


def format_sequence_entry(params: CrtParams, g: int, seq: BinarySequence) -> str:
    header = f"# p={params.p} q={params.q} variant={params.variant.value} g={g}"
    return f"{header}\n{seq}\n"


def write_sequence_file(path, records: Iterable[SequenceRecord]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(format_sequence_entry(rec.params, rec.generator, rec.sequence))


def read_sequence_file(path) -> list[SequenceRecord]:
    records = []
    header = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            m = _HEADER_RE.match(line)
            if m:
                if header is not None:
                    raise ValueError(f"line {lineno}: header without sequence line")
                p, q, variant, g = int(m[1]), int(m[2]), m[3], int(m[4])
                header = (CrtParams(p, q, Variant.parse(variant)), g)
            else:
                if header is None:
                    raise ValueError(f"line {lineno}: sequence line without header")
                params, g = header
                seq = BinarySequence.from_string(line)
                if len(seq) != params.L:
                    raise ValueError(f"line {lineno}: expected {params.L} bits, got {len(seq)}")
                records.append(SequenceRecord(params, g, seq))
                header = None
    if header is not None:
        raise ValueError("trailing header without sequence line")
    return records
