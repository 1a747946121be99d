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
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple

import numpy as np

__all__ = [
    "Variant",
    "CrtParams",
    "GridPoint",
    "BinarySequence",
    "crt_map",
    "crt_inverse",
    "generate_sequence",
    "sequence_to_array",
    "format_sequence_entry",
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
    # gamma = p^-1 mod q >= 1 in the modified variant, None in the standard one
    return GridPoint(x % params.p, ((params.gamma or 1) * x) % params.q)


def crt_inverse(pt: GridPoint, params: CrtParams) -> int | np.ndarray:
    """Unique time index in 0..L-1 mapping to the given residue pair; an
    array of indices for a GridPoint of arrays."""
    e_row, e_col = params._units
    x = ((pt.row % params.p) * e_row + (pt.col % params.q) * e_col) % params.L
    return x if np.ndim(x) else int(x)


_BIT_CHARS = np.frombuffer(b"01", dtype=np.uint8)  # ASCII byte of each bit


@dataclass(frozen=True, eq=False)
class BinarySequence:
    """A period-L zero-one schedule.

    Bits are held as a read-only uint8 array.  ``support()`` returns the
    sorted one-positions.
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


@functools.lru_cache(maxsize=32)
def generate_sequence(g: int, params: CrtParams) -> BinarySequence:
    """Protocol sequence of generator g: bit t is one iff the residue pair
    of t lies in the characteristic set {(g*c mod p, c)}.  Weight is always q.

    Memoised per (g, params): a receiver builds the same few sequences for
    every scenario and session, and a BinarySequence's bits are read-only,
    so callers can share one.  The cache holds 32 sequences, L bytes each."""
    if not 0 <= g < params.p:
        raise ValueError(f"generator {g} outside 0..{params.p - 1}")
    cols = np.arange(params.q)
    support = crt_inverse(GridPoint((g * cols) % params.p, cols), params)
    return BinarySequence.from_support(support, params.L)


def sequence_to_array(seq: BinarySequence, params: CrtParams) -> np.ndarray:
    """p x q array view of a sequence; entry at the residue pair of t is s(t)."""
    if len(seq) != params.L:
        raise ValueError(f"sequence length {len(seq)} != p*q = {params.L}")
    rows, cols = crt_map(np.arange(params.L), params)
    arr = np.zeros((params.p, params.q), dtype=np.uint8)
    arr[rows, cols] = seq.bits
    return arr


def format_sequence_entry(params: CrtParams, g: int, seq: BinarySequence) -> str:
    """One entry of the sequence file format: a '# p=.. q=.. variant=.. g=..'
    header line, then the sequence as one ASCII 0/1 line."""
    header = f"# p={params.p} q={params.q} variant={params.variant.value} g={g}"
    return f"{header}\n{seq}\n"
