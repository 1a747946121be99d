"""Reference sequence families for uniformity comparisons.

Two classic low-correlation families serve as baselines: prime sequences
(period p^2, weight p) and their extended variant obtained by padding p-1
zeros after every one (period p*(2p-1), weight p).  Both are families of p
sequences of p blocks of width W, W = p or 2p - 1: sequence i has its ones
at j*W + (i*j mod p), j = 0..p-1, so every block holds one one, in one of
its first p columns.  Their cross-correlation levels follow from a direct
count.

Take a pair i != i' and a shift tau = a*W + b, 0 <= b < W, of sequence i'.
Its one in block j', at column y = i'*j' mod p, moves to column y + b of
block j' + a when y + b < W, and to column y + b - W of block j' + a + 1
when y + b >= W.  In the first case it meets sequence i's one only if
y + b < p (i's ones lie in the first p columns) and
(i - i')*j' = b - i*a (mod p); in the second, only if
(i - i')*j' = b - W - i*(a + 1) (mod p).  Each congruence has one solution
j' since i != i', so each case adds at most one overlap.

- Prime (W = p): the levels are 0..2, and both extremes occur for p >= 3.
  The pair (2, 1) overlaps twice at tau = 1: sequence 1's one at p + 1
  moves to column 2 of block 1, and its one at p^2 - 1 wraps to column 0
  of block 0, where sequence 2 has its ones.  Every pair's spectrum sums
  to the weight product p^2 over p^2 shifts, a mean of exactly 1, so the
  shift at 2 forces one at 0.
- Extended (W = 2p - 1): the levels are 0..1, because the first case needs
  b < p and the second b >= W - y >= p, so no shift has both.  Shift 0
  overlaps once (both ones of block 0 sit at column 0), and the mean
  p / (2p - 1) < 1 forces a 0.

So the pair (2, 1) attains both extremes of either family, and since
every pair has the weight product p^2 over the same period, its epsilon
is the family's: ``epsilon`` counts that one pair's spectrum in place of
all C(p, 2).  At p >= 3 both families are 1-uniform, the yardstick that
the residue-pair construction improves on.  p = 2 has no sequence 2, and
its one prime pair (1, 0) overlaps once at every shift, so brute force
gives epsilon 0 there; ``witness`` rejects p < 3.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from . import correlation
from .core import BinarySequence, is_prime

__all__ = ["BaselineFamily", "prime_sequences", "extended_prime_sequences"]


@dataclass(frozen=True)
class BaselineFamily:
    """p sequences of p blocks of width p (prime) or 2p - 1 (extended-prime),
    see the module docstring; the sequences are built on first access."""

    kind: str  # "prime" or "extended-prime"
    p: int

    def __post_init__(self) -> None:
        if self.kind not in ("prime", "extended-prime"):
            raise ValueError(f"unknown baseline kind {self.kind!r}")
        if not is_prime(self.p):
            raise ValueError("p must be prime")

    @property
    def width(self) -> int:
        return self.p if self.kind == "prime" else 2 * self.p - 1

    @property
    def period(self) -> int:
        return self.p * self.width

    def _sequence(self, i: int) -> BinarySequence:
        p, width = self.p, self.width
        return BinarySequence.from_support([j * width + (i * j) % p for j in range(p)], self.period)

    @cached_property
    def sequences(self) -> tuple[BinarySequence, ...]:
        return tuple(self._sequence(i) for i in range(self.p))

    @property
    def witness(self) -> tuple[BinarySequence, BinarySequence]:
        """Sequences 2 and 1, whose spectrum attains the family's extreme
        levels (module docstring)."""
        if self.p < 3:
            raise ValueError(f"the witness pair (2, 1) needs p >= 3, got p={self.p}")
        return self._sequence(2), self._sequence(1)

    @property
    def epsilon(self) -> Fraction:
        """epsilon_uniformity of the family, counted on its witness pair."""
        return correlation.epsilon_uniformity(self.witness)


def prime_sequences(p: int) -> BaselineFamily:
    """p sequences of period p^2: blocks of width p."""
    return BaselineFamily("prime", p)


def extended_prime_sequences(p: int) -> BaselineFamily:
    """Prime sequences with p-1 zeros inserted after every one: each
    length-p block stretches to 2p-1, keeping one one per block."""
    return BaselineFamily("extended-prime", p)
