"""Reference sequence families for uniformity comparisons.

Two classic low-correlation families serve as baselines: prime sequences
(period p^2, weight p, pairwise correlation at most 2) and their extended
variant obtained by padding p-1 zeros after every one (period p*(2p-1),
weight p, pairwise correlation at most 1).  Both families are 1-uniform,
which is the yardstick the residue-pair construction improves on.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import BinarySequence, is_prime

__all__ = ["BaselineFamily", "prime_sequences", "extended_prime_sequences"]


@dataclass(frozen=True)
class BaselineFamily:
    kind: str  # "prime" or "extended-prime"
    sequences: tuple[BinarySequence, ...]

    @property
    def period(self) -> int:
        return len(self.sequences[0])


def _block_family(kind: str, p: int, width: int) -> BaselineFamily:
    """p sequences of p blocks of the given width; sequence i has its ones
    at j*width + (i*j mod p) for j = 0..p-1."""
    if not is_prime(p):
        raise ValueError("p must be prime")
    seqs = tuple(
        BinarySequence.from_support([j * width + (i * j) % p for j in range(p)], p * width)
        for i in range(p)
    )
    return BaselineFamily(kind, seqs)


def prime_sequences(p: int) -> BaselineFamily:
    """p sequences of period p^2: blocks of width p."""
    return _block_family("prime", p, p)


def extended_prime_sequences(p: int) -> BaselineFamily:
    """Prime sequences with p-1 zeros inserted after every one: each
    length-p block stretches to 2p-1, keeping one one per block."""
    return _block_family("extended-prime", p, 2 * p - 1)
