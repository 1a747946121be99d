"""Exact Hamming correlation: brute-force spectra and closed-form predictors.

Brute force is the ground truth throughout: a spectrum is the overlap of a
support with the cyclic translate of another, counted directly for every
shift tau.  The closed forms (three-value windows, full shift
distributions, the autocorrelation formula) are predictions that the test
suite checks against the brute-force values with zero tolerance.
Epsilon-uniformity is computed as an exact rational, never a float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Sequence

import numpy as np

from .core import BinarySequence, CrtParams, GridPoint, crt_map

__all__ = [
    "CorrelationSpectrum",
    "CrossParams",
    "hamming_correlation",
    "two_d_correlation",
    "correlation_spectrum",
    "cross_params",
    "predicted_cross_range",
    "reduced_generator",
    "predicted_distribution",
    "predicted_autocorrelation",
    "count_congruent",
    "pairwise_epsilon",
    "epsilon_uniformity",
]


class UnsupportedParameters(ValueError):
    """Raised when a closed-form predictor is asked outside its hypotheses."""


def hamming_correlation(a: BinarySequence, b: BinarySequence, tau: int) -> int:
    """Number of slots where a(t) and b(t - tau) are both one (cyclic)."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return int(np.dot(a.bits, np.roll(b.bits, tau % len(b))))


def two_d_correlation(a: np.ndarray, b: np.ndarray, shift: GridPoint | tuple[int, int]) -> int:
    """Overlap count of two arrays with b translated by (row, col) cyclically.

    Compatible with the one-dimensional correlation: translating by the
    residue pair of tau gives the same count as shifting the sequence by tau.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    r, c = int(shift[0]), int(shift[1])
    return int(np.sum(a * np.roll(b, (r, c), axis=(0, 1))))


@dataclass(frozen=True)
class CorrelationSpectrum:
    """All L overlap counts of a sequence pair, plus their histogram."""

    values: np.ndarray
    weight_a: int
    weight_b: int

    @cached_property
    def histogram(self) -> dict[int, int]:
        """Map: overlap value -> number of shifts attaining it (sums to L)."""
        levels, counts = np.unique(self.values, return_counts=True)
        return {int(v): int(c) for v, c in zip(levels, counts)}

    @property
    def length(self) -> int:
        return int(self.values.shape[0])

    @property
    def mean(self) -> Fraction:
        """Shift-averaged correlation, exactly weight_a*weight_b / L."""
        return Fraction(self.weight_a * self.weight_b, self.length)


def correlation_spectrum(a: BinarySequence, b: BinarySequence) -> CorrelationSpectrum:
    """Exact spectrum for every shift, by direct difference counting.

    The overlap at shift tau is the number of pairs (x, y) in I_a x I_b
    with x - y = tau (mod L), so one pass over all support pairs yields
    the whole spectrum.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    L = len(a)
    sa, sb = a.support(), b.support()
    diffs = (sa[:, None] - sb[None, :]) % L
    values = np.bincount(diffs.ravel(), minlength=L)
    return CorrelationSpectrum(values, int(sa.size), int(sb.size))


@dataclass(frozen=True)
class CrossParams:
    """Residue data that determines the cross-correlation window of a
    generator against the reference generator 1.

    quotient/remainder are q divided by p.  window_residue is
    (g-1)^{-1} * remainder mod p; whether it falls below or above
    p - remainder decides which band of three consecutive values the
    cross-correlation occupies.  shift_residue() is the per-shift
    companion quantity: together they reduce the overlap count at a 2-D
    shift to plain congruence counting (see solution_count).
    """

    p: int
    generator: int
    quotient: int
    remainder: int
    window_residue: int

    def shift_residue(self, row_shift: int, col_shift: int) -> int:
        """(g-1)^{-1} * (row_shift - col_shift mod p) reduced mod p, for a
        column shift already reduced into 0..q-1."""
        inv = pow(self.generator - 1, -1, self.p)
        return (inv * (row_shift - col_shift % self.p)) % self.p

    def solution_count(self, row_shift: int, col_shift: int, q: int) -> int:
        """Overlap with the reference sequence at a 2-D shift, computed by
        congruence counting alone: ones collide at column x exactly when
        x = shift_residue (mod p), plus window_residue for the columns that
        wrapped (x < col_shift).  Defined for generators outside {0, 1}."""
        col_shift %= q
        base = self.shift_residue(row_shift, col_shift)
        wrapped = (base + self.window_residue) % self.p
        return count_congruent(0, col_shift, wrapped, self.p) + count_congruent(
            col_shift, q - col_shift, base, self.p
        )


def cross_params(g: int, params: CrtParams) -> CrossParams:
    if not 0 <= g < params.p:
        raise ValueError(f"generator {g} outside 0..{params.p - 1}")
    if g == 1:
        raise ValueError("generator 1 is the reference; its window parameters are undefined")
    p, q = params.p, params.q
    residue = (pow(g - 1, -1, p) * (q % p)) % p
    return CrossParams(
        p=p, generator=g, quotient=q // p, remainder=q % p, window_residue=residue
    )


def reduced_generator(g: int, h: int, p: int) -> int:
    """Reduce the pair (g, h) to an equivalent (g', 1) with the same
    correlation distribution; pairs involving generator 0 reduce to 0."""
    if h == 0 or g == 0:
        return 0
    return (g * pow(h, -1, p)) % p


def predicted_cross_range(g: int, h: int, params: CrtParams) -> tuple[int, int]:
    """Inclusive envelope of achievable cross-correlation values for the
    pair of generators (g, h).

    Pairs involving generator 0 take values in {floor(q/p), floor(q/p)+1}
    for any coprime q.  All other pairs require q > p and occupy one of
    the two three-value windows selected by the window residue.
    """
    p = params.p
    for name, val in (("g", g), ("h", h)):
        if not 0 <= val < p:
            raise ValueError(f"{name}={val} outside 0..{p - 1}")
    if g == h:
        raise ValueError("generators must differ (use predicted_autocorrelation)")
    m = params.q // p
    reduced = reduced_generator(g, h, p)
    if reduced == 0:
        return (m, m + 1)
    if params.q <= p:
        raise UnsupportedParameters("three-value window requires q > p")
    cp = cross_params(reduced, params)
    if cp.window_residue < p - cp.remainder:
        return (m - 1, m + 1)
    return (m, m + 2)


def predicted_distribution(g: int, params: CrtParams) -> dict[int, int]:
    """Exact histogram of the cross-correlation of generator g against the
    reference generator 1, over all p*q shifts.

    Requires q > p.  The histogram always sums to p*q and its first moment
    is q^2.  Zero-count levels are omitted.
    """
    p, q = params.p, params.q
    if q <= p:
        raise UnsupportedParameters("distribution formulas require q > p")
    cp = cross_params(g, params)  # also rejects g == 1
    m, r = cp.quotient, cp.remainder
    if g == 0:
        hist = {m: (p - r) * q, m + 1: r * q}
    elif cp.window_residue < p - r:
        low = m * cp.window_residue * (p - cp.window_residue - r)
        hist = {m - 1: low, m: q * (p - r) - 2 * low, m + 1: q * r + low}
    else:
        high = (m + 1) * (p - cp.window_residue) * (r + cp.window_residue - p)
        hist = {m: q * (p - r) + high, m + 1: q * r - 2 * high, m + 2: high}
    return {j: n for j, n in hist.items() if n != 0}


def predicted_autocorrelation(g: int, tau: int, params: CrtParams) -> int:
    """Closed-form autocorrelation of the sequence of generator g at shift tau.

    Generator 0 repeats with period p, so its autocorrelation is q on
    multiples of p and zero elsewhere.  For g != 0 the support is an
    arithmetic progression with step (g, 1); the overlap with its own
    translate is q - k when the translate equals +-k steps, else zero.
    """
    p, q = params.p, params.q
    tau %= params.L
    if g == 0:
        return q if tau % p == 0 else 0
    pt = crt_map(tau, params)
    k = pt.col  # + direction: the translate is k steps forward
    if (g * k) % p == pt.row:
        return q - k
    k = (q - pt.col) % q  # - direction
    if (-g * k) % p == pt.row:
        return q - k
    return 0


def count_congruent(c: int, d: int, b: int, p: int) -> int:
    """Exact number of x in {c, ..., c+d-1} with x = b (mod p).

    Equals d/p when p divides d, and otherwise floor(d/p) or
    floor(d/p) + 1 depending on where the window starts.
    """
    if d < 0:
        raise ValueError("window length must be nonnegative")
    if d == 0:
        return 0
    first = (b - c) % p
    if first >= d:
        return 0
    return (d - first - 1) // p + 1


def pairwise_epsilon(a: BinarySequence, b: BinarySequence) -> Fraction:
    """Largest relative deviation of the pair's correlation from its
    shift-averaged mean, as an exact rational."""
    if a.weight == 0 or b.weight == 0:
        raise ValueError("epsilon is undefined for zero-weight sequences")
    spec = correlation_spectrum(a, b)
    mean = spec.mean
    lo, hi = int(spec.values.min()), int(spec.values.max())
    dev = max(hi - mean, mean - lo)
    return dev / mean


def epsilon_uniformity(sequences: Sequence[BinarySequence]) -> Fraction:
    """Smallest epsilon such that every pair of distinct sequences deviates
    from its mean correlation by at most epsilon relatively."""
    if len(sequences) < 2:
        raise ValueError("need at least two sequences")
    lengths = {len(s) for s in sequences}
    if len(lengths) != 1:
        raise ValueError("sequences must share a common period")
    return max(pairwise_epsilon(a, b) for a, b in combinations(sequences, 2))
