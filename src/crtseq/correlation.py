"""Exact Hamming correlation: brute-force spectra and closed-form predictors.

Brute force is the ground truth throughout: a spectrum is the overlap of a
support with the cyclic translate of another, counted directly for every
shift tau.  The closed forms (three-value windows, full shift
distributions, the autocorrelation formula) are predictions that the test
suite checks against the brute-force values with zero tolerance.
One exact-integer kernel counts every spectrum, a single pair's or a batch
of pairs', in chunks of at most 2^16 differences, so its scratch does not
grow with L or the family; epsilon-uniformity is an exact rational, never
a float, read off those counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import BinarySequence, CrtParams, crt_map, generate_sequence

__all__ = [
    "CorrelationSpectrum",
    "CrossParams",
    "UnsupportedParameters",
    "correlation_spectrum",
    "cross_params",
    "predicted_cross_range",
    "reduced_generator",
    "predicted_distribution",
    "predicted_autocorrelation",
    "count_congruent",
    "pairwise_epsilon",
    "epsilon_uniformity",
    "crt_epsilon",
]

# Differences (and counters) per bincount of the one spectrum kernel; bounds
# its scratch memory independently of L and of the family size.
_CHUNK = 1 << 16


class UnsupportedParameters(ValueError):
    """Raised when a closed-form predictor is asked outside its hypotheses."""


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

    @property
    def epsilon(self) -> Fraction:
        """Largest relative deviation of the spectrum from its mean."""
        return _deviation(int(self.values.min()), int(self.values.max()),
                          self.weight_a * self.weight_b, self.length)


def correlation_spectrum(a: BinarySequence, b: BinarySequence) -> CorrelationSpectrum:
    """Exact spectrum for every shift, by direct difference counting.

    The overlap at shift tau is the number of pairs (x, y) in I_a x I_b
    with x - y = tau (mod L), so one pass over all support pairs yields
    the whole spectrum.  The pair is counted by the kernel that epsilon
    uses, in slices of at most 2^16 differences.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    sa, sb = a.support(), b.support()
    values = _count_spectra(sa[None], sb[None], len(a))[0]
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


def predicted_autocorrelation(
    g: int, tau: int | np.ndarray, params: CrtParams
) -> int | np.ndarray:
    """Closed-form autocorrelation of the sequence of generator g at shift
    tau, or at every shift of an integer array (an array of the same shape).

    Generator 0 repeats with period p, so its autocorrelation is q on
    multiples of p and zero elsewhere.  For g != 0 the support is an
    arithmetic progression with step (g, 1); the overlap with its own
    translate is q - k when the translate equals +-k steps, else zero.
    """
    p, q = params.p, params.q
    taus = np.asarray(tau) % params.L
    if g == 0:
        values = np.where(taus % p == 0, q, 0)
    else:
        row, col = crt_map(taus, params)
        back = (q - col) % q
        values = np.where(
            (g * col) % p == row,  # + direction: the translate is col steps forward
            q - col,
            np.where((-g * back) % p == row, q - back, 0),  # - direction
        )
    return values if np.ndim(values) else int(values)


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


def _count_spectra(a_supports: np.ndarray, b_supports: np.ndarray, L: int) -> np.ndarray:
    """(m, L) spectra of the row pairs of the (m, w_a) and (m, w_b) support
    matrices: row i of each is one pair.

    One bincount over pair * L + (x - y mod L) per slice of the a-supports;
    a slice holds at most max(_CHUNK, m * w_b) differences.
    """
    m, w_a = a_supports.shape
    rows = max(1, _CHUNK // max(m * b_supports.shape[1], 1))
    b = b_supports[:, None, :]
    base = np.arange(m).reshape(m, 1, 1) * L
    # counts from 0, not np.zeros, so that epsilon's chunks reuse their blocks
    # (~10x fewer page faults); one slice at least, so that w_a = 0 gives zeros
    counts = 0
    for j in range(0, max(w_a, 1), rows):
        diffs = a_supports[:, j : j + rows, None] - b
        diffs %= L
        diffs += base
        counts += np.bincount(diffs.ravel(), minlength=m * L)
    return counts.reshape(m, L)


def _deviation(lo: int, hi: int, w: int, L: int) -> Fraction:
    """max(hi*L - w, w - lo*L) / w: the largest relative deviation of spectra
    with extremes lo, hi from their mean w / L, w = w_a*w_b."""
    if w == 0:
        raise ValueError("epsilon is undefined for zero-weight sequences")
    return Fraction(max(hi * L - w, w - lo * L), w)


def _epsilon(a_supports: np.ndarray, b_supports: np.ndarray, L: int) -> Fraction:
    """Largest relative deviation (``_deviation``) over the row pairs, all
    of weights (w_a, w_b).  The pairs are counted in chunks of at most
    _CHUNK differences and _CHUNK counters, each reduced to its extremes
    before the next."""
    n = a_supports.shape[0]
    w = a_supports.shape[1] * b_supports.shape[1]
    pairs = max(1, _CHUNK // max(w, L))
    lo, hi = w, 0
    for start in range(0, n, pairs):
        counts = _count_spectra(
            a_supports[start : start + pairs], b_supports[start : start + pairs], L
        )
        lo, hi = min(lo, int(counts.min())), max(hi, int(counts.max()))
    return _deviation(lo, hi, w, L)


def pairwise_epsilon(a: BinarySequence, b: BinarySequence) -> Fraction:
    """Largest relative deviation of the pair's correlation from its
    shift-averaged mean, as an exact rational."""
    return correlation_spectrum(a, b).epsilon


def epsilon_uniformity(sequences: Sequence[BinarySequence]) -> Fraction:
    """Smallest epsilon such that every pair of distinct sequences deviates
    from its mean correlation by at most epsilon relatively.

    Pairs are batched by their weights, one kernel run per weight pair."""
    if len(sequences) < 2:
        raise ValueError("need at least two sequences")
    lengths = {len(s) for s in sequences}
    if len(lengths) != 1:
        raise ValueError("sequences must share a common period")
    (L,) = lengths
    by_weight: dict[int, list[np.ndarray]] = {}
    for s in sequences:
        by_weight.setdefault(s.weight, []).append(s.support())
    groups = [np.stack(supports) for _, supports in sorted(by_weight.items())]
    eps = []
    for i, a in enumerate(groups):
        ia, ib = np.triu_indices(len(a), 1)  # pairs within one weight
        if ia.size:
            eps.append(_epsilon(a[ia], a[ib], L))
        for b in groups[i + 1 :]:  # pairs across two weights
            ia, ib = np.indices((len(a), len(b))).reshape(2, -1)
            eps.append(_epsilon(a[ia], b[ib], L))
    return max(eps)


def crt_epsilon(params: CrtParams) -> Fraction:
    """epsilon_uniformity of the p CRT sequences, from one pair per class.

    The row automorphism (r, c) -> (u*r, c) of Z_p (+) Z_q maps translates
    to translates, so a pair (g, h) has the spectrum of (g*h^-1, 1) up to a
    permutation of the shifts (reduced_generator), and swapping a pair
    reverses its spectrum.  The p - 1 representatives (r, 1), r in
    {0, 2, ..., p-1}, therefore attain every pair's extremes.
    """
    reps = [0, *range(2, params.p)]
    a = np.stack([generate_sequence(r, params).support() for r in reps])
    b = generate_sequence(1, params).support()
    return _epsilon(a, np.broadcast_to(b, (len(reps), b.size)), params.L)
