"""Exact Hamming correlation: brute-force spectra and closed-form predictors.

Brute force is the ground truth throughout: a spectrum is the overlap of a
support with the cyclic translate of another, counted directly for every
shift tau.  The closed forms (three-value windows, picked by one number
per generator, ``window_residue``; full shift distributions; the
autocorrelation formula) are predictions that the test suite checks
against the brute-force values with zero tolerance.
One exact-integer kernel counts every spectrum, a single pair's or a batch
of pairs', in chunks of at most 2^16 differences, so its scratch does not
grow with L or the family; epsilon-uniformity is an exact rational, never
a float, read off those counts, or off the predicted distributions for the
CRT family at any coprime q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .core import BinarySequence, CrtParams, crt_map

__all__ = [
    "CorrelationSpectrum",
    "correlation_spectrum",
    "window_residue",
    "predicted_cross_range",
    "reduced_generator",
    "predicted_distribution",
    "predicted_autocorrelation",
    "epsilon_uniformity",
    "crt_epsilon",
]

# Differences (and counters) per bincount of the one spectrum kernel; bounds
# its scratch memory independently of L and of the family size.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class CorrelationSpectrum:
    """All L overlap counts of a sequence pair, plus their histogram."""

    values: np.ndarray

    @cached_property
    def histogram(self) -> dict[int, int]:
        """Map: overlap value -> number of shifts attaining it (sums to L)."""
        levels, counts = np.unique(self.values, return_counts=True)
        return {int(v): int(c) for v, c in zip(levels, counts)}

    @property
    def epsilon(self) -> Fraction:
        """Largest relative deviation of the spectrum from its mean,
        exactly w_a*w_b / L: every pair of ones meets at exactly one shift,
        so the counts sum to the weight product."""
        return _deviation(int(self.values.min()), int(self.values.max()),
                          int(self.values.sum()), self.values.size)


def correlation_spectrum(a: BinarySequence, b: BinarySequence) -> CorrelationSpectrum:
    """Exact spectrum for every shift, by direct difference counting.

    The overlap at shift tau is the number of pairs (x, y) in I_a x I_b
    with x - y = tau (mod L), so one pass over all support pairs yields
    the whole spectrum.  The pair is counted by the kernel that epsilon
    uses, in slices of at most 2^16 differences.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    values = _count_spectra(a.support()[None], b.support()[None], len(a))[0]
    return CorrelationSpectrum(values)


def window_residue(g: int, params: CrtParams) -> int:
    """(g-1)^-1 * (q mod p) mod p for generator g against the reference
    generator 1: whether it falls below or above p - (q mod p) decides which
    band of three consecutive values the cross-correlation occupies."""
    p = params.p
    if not 0 <= g < p:
        raise ValueError(f"generator {g} outside 0..{p - 1}")
    if g == 1:
        raise ValueError("generator 1 is the reference; its window parameters are undefined")
    return (pow(g - 1, -1, p) * (params.q % p)) % p


def reduced_generator(g: int, h: int, p: int) -> int:
    """Reduce the pair (g, h) to an equivalent (g', 1) with the same
    correlation distribution; pairs involving generator 0 reduce to 0."""
    if h == 0 or g == 0:
        return 0
    return (g * pow(h, -1, p)) % p


def predicted_cross_range(g: int, h: int, params: CrtParams) -> tuple[int, int]:
    """(min, max) of the cross-correlation of the pair of generators (g, h)
    over all shifts: the extreme levels of the predicted distribution of
    the reduced pair, at any coprime q.

    Pairs involving generator 0 take values {floor(q/p), floor(q/p)+1};
    all other pairs occupy one of the two three-value windows selected by
    the window residue, where below p the lower window {-1, 0, 1} has no
    shift at -1.
    """
    p = params.p
    for name, val in (("g", g), ("h", h)):
        if not 0 <= val < p:
            raise ValueError(f"{name}={val} outside 0..{p - 1}")
    if g == h:
        raise ValueError("generators must differ (use predicted_autocorrelation)")
    levels = predicted_distribution(reduced_generator(g, h, p), params)
    return (min(levels), max(levels))


def predicted_distribution(g: int, params: CrtParams) -> dict[int, int]:
    """Exact histogram of the cross-correlation of generator g against the
    reference generator 1, over all p*q shifts.

    Holds at every coprime q.  The histogram always sums to p*q and its
    first moment is q^2.  Zero-count levels are omitted.

    Below p the formulas reduce to m = 0, r = q, and the m - 1 level's
    count m*(...) vanishes.  That they are exact there follows from a
    direct count.  Both residue maps are linear, so a time shift is a
    translation (a, b) of Z_p (+) Z_q, and generator g's support is
    {(g*c mod p, c) : 0 <= c < q} in either variant.  Translate the
    support of generator 1 by (a, b), 0 <= b < q.  Generator g meets it in
    column c iff g*c - a = c' (mod p), where c' = c - b for c >= b and
    c' = c - b + q for c < b.  For g not in {0, 1} each case is one
    congruence in c, and since q < p every column index is its own
    residue mod p, so the overlap is

        [b <= c0 < q] + [(c0 + w) mod p < b],

    with c0 = (g-1)^-1 * (a - b) mod p and w = (g-1)^-1 * q mod p, the
    window residue.  As a runs over Z_p, so does c0.  Level 2 needs
    p - w <= c0 < q, and then b takes exactly the p - w values
    c0 + w - p < b <= c0; so level 2 occurs (p - w)(q + w - p) times when
    w > p - q, and never otherwise.  The mass p*q and the first moment q^2
    then fix levels 0 and 1, as the two branches below give.  For g = 0
    the overlap is [(-a mod p) < q]: q^2 shifts at level 1 and the other
    (p - q)*q at level 0.
    """
    p, q = params.p, params.q
    m, r = divmod(q, p)
    w = window_residue(g, params)
    if g == 0:
        hist = {m: (p - r) * q, m + 1: r * q}
    elif w < p - r:
        low = m * w * (p - w - r)
        hist = {m - 1: low, m: q * (p - r) - 2 * low, m + 1: q * r + low}
    else:
        high = (m + 1) * (p - w) * (r + w - p)
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
        diffs += (diffs >> 63) & L  # x - y mod L: both supports lie in [0, L)
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
    {0, 2, ..., p-1}, therefore attain every pair's extremes, which are
    read off the levels of predicted_distribution at any coprime q: no
    spectrum is counted.
    """
    levels = [j for r in [0, *range(2, params.p)] for j in predicted_distribution(r, params)]
    return _deviation(min(levels), max(levels), params.q**2, params.L)
