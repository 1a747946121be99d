from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest

from crtseq import correlation
from crtseq.baselines import BaselineFamily, extended_prime_sequences, prime_sequences
from crtseq.core import CrtParams, generate_sequence, is_prime
from crtseq.correlation import correlation_spectrum, epsilon_uniformity

PRIMES = (3, 5, 7, 11, 13)


def max_cross(family):
    return max(
        int(correlation_spectrum(a, b).values.max())
        for a, b in combinations(family.sequences, 2)
    )


class TestPrimeSequences:
    def test_small_members(self):
        fam = prime_sequences(3)
        assert str(fam.sequences[0]) == "100100100"
        assert str(fam.sequences[2]) == "100001010"

    @pytest.mark.parametrize("p", PRIMES)
    def test_family_invariants(self, p):
        fam = prime_sequences(p)
        assert len(fam.sequences) == p
        assert fam.period == p * p
        assert all(s.weight == p for s in fam.sequences)
        assert max_cross(fam) <= 2

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_one_uniform(self, p):
        assert epsilon_uniformity(list(prime_sequences(p).sequences)) == 1

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            prime_sequences(6)


class TestExtendedPrimeSequences:
    def test_small_shape(self):
        fam = extended_prime_sequences(3)
        assert fam.period == 15
        assert all(s.weight == 3 for s in fam.sequences)

    @pytest.mark.parametrize("p", PRIMES)
    def test_family_invariants(self, p):
        fam = extended_prime_sequences(p)
        assert fam.period == p * (2 * p - 1)
        assert all(s.weight == p for s in fam.sequences)
        assert max_cross(fam) <= 1

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_one_uniform(self, p):
        assert epsilon_uniformity(list(extended_prime_sequences(p).sequences)) == 1

    @pytest.mark.parametrize("p", (3, 5, 7))
    def test_mean_correlation(self, p):
        fam = extended_prime_sequences(p)
        for a, b in combinations(fam.sequences, 2):
            spec = correlation_spectrum(a, b)
            assert Fraction(int(spec.values.sum()), spec.values.size) == Fraction(p, 2 * p - 1)


def test_fixed_duty_family_beats_baselines():
    # same p: baselines sit at epsilon 1, the residue construction below it
    for p, k in ((3, 2), (5, 2), (7, 2)):
        params = CrtParams(p, k * p - 1)
        crt_eps = epsilon_uniformity([generate_sequence(g, params) for g in range(p)])
        assert crt_eps < 1
        assert epsilon_uniformity(list(prime_sequences(p).sequences)) == 1
        assert epsilon_uniformity(list(extended_prime_sequences(p).sequences)) == 1


def bruteforce_levels(sequences):
    """(min, max) over every unordered pair's spectrum (a swapped pair's
    spectrum is the reverse, with the same extremes)."""
    spectra = [correlation_spectrum(a, b).values for a, b in combinations(sequences, 2)]
    return min(int(v.min()) for v in spectra), max(int(v.max()) for v in spectra)


class TestWitnessPair:
    """The levels derived in the baselines module docstring, and the pair
    (2, 1) that attains them, against brute force."""

    @pytest.mark.parametrize("build, hi", [(prime_sequences, 2), (extended_prime_sequences, 1)],
                             ids=["prime", "extended"])
    @pytest.mark.parametrize("p", [p for p in range(3, 44) if is_prime(p)])
    def test_witness_attains_every_pairs_extremes(self, build, hi, p):
        fam = build(p)
        assert bruteforce_levels(fam.sequences) == bruteforce_levels(fam.witness) == (0, hi)
        assert fam.epsilon == epsilon_uniformity(list(fam.sequences))

    @pytest.mark.parametrize("p", PRIMES)
    def test_prime_witness_overlaps_twice_at_one(self, p):
        fam = prime_sequences(p)
        assert fam.witness == (fam.sequences[2], fam.sequences[1])
        assert correlation_spectrum(*fam.witness).values[1] == 2

    def test_p2_is_pinned_and_rejected(self):
        # the one prime pair (1, 0) overlaps once at every shift
        prime, ext = prime_sequences(2), extended_prime_sequences(2)
        assert epsilon_uniformity(list(prime.sequences)) == 0
        assert epsilon_uniformity(list(ext.sequences)) == 1
        for fam in (prime, ext):
            with pytest.raises(ValueError, match="p >= 3"):
                fam.epsilon

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            BaselineFamily("gold", 5)

    def test_epsilon_counts_one_pair(self):
        fam = prime_sequences(37)
        with mock.patch.object(correlation, "_count_spectrum",
                               side_effect=correlation._count_spectrum) as kernel:
            assert fam.epsilon == 1
        assert kernel.call_count == 1
        assert "sequences" not in vars(fam)
