from fractions import Fraction
from itertools import combinations

import pytest

from crtseq.baselines import extended_prime_sequences, prime_sequences
from crtseq.core import CrtParams, generate_sequence
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
