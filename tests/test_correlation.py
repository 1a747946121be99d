import json
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crtseq import correlation
from crtseq.baselines import extended_prime_sequences, prime_sequences
from crtseq.channel import construction_params
from crtseq.core import (
    BinarySequence,
    CrtParams,
    GridPoint,
    Variant,
    generate_sequence,
    sequence_to_array,
)
from crtseq.correlation import (
    correlation_spectrum,
    crt_epsilon,
    epsilon_uniformity,
    predicted_autocorrelation,
    predicted_cross_range,
    predicted_distribution,
    window_residue,
)
from oracles import (
    brute_spectrum,
    characteristic_set,
    count_congruent,
    hamming_correlation,
    points_to_sequence,
    sequence_from_string,
    solution_count,
    two_d_correlation,
)

P35 = CrtParams(3, 5)
S = {g: generate_sequence(g, P35) for g in range(3)}


class TestHammingCorrelation:
    def test_generator_zero_self_overlap(self):
        assert hamming_correlation(S[0], S[0], 3) == 5
        assert hamming_correlation(S[0], S[0], 1) == 0

    def test_zero_sequence(self):
        zero = BinarySequence(np.zeros(15, dtype=np.uint8))
        assert all(hamming_correlation(S[1], zero, t) == 0 for t in range(15))

    def test_pair_at_zero_shift(self):
        assert hamming_correlation(S[1], S[2], 0) == 2  # common points (0,0) and (0,3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            hamming_correlation(S[0], BinarySequence(np.zeros(10, dtype=np.uint8)), 0)

    def test_matches_translate_overlap(self):
        for tau in range(15):
            ia = set(S[2].support())
            shifted = {(x + tau) % 15 for x in S[1].support()}
            assert hamming_correlation(S[2], S[1], tau) == len(ia & shifted)


class TestTwoDCorrelation:
    def test_self_overlap_at_zero(self):
        a = sequence_to_array(S[1], P35)
        assert two_d_correlation(a, a, (0, 0)) == 5

    def test_compatible_with_one_dimensional(self):
        a2, a1 = sequence_to_array(S[2], P35), sequence_to_array(S[1], P35)
        for tau in range(15):
            assert two_d_correlation(a2, a1, (tau % 3, tau % 5)) == hamming_correlation(
                S[2], S[1], tau
            )

    def test_compatible_under_modified_map(self):
        params = CrtParams(7, 8, Variant.MODIFIED)
        s2, s3 = generate_sequence(2, params), generate_sequence(3, params)
        a2, a3 = sequence_to_array(s2, params), sequence_to_array(s3, params)
        for tau in range(params.L):
            shift = (tau % 7, (params.gamma * tau) % 8)
            assert two_d_correlation(a2, a3, shift) == hamming_correlation(s2, s3, tau)

    def test_cross_with_generator_zero_window(self):
        a0, a1 = sequence_to_array(S[0], P35), sequence_to_array(S[1], P35)
        assert two_d_correlation(a0, a1, (1, 0)) in (1, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            two_d_correlation(np.zeros((3, 5)), np.zeros((5, 3)), (0, 0))

    def test_level_shift_periodicity_in_column_offset(self):
        # distribution machinery: the 2-D correlation only depends on the
        # column offset through its residue mod p (when shifted by p).
        params = CrtParams(5, 13)
        ag = sequence_to_array(generate_sequence(2, params), params)
        a1 = sequence_to_array(generate_sequence(1, params), params)
        for t1 in range(5):
            for t2 in range(13 - 5):
                assert two_d_correlation(ag, a1, (t1, t2)) == two_d_correlation(
                    ag, a1, (t1, t2 + 5)
                )


class TestSpectrum:
    def test_paper_histograms(self):
        assert correlation_spectrum(S[0], S[1]).histogram == {1: 5, 2: 10}
        assert correlation_spectrum(S[2], S[1]).histogram == {1: 7, 2: 6, 3: 2}
        assert correlation_spectrum(S[0], S[0]).histogram == {0: 10, 5: 5}

    def test_agrees_with_dot_product_oracle(self):
        for a in S.values():
            for b in S.values():
                assert list(correlation_spectrum(a, b).values) == brute_spectrum(a, b)

    def test_histogram_counts_all_shifts(self):
        spec = correlation_spectrum(S[2], S[1])
        assert sum(spec.histogram.values()) == 15
        assert int(spec.values.sum()) == 25  # weight product

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_total_overlap_equals_weight_product(self, seed):
        rng = np.random.default_rng(seed)
        a = BinarySequence(rng.integers(0, 2, size=45).astype(np.uint8))
        b = BinarySequence(rng.integers(0, 2, size=45).astype(np.uint8))
        spec = correlation_spectrum(a, b)
        assert int(spec.values.sum()) == a.weight * b.weight


@st.composite
def coprime_params(draw):
    """CrtParams(p, q) for a prime p <= 31 and a coprime q <= 200."""
    p = draw(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23, 29, 31]))
    return CrtParams(p, draw(st.integers(2, 200).filter(lambda q: q % p)))


class TestWindowResidue:
    def test_examples(self):
        assert window_residue(2, P35) == 2
        assert window_residue(0, P35) == 1
        assert window_residue(2, CrtParams(5, 7)) == 2

    def test_reference_generator_rejected(self):
        with pytest.raises(ValueError, match="reference"):
            window_residue(1, P35)
        for g in (-1, 3):
            with pytest.raises(ValueError, match="outside"):
                window_residue(g, P35)

    def test_congruence_counting_reproduces_overlaps(self):
        # the whole case analysis in one identity: the 2-D overlap with the
        # reference equals plain congruence counting over one column range
        # (count_congruent is the independent oracle here)
        for params in (CrtParams(5, 7), CrtParams(5, 8), CrtParams(7, 11)):
            a1 = sequence_to_array(generate_sequence(1, params), params)
            for g in range(2, params.p):
                ag = sequence_to_array(generate_sequence(g, params), params)
                for t1 in range(params.p):
                    for t2 in range(params.q):
                        assert solution_count(g, params, t1, t2) == two_d_correlation(
                            ag, a1, (t1, t2)
                        )

    @given(params=coprime_params())
    @example(params=P35)
    @example(params=CrtParams(5, 7))
    @example(params=CrtParams(7, 10))
    @example(params=CrtParams(11, 60))
    @settings(max_examples=50, deadline=None)
    def test_window_residue_avoids_degenerate_values(self, params):
        # for g outside {0, 1} the residue is neither 0 nor p - (q mod p)
        for g in range(2, params.p):
            wr = window_residue(g, params)
            assert wr != 0
            assert wr != params.p - params.q % params.p


class TestPredictedRange:
    def test_examples(self):
        assert predicted_cross_range(0, 1, P35) == (1, 2)
        assert predicted_cross_range(2, 1, P35) == (1, 3)
        assert predicted_cross_range(3, 2, CrtParams(5, 11)) == (1, 3)

    def test_identical_generators_rejected(self):
        with pytest.raises(ValueError):
            predicted_cross_range(2, 2, P35)

    def test_zero_pairs_allowed_for_small_q(self):
        assert predicted_cross_range(0, 1, CrtParams(5, 4)) == (0, 1)

    def test_nonzero_pairs_below_p(self):
        # q < p: levels {0, 1} when the window residue w < p - q, {0, 1, 2} above
        assert window_residue(6, CrtParams(7, 5)) == 1
        assert predicted_cross_range(6, 1, CrtParams(7, 5)) == (0, 1)
        assert predicted_cross_range(3, 1, CrtParams(7, 5)) == (0, 2)
        assert predicted_cross_range(4, 1, CrtParams(5, 3)) == (0, 1)
        assert predicted_cross_range(3, 2, CrtParams(5, 4)) == (0, 2)

    def test_envelope_holds_by_brute_force(self):
        # the range is the distribution's extremes, so it is attained exactly
        for params in (CrtParams(5, 3), CrtParams(7, 5), CrtParams(5, 7), P35,
                       CrtParams(5, 51, Variant.MODIFIED)):
            seqs = {g: generate_sequence(g, params) for g in range(params.p)}
            for g in range(params.p):
                for h in range(params.p):
                    if g == h:
                        continue
                    vals = correlation_spectrum(seqs[g], seqs[h]).values
                    assert predicted_cross_range(g, h, params) == (
                        int(vals.min()), int(vals.max())), (params, g, h)

    def test_class_extremes_on_grid(self):
        # every class representative (r, 1) at every coprime q <= 60
        for params in coprime_grid():
            ref = generate_sequence(1, params)
            for r in (0, *range(2, params.p)):
                vals = correlation_spectrum(generate_sequence(r, params), ref).values
                assert predicted_cross_range(r, 1, params) == (
                    int(vals.min()), int(vals.max())), (params, r)


class TestPredictedDistribution:
    def test_examples(self):
        assert predicted_distribution(2, P35) == {1: 7, 2: 6, 3: 2}
        assert predicted_distribution(0, P35) == {1: 5, 2: 10}
        assert predicted_distribution(2, CrtParams(5, 7)) == {0: 2, 1: 17, 2: 16}

    def test_small_q_examples(self):
        # q < p: m = 0, r = q; level 2 only when the window residue exceeds p - q
        assert predicted_distribution(2, CrtParams(5, 4)) == {0: 7, 1: 10, 2: 3}
        assert predicted_distribution(3, CrtParams(7, 5)) == {0: 14, 1: 17, 2: 4}
        assert predicted_distribution(6, CrtParams(7, 5)) == {0: 10, 1: 25}
        assert predicted_distribution(0, CrtParams(7, 5)) == {0: 10, 1: 25}

    def test_matches_brute_force_below_p(self):
        # all 532 cases: every prime p <= 13, every coprime q < p, both
        # variants, g in {0, 2..p-1} (the class epsilon is checked on
        # coprime_grid, which holds these q)
        cases = 0
        for params in coprime_grid():
            if params.q > params.p:
                continue
            ref = generate_sequence(1, params)
            for g in (0, *range(2, params.p)):
                brute = correlation_spectrum(generate_sequence(g, params), ref).histogram
                assert predicted_distribution(g, params) == brute, (params, g)
                cases += 1
        assert cases == 532

    def test_rejects_reference_generator(self):
        with pytest.raises(ValueError):
            predicted_distribution(1, P35)

    def test_mass_and_first_moment(self):
        for params in (CrtParams(7, 11), CrtParams(11, 20), CrtParams(13, 60)):
            for g in range(params.p):
                if g == 1:
                    continue
                hist = predicted_distribution(g, params)
                assert sum(hist.values()) == params.L
                assert sum(j * n for j, n in hist.items()) == params.q**2

    def test_matches_brute_force_including_modified(self):
        for params in (CrtParams(5, 8), CrtParams(5, 8, Variant.MODIFIED),
                       CrtParams(7, 11, Variant.MODIFIED)):
            s1 = generate_sequence(1, params)
            for g in range(params.p):
                if g == 1:
                    continue
                brute = correlation_spectrum(generate_sequence(g, params), s1).histogram
                assert predicted_distribution(g, params) == brute

    @pytest.mark.parametrize(
        "params",
        [CrtParams(7, 11), CrtParams(5, 8), CrtParams(11, 13), CrtParams(7, 8, Variant.MODIFIED)],
    )
    def test_pair_reduction_matches_brute_force(self, params):
        p = params.p
        seqs = {g: generate_sequence(g, params) for g in range(p)}
        for g in range(p):
            for h in range(1, p):
                if g == h:
                    continue
                reduced = (g * pow(h, -1, p)) % p
                assert (
                    correlation_spectrum(seqs[g], seqs[h]).histogram
                    == correlation_spectrum(seqs[reduced], seqs[1]).histogram
                )


class TestPredictedAutocorrelation:
    def test_examples(self):
        assert predicted_autocorrelation(0, 6, P35) == 5
        assert predicted_autocorrelation(1, 0, P35) == 5
        assert predicted_autocorrelation(1, 5, P35) == 0

    @pytest.mark.parametrize(
        "params",
        [P35, CrtParams(5, 7), CrtParams(5, 4), CrtParams(7, 8, Variant.MODIFIED)],
    )
    def test_matches_brute_force(self, params):
        for g in range(params.p):
            seq = generate_sequence(g, params)
            spec = correlation_spectrum(seq, seq).values
            for tau in range(params.L):
                assert predicted_autocorrelation(g, tau, params) == int(spec[tau])

    @given(
        params=st.sampled_from([P35, CrtParams(5, 4), CrtParams(7, 8, Variant.MODIFIED)]),
        g=st.integers(0, 6),
        taus=st.lists(st.integers(-200, 200), max_size=12),
    )
    @settings(max_examples=100, deadline=None)
    def test_array_call_matches_scalar_calls(self, params, g, taus):
        g %= params.p
        values = predicted_autocorrelation(g, np.array(taus, dtype=np.int64), params)
        scalars = [predicted_autocorrelation(g, tau, params) for tau in taus]
        assert all(type(v) is int for v in scalars)
        assert values.shape == (len(taus),)
        assert values.tolist() == scalars


class TestCountCongruent:
    def test_examples(self):
        assert count_congruent(0, 15, 2, 3) == 5
        assert count_congruent(2, 5, 0, 3) == 2
        assert count_congruent(0, 7, 4, 5) == 1

    def test_empty_window(self):
        assert count_congruent(10, 0, 1, 7) == 0

    def test_negative_window_rejected(self):
        with pytest.raises(ValueError):
            count_congruent(0, -1, 0, 3)

    @given(
        c=st.integers(-200, 200),
        d=st.integers(0, 300),
        b=st.integers(-50, 50),
        p=st.sampled_from([2, 3, 5, 7, 11]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_enumeration(self, c, d, b, p):
        expect = sum(1 for x in range(c, c + d) if x % p == b % p)
        assert count_congruent(c, d, b, p) == expect
        if d % p == 0:
            assert count_congruent(c, d, b, p) == d // p
        else:
            assert count_congruent(c, d, b, p) in (d // p, d // p + 1)


class TestEpsilonUniformity:
    def test_small_set_exact_value(self):
        assert epsilon_uniformity([S[0], S[1], S[2]]) == Fraction(4, 5)

    def test_constant_correlation_pair_is_zero_uniform(self):
        a = BinarySequence(np.ones(6, dtype=np.uint8))
        b = sequence_from_string("101010")
        assert epsilon_uniformity([a, b]) == 0

    def test_rejects_zero_weight(self):
        with pytest.raises(ValueError):
            correlation_spectrum(S[0], BinarySequence(np.zeros(15, dtype=np.uint8))).epsilon

    def test_rejects_single_or_mixed_lengths(self):
        with pytest.raises(ValueError):
            epsilon_uniformity([S[0]])
        with pytest.raises(ValueError):
            epsilon_uniformity([S[0], BinarySequence(np.ones(6, dtype=np.uint8))])

    def test_uniformity_bound_for_fixed_duty_family(self):
        # q = kp - 1 keeps every pair within (p+1)/(kp-1) of the mean
        for p, k in ((3, 2), (3, 5), (5, 3), (7, 2)):
            params = CrtParams(p, k * p - 1)
            family = [generate_sequence(g, params) for g in range(p)]
            assert epsilon_uniformity(family) <= Fraction(p + 1, k * p - 1)

    def test_multi_rate_extension_does_not_degrade_uniformity(self):
        # checked empirically on small instances; equality is not asserted
        # because it does not hold in general (e.g. p=5, q=9, k=2 improves
        # from 2/3 to 4/9)
        cases = {
            (5, 9, 2): (Fraction(2, 3), Fraction(4, 9)),
            (5, 11, 2): (Fraction(6, 11), Fraction(4, 11)),
            (7, 13, 2): (Fraction(8, 13), Fraction(8, 13)),
        }
        for (p, q, k), (eps_base, eps_ext) in cases.items():
            params = CrtParams(p, q)
            base = [generate_sequence(g, params) for g in range(p)]
            # k row translates of each characteristic set: k*q ones, duty k/p
            ext = [
                points_to_sequence(
                    {GridPoint((r + j) % p, c) for r, c in characteristic_set(g, params)
                     for j in range(k)},
                    params,
                )
                for g in range(p)
            ]
            assert epsilon_uniformity(base) == eps_base
            assert epsilon_uniformity(ext) == eps_ext
            assert eps_ext <= eps_base


def oracle_epsilon(sequences) -> Fraction:
    """epsilon_uniformity read off one brute_spectrum per pair."""
    best = Fraction(0)
    for a, b in combinations(sequences, 2):
        spec = brute_spectrum(a, b)
        mean = Fraction(a.weight * b.weight, len(a))
        best = max(best, max(max(spec) - mean, mean - min(spec)) / mean)
    return best


@st.composite
def support_rows(draw):
    """Row-paired support matrices of one weight pair, plus the period."""
    L = draw(st.integers(1, 40))
    w_a, w_b = draw(st.integers(0, L)), draw(st.integers(0, L))
    n = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = np.array([rng.choice(L, w_a, replace=False) for _ in range(n)]).reshape(n, w_a)
    b = np.array([rng.choice(L, w_b, replace=False) for _ in range(n)]).reshape(n, w_b)
    return a, b, L


class TestSpectrumKernel:
    @given(rows=support_rows(), chunk=st.sampled_from([1, 5, 64, 1 << 16]))
    @settings(max_examples=150, deadline=None)
    def test_extremes_match_per_pair_spectra(self, rows, chunk):
        # small chunks split the batch between pairs and one pair into row slices
        a, b, L = rows
        pairs = [
            (BinarySequence.from_support(x, L), BinarySequence.from_support(y, L))
            for x, y in zip(a, b)
        ]
        spectra = [brute_spectrum(x, y) for x, y in pairs]
        w = a.shape[1] * b.shape[1]
        with mock.patch.object(correlation, "_CHUNK", chunk):
            for (x, y), spec in zip(pairs, spectra):
                assert correlation_spectrum(x, y).values.tolist() == spec
            if w == 0:
                with pytest.raises(ValueError, match="zero-weight"):
                    correlation._epsilon(a, b, L)
                return
            eps = correlation._epsilon(a, b, L)
        lo, hi = min(map(min, spectra)), max(map(max, spectra))
        assert eps == Fraction(max(hi * L - w, w - lo * L), w)

    def test_prime_family_spans_many_chunks(self):
        # 666 pairs of 37 x 37 differences: ~14 chunks of at most 2^16
        family = prime_sequences(37).sequences
        pairs = list(combinations(family, 2))
        a = np.stack([x.support() for x, _ in pairs])
        b = np.stack([y.support() for _, y in pairs])
        assert a.shape[0] * a.shape[1] * b.shape[1] > 13 * correlation._CHUNK
        spectra = [correlation_spectrum(x, y).values for x, y in pairs]
        lo, hi = min(int(v.min()) for v in spectra), max(int(v.max()) for v in spectra)
        w, L = 37 * 37, 37 * 37
        assert correlation._epsilon(a, b, L) == Fraction(max(hi * L - w, w - lo * L), w)

    @pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux")
    def test_large_pair_spectrum_in_bounded_memory(self):
        # q = 5003: one 5003 x 5003 difference matrix is ~190 MiB of int64,
        # one slice of the kernel 2^16 differences
        probe = textwrap.dedent(
            """
            import json, resource
            from crtseq.core import CrtParams, generate_sequence
            from crtseq.correlation import (
                correlation_spectrum, predicted_distribution, reduced_generator,
            )
            before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            params = CrtParams(3, 5003)
            spec = correlation_spectrum(
                generate_sequence(1, params), generate_sequence(2, params)
            )
            grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before
            predicted = predicted_distribution(reduced_generator(1, 2, 3), params)
            print(json.dumps([grown, spec.histogram == predicted]))
            """
        )
        src = str(Path(correlation.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", probe],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        grown_kib, histogram_matches = json.loads(out.stdout)
        assert histogram_matches
        assert grown_kib <= 64 * 1024

    @given(
        L=st.integers(2, 30),
        weights=st.lists(st.integers(1, 30), min_size=2, max_size=6),
        seed=st.integers(0, 2**32 - 1),
        chunk=st.sampled_from([3, 1 << 16]),
    )
    @settings(max_examples=100, deadline=None)
    def test_unequal_weight_family_matches_pairwise_oracle(self, L, weights, seed, chunk):
        rng = np.random.default_rng(seed)
        family = [
            BinarySequence.from_support(rng.choice(L, min(w, L), replace=False), L)
            for w in weights
        ]
        with mock.patch.object(correlation, "_CHUNK", chunk):
            got = epsilon_uniformity(family)
            assert correlation_spectrum(family[0], family[1]).epsilon == oracle_epsilon(family[:2])
        assert got == oracle_epsilon(family)

    def test_baseline_families_are_one_uniform(self):
        for build in (prime_sequences, extended_prime_sequences):
            family = list(build(7).sequences)
            assert epsilon_uniformity(family) == oracle_epsilon(family) == 1


def coprime_grid():
    return [
        CrtParams(p, q, variant)
        for p in (3, 5, 7, 11, 13)
        for q in range(2, 61)
        if math.gcd(p, q) == 1
        for variant in Variant
    ]


class TestCrtEpsilon:
    def test_class_epsilon_equals_all_pairs(self):
        # every p in {3..13}, every coprime q <= 60, both residue maps
        grid = coprime_grid()
        assert len(grid) == 492
        for params in grid:
            family = [generate_sequence(g, params) for g in range(params.p)]
            assert crt_epsilon(params) == epsilon_uniformity(family), params

    @pytest.mark.parametrize("k", [6, 1])
    def test_counts_no_spectrum(self, k):
        # q = 6p - 1 > p and q = p - 1 < p: epsilon is read off
        # predicted_distribution either way, with no spectrum counted
        params = construction_params(37, k)
        family = [generate_sequence(g, params) for g in range(params.p)]
        expect = epsilon_uniformity(family)
        with mock.patch.object(correlation, "_count_spectra",
                               side_effect=correlation._count_spectra) as kernel:
            assert crt_epsilon(params) == expect
        assert kernel.call_count == 0

    def test_small_instance(self):
        assert crt_epsilon(P35) == Fraction(4, 5)
