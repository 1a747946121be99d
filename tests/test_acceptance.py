"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines; every check is exact unless a tolerance is stated inline.
"""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np

from crtseq.core import (
    CrtParams,
    Variant,
    generate_sequence,
)
from crtseq.correlation import (
    correlation_spectrum,
    epsilon_uniformity,
    predicted_autocorrelation,
    predicted_distribution,
)
from crtseq.channel import (
    Scenario,
    UserSpec,
    activity_text,
    channel_activity,
    exhaustive_pair_throughput,
    monte_carlo_throughput,
    peak_throughput_bound,
    simulate,
)
from crtseq.sync import (
    Activated,
    partial_cross_correlation,
    run_detector,
    slot_matrix,
    sync_guarantee,
)
from crtseq.erasure import CodeSpec, session_roundtrip
from crtseq.baselines import extended_prime_sequences, prime_sequences

PRIMES = (3, 5, 7, 11, 13)


def grid(p):
    return [q for q in range(p + 1, 61) if math.gcd(p, q) == 1]


def ok(n, msg):
    print(f"ACCEPTANCE {n:02d}: PASS - {msg}")


def test_criterion_01_small_instance_sequences_exact():
    params = CrtParams(3, 5)
    got = [str(generate_sequence(g, params)) for g in range(3)]
    assert got == ["100100100100100", "111110000000000", "100100010001001"]
    ok(1, "p=3 q=5 sequences match bit for bit")


def test_criterion_02_small_instance_histograms_exact():
    params = CrtParams(3, 5)
    s = {g: generate_sequence(g, params) for g in range(3)}
    assert correlation_spectrum(s[0], s[1]).histogram == {1: 5, 2: 10}
    assert correlation_spectrum(s[2], s[1]).histogram == {1: 7, 2: 6, 3: 2}
    ok(2, "cross-correlation histograms for (0,1) and (2,1) exact")


def test_criterion_03_distribution_oracle_sweep():
    checked = 0
    for p in PRIMES:
        for q in grid(p):
            params = CrtParams(p, q)
            ref = generate_sequence(1, params)
            for g in range(p):
                if g == 1:
                    continue
                brute = correlation_spectrum(generate_sequence(g, params), ref).histogram
                assert predicted_distribution(g, params) == brute, (p, q, g)
                checked += 1
    ok(3, f"predicted distributions equal brute force on {checked} (p,q,g) triples")


def test_criterion_04_autocorrelation_sweep():
    checked = 0
    for p in PRIMES:
        for q in grid(p):
            params = CrtParams(p, q)
            for g in range(p):
                seq = generate_sequence(g, params)
                spec = correlation_spectrum(seq, seq).values
                predicted = predicted_autocorrelation(g, np.arange(params.L), params)
                np.testing.assert_array_equal(predicted, spec, err_msg=f"{(p, q, g)}")
                checked += params.L
    ok(4, f"closed-form autocorrelation exact at {checked} shifts")


def test_criterion_05_three_value_window():
    checked = 0
    for p in PRIMES:
        for q in grid(p):
            if q % p not in (1, p - 1):
                continue
            params = CrtParams(p, q)
            m = q // p
            window = (m - 1, m + 1) if q % p == 1 else (m, m + 2)
            seqs = {g: generate_sequence(g, params) for g in range(1, p)}
            for g, h in combinations(range(1, p), 2):
                vals = correlation_spectrum(seqs[g], seqs[h]).values
                assert window[0] <= int(vals.min()) and int(vals.max()) <= window[1]
                checked += 1
    ok(5, f"{checked} sequence pairs stay inside their three-value window")


def test_criterion_06_total_overlap_identity():
    rng = np.random.default_rng(2718)
    from crtseq.core import BinarySequence

    for length in (15, 45, 105):
        for _ in range(200):
            a = BinarySequence(rng.integers(0, 2, size=length).astype(np.uint8))
            b = BinarySequence(rng.integers(0, 2, size=length).astype(np.uint8))
            spec = correlation_spectrum(a, b)
            assert int(spec.values.sum()) == a.weight * b.weight
    ok(6, "sum of correlations equals weight product for 600 random pairs")


def test_criterion_07_exhaustive_worst_case_two_users():
    bound = peak_throughput_bound(5, 2)
    assert bound == Fraction(1, 5)
    worst = 1.0
    for pair in combinations(range(5), 2):
        rep = exhaustive_pair_throughput(5, 2, pair)
        assert rep.trials == 45 * 45
        assert rep.minimum >= float(bound), pair
        worst = min(worst, rep.minimum)
    ok(7, f"all 45^2 offset pairs for every generator pair: min {worst:.4f} >= 0.2")


def test_criterion_08_mean_throughput_reproduction():
    expected_mean = 19 / 37 * (36 / 37) ** 18  # 0.3136...
    assert abs(expected_mean - 0.314) < 1e-3
    for k in (2, 3, 4, 5):
        rep = monte_carlo_throughput(37, k, 19, trials=10_000, seed=1000 + k)
        assert abs(rep.mean - 0.314) <= 0.01, (k, rep.mean)
        assert rep.minimum >= float(peak_throughput_bound(37, k)), (k, rep.minimum)
    ok(8, "p=37, 19 users: sampled mean within 0.01 of 0.314, min above the bound")


def test_criterion_09_bound_trend_toward_quarter():
    val = float(peak_throughput_bound(101, 20))
    assert 0.24 <= val <= 0.25
    series = [float(peak_throughput_bound(101, k)) for k in (5, 10, 20, 40)]
    assert all(a < b for a, b in zip(series, series[1:]))
    gaps = [abs(0.25 - v) for v in series]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    ok(9, f"bound at (101,20) = {val:.4f}; monotone toward 0.25 over k in 5..40")


def test_criterion_10_sync_guarantee_sweep():
    params = CrtParams(5, 51, Variant.MODIFIED)
    assert sync_guarantee(5, 51, 3).guaranteed
    L = params.L
    duration = 3 * L
    rng = np.random.default_rng(2024)
    runs = 0
    for size in (1, 2, 3):
        for subset in combinations((1, 2, 3, 4), size):
            for _ in range(200):
                offsets = rng.integers(0, L, size=len(subset))
                users = tuple(
                    UserSpec(g, g, None, ((int(t), duration),))
                    for g, t in zip(subset, offsets)
                )
                signal = channel_activity(simulate(Scenario(params, users, duration)))
                events = run_detector(signal, params)
                expected = [Activated(g, int(t)) for g, t in zip(subset, offsets)]
                # no false alarms, no start errors, no missed detections
                assert sorted(events, key=lambda e: e.user) == sorted(
                    expected, key=lambda e: e.user
                ), (subset, offsets, events)
                runs += 1
    assert runs == 2800
    ok(10, "2800 guaranteed scenarios: every start recovered exactly, no extras")


def test_criterion_11_documented_sync_failure():
    params = CrtParams(7, 8, Variant.MODIFIED)
    users = (
        UserSpec(1, 1, 0),
        UserSpec(2, 2, 0),
        UserSpec(3, 3, 1),
        UserSpec(4, 4, 1),
        UserSpec(6, 6, 1),
    )
    full = (
        "**011011" "00010*01" "000*000*" "00101010"
        "10101010" "10001*10" "0**11111" "**"
    )
    sig56 = channel_activity(simulate(Scenario(params, users, 56)))
    assert activity_text(sig56) == full[:56]
    sig58 = channel_activity(simulate(Scenario(params, users, 58)))
    assert activity_text(sig58) == full
    events = run_detector(sig56, params)
    assert Activated(6, 0) in events  # true start is 1: the documented error
    assert not sync_guarantee(7, 8, 5).guaranteed
    ok(11, "activity string reproduced exactly; detector misdates user 6 to slot 0")


def test_criterion_12_window_machinery():
    params = CrtParams(5, 51, Variant.MODIFIED)
    p, q = 5, 51

    # exactly p ones per generator in the first p^2 slots and in every band
    for g in range(1, p):
        support = generate_sequence(g, params).support()
        assert int(np.sum(support < p * p)) == p
        cols = (params.gamma * support) % q
        for y in range(q - p + 1):
            assert int(np.sum((cols >= y) & (cols < y + p))) == p

    # partial cross-correlation at most 2: all ordered pairs, all shifts,
    # prefix window and every column band
    for g in range(1, p):
        for h in range(1, p):
            if g == h:
                continue
            for t1 in range(p):
                for t2 in range(q):
                    assert partial_cross_correlation(g, h, (t1, t2), params) <= 2
                    for y in range(q - p + 1):
                        assert (
                            partial_cross_correlation(g, h, (t1, t2), params, band=y) <= 2
                        )

    # slot layout invariants
    mat = slot_matrix(params)
    assert sorted(mat.ravel()) == list(range(p * q))
    for i in range(p):
        for j in range(q):
            assert mat[i][(j + 1) % q] == (mat[i][j] + p) % (p * q)
    assert list(mat[0]) == [p * j for j in range(q)]
    col_of = {int(mat[i][j]): j for i in range(p) for j in range(q)}
    for t in range(1, p * p):
        if t % p:
            assert 2 * p + 1 <= col_of[t] <= q - p - 1
    ok(12, "window counts, partial correlations and slot layout all verified")


def test_criterion_13_erasure_pipeline():
    spec = CodeSpec.for_protocol(5, 5)
    assert spec.dim == 14 and spec.field_order == 32
    rng = np.random.default_rng(42)
    for trial in range(500):
        offsets = tuple(int(x) for x in rng.integers(0, 130, size=3))
        report = session_roundtrip(5, 5, (1, 2, 3), offsets, seed=trial)
        assert report.all_recovered, offsets
        assert report.info_throughput == Fraction(42, 130)
        assert max(report.erasure_counts.values()) <= spec.max_erasures
    assert float(Fraction(42, 130)) >= 0.25

    big = CodeSpec.for_protocol(19, 19)  # formula level only
    assert big.dim == 182 and big.field_order == 512
    assert Fraction(10 * big.dim, 19 * 362) == Fraction(1820, 6878)
    assert abs(1820 / 6878 - 0.265) < 5e-4

    # the large instance end to end: ten users over GF(512) at seeded offsets
    gens = tuple(range(1, 11))
    offsets = tuple(int(x) for x in rng.integers(0, 19 * big.n, size=len(gens)))
    report = session_roundtrip(19, 19, gens, offsets, seed=19)
    assert (report.spec.n, report.spec.dim, report.spec.field_order) == (362, 182, 512)
    assert report.all_recovered, offsets
    assert all(report.recovered_ok[g] for g in gens)
    assert report.info_throughput == report.measured_throughput == Fraction(1820, 6878)
    ok(13, "500 offset tuples decoded; throughput 42/130; p=k=19 decoded for 10 users")


def test_criterion_14_uniformity_table():
    params = CrtParams(3, 5)
    assert epsilon_uniformity([generate_sequence(g, params) for g in range(3)]) == Fraction(4, 5)
    for p in PRIMES:
        for k in range(2, 61):
            q = k * p - 1
            if q > 60:
                break
            family = [generate_sequence(g, CrtParams(p, q)) for g in range(p)]
            assert epsilon_uniformity(family) <= Fraction(p + 1, q), (p, k)
    for p in (3, 5, 7):
        assert epsilon_uniformity(list(prime_sequences(p).sequences)) == 1
        assert epsilon_uniformity(list(extended_prime_sequences(p).sequences)) == 1
    ok(14, "exact small-instance epsilon, family bound on the grid, baselines at 1")
