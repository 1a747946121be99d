import json
import math
import re
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtseq.core import CrtParams, Variant, generate_sequence
from crtseq.correlation import hamming_correlation
from crtseq.channel import (
    _SuccessCounter,
    ActivitySignal,
    Scenario,
    UserSpec,
    adversarial_min_throughput,
    channel_activity,
    construction_params,
    exhaustive_pair_throughput,
    monte_carlo_throughput,
    optimal_user_count,
    peak_throughput_bound,
    scenario_from_json,
    scenario_to_json,
    simulate,
    throughput_lower_bound,
)

P35 = CrtParams(3, 5)


def perm_scenario(params, spec, duration):
    users = tuple(UserSpec(uid, g, off) for uid, g, off in spec)
    return Scenario(params, users, duration)


def oracle_senders(scenario):
    """Each slot's transmitters in ascending user id, straight from the
    definition: user u sends at slot t when its sequence has a one at
    (t - tau) mod L, or at (t - a) mod L inside one of its sessions [a, b)."""
    L = scenario.params.L
    offsets = scenario.resolved_offsets()
    bits = {u.user_id: generate_sequence(u.generator, scenario.params).bits for u in scenario.users}

    def sends(u, t):
        if u.sessions is None:
            return bits[u.user_id][(t - offsets[u.user_id]) % L] == 1
        return any(a <= t < b and bits[u.user_id][(t - a) % L] == 1 for a, b in u.sessions)

    return [
        tuple(sorted(u.user_id for u in scenario.users if sends(u, t)))
        for t in range(scenario.duration)
    ]


def outcome(senders):
    """A slot read as ("idle",), ("success", sender) or ("collision", senders)."""
    if not senders:
        return ("idle",)
    if len(senders) == 1:
        return ("success", senders[0])
    return ("collision", senders)


def assert_matches_definition(scenario):
    """simulate(scenario) against oracle_senders; returns the oracle's
    per-slot outcomes."""
    trace = simulate(scenario)
    per_slot = oracle_senders(scenario)
    outcomes = [outcome(s) for s in per_slot]
    assert trace.n_senders.tolist() == [len(s) for s in per_slot]
    pairs = [(t, u) for t, senders in enumerate(per_slot) for u in senders]
    assert trace.transmission_slot.dtype == trace.transmission_sender.dtype == np.int64
    assert list(zip(trace.transmission_slot.tolist(), trace.transmission_sender.tolist())) == pairs
    ids = [u.user_id for u in scenario.users]
    assert trace.sent == {u: sum(u in s for s in per_slot) for u in ids}
    assert trace.succeeded == {u: outcomes.count(("success", u)) for u in ids}
    return outcomes


@st.composite
def scenarios(draw):
    """Small scenarios of one to five users of every kind: permanent users with
    explicit or seed-sampled offsets, session users whose sessions may run
    past or start after the horizon, generator 0, both variants, and
    durations that are mostly not a multiple of L."""
    p = draw(st.sampled_from([3, 5, 7]))
    q = draw(st.integers(2, 12).filter(lambda q: math.gcd(p, q) == 1))
    params = CrtParams(p, q, draw(st.sampled_from(list(Variant))))
    L = params.L
    gens = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=min(p, 5), unique=True))
    some_id = st.one_of(
        st.integers(-99, 99), st.sampled_from([-(2**63), 2**63 - 1]), st.integers(-(2**63), 2**63 - 1)
    )
    ids = draw(st.lists(some_id, min_size=len(gens), max_size=len(gens), unique=True))
    users = []
    for uid, g in zip(ids, gens):
        kind = draw(st.sampled_from(["offset", "sampled", "sessions"]))
        if kind == "offset":
            users.append(UserSpec(uid, g, draw(st.integers(0, L - 1))))
        elif kind == "sampled":
            users.append(UserSpec(uid, g))
        else:
            spans, a = [], draw(st.integers(0, 2 * L))
            for _ in range(draw(st.integers(1, 3))):
                b = a + draw(st.integers(L, 2 * L))
                spans.append((a, b))
                a = b + draw(st.integers(L, 2 * L))
            users.append(UserSpec(uid, g, None, tuple(spans)))
    duration = draw(st.integers(1, 6 * L))
    return Scenario(params, tuple(users), duration, seed=draw(st.integers(0, 2**16)))


class TestActivitySignal:
    def test_string_round_trip(self):
        sig = ActivitySignal.from_string("01*10")
        assert str(sig) == "01*10"
        assert [sig[i] for i in range(5)] == [0, 1, 2, 1, 0]

    def test_rejects_bad_codes(self):
        with pytest.raises(ValueError):
            ActivitySignal(np.array([0, 3]))
        # checked before the cast to int8, which would wrap or truncate
        for codes in (np.array([256, 1]), np.array([0.5, 1.7]), [1.9]):
            with pytest.raises(ValueError, match="activity codes must be 0, 1 or 2"):
                ActivitySignal(codes)
        with pytest.raises(ValueError, match="1-D"):
            ActivitySignal(np.ones((2, 3), dtype=np.int8))
        assert ActivitySignal(np.array([True, False])) == ActivitySignal([1, 0])
        with pytest.raises(ValueError, match="'x' at position 2"):
            ActivitySignal.from_string("01x*")
        # positions count characters of the stripped text, not encoded bytes
        with pytest.raises(ValueError, match="'é' at position 3"):
            ActivitySignal.from_string("\n 01*é1 ")
        with pytest.raises(ValueError, match="'★' at position 1"):
            ActivitySignal.from_string("0★x")
        with pytest.raises(ValueError, match=re.escape("'\\udc80' at position 2")):
            ActivitySignal.from_string("01\udc80")  # a lone surrogate has no encoding

    def test_leaves_callers_array_writable(self):
        codes = np.array([0, 1, 2], dtype=np.int8)
        sig = ActivitySignal(codes)
        codes[0] = 1  # the signal holds its own frozen copy
        assert str(sig) == "01*"
        assert not sig.codes.flags.writeable

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 100_000))
    def test_long_string_round_trip(self, seed, length):
        text = "".join(np.random.default_rng(seed).choice(list("01*"), size=length))
        assert str(ActivitySignal.from_string(text)) == text


class TestScenarioValidation:
    def test_duplicate_generators(self):
        with pytest.raises(ValueError, match="distinct generators"):
            perm_scenario(P35, [(1, 1, 0), (2, 1, 0)], 15)

    def test_duplicate_ids(self):
        with pytest.raises(ValueError, match="distinct ids"):
            perm_scenario(P35, [(1, 1, 0), (1, 2, 0)], 15)

    def test_offset_range(self):
        with pytest.raises(ValueError, match="offset"):
            perm_scenario(P35, [(1, 1, 15)], 15)

    def test_short_session(self):
        with pytest.raises(ValueError, match="shorter than one period"):
            Scenario(P35, (UserSpec(1, 1, None, ((0, 14),)),), 30)

    def test_short_gap(self):
        with pytest.raises(ValueError, match="gap"):
            Scenario(P35, (UserSpec(1, 1, None, ((0, 15), (20, 40))),), 60)

    def test_offset_and_sessions_exclusive(self):
        with pytest.raises(ValueError, match="mutually exclusive"):
            UserSpec(1, 1, 3, ((0, 15),))

    def test_offsets_sampled_from_seed(self):
        sc = perm_scenario(P35, [(1, 1, None), (2, 2, None)], 15)
        assert sc.resolved_offsets() == sc.resolved_offsets()
        other = Scenario(sc.params, sc.users, sc.duration, seed=99)
        assert sc.resolved_offsets() != other.resolved_offsets()

    def test_spans_of_both_user_kinds(self):
        users = (UserSpec(4, 1, 6), UserSpec(2, 2, None, ((3, 20), (40, 60))), UserSpec(9, 0))
        sc = Scenario(P35, users, 50, seed=5)
        tau = sc.resolved_offsets()[9]
        # a permanent user's span starts one period early, so [0, tau) is covered
        assert sc.spans() == {4: ((-9, 50),), 2: ((3, 20), (40, 60)), 9: ((tau - 15, 50),)}


class TestSimulate:
    def test_single_user_throughput_is_duty_factor(self):
        for off in (0, 7):
            sc = perm_scenario(P35, [(1, 1, off)], 15)
            trace = simulate(sc)
            assert trace.system_throughput == Fraction(1, 3)
            assert trace.succeeded[1] == 5 and trace.sent[1] == 5

    def test_single_user_signal_mirrors_sequence(self):
        sc = perm_scenario(P35, [(7, 1, 0)], 15)
        assert str(channel_activity(simulate(sc))) == "111110000000000"

    def test_empty_scenario_is_all_idle(self):
        trace = simulate(Scenario(P35, (), 15))
        assert str(channel_activity(trace)) == "0" * 15
        assert trace.total_successes == 0

    def test_two_users_lose_exactly_the_overlap(self):
        sc = perm_scenario(P35, [(1, 1, 0), (2, 2, 0)], 15)
        trace = simulate(sc)
        assert trace.total_successes == 6  # each weight 5, overlap 2 at zero offset
        assert trace.succeeded == {1: 3, 2: 3}

    def test_per_user_successes_match_correlation(self):
        params = CrtParams(5, 9)
        s1, s3 = generate_sequence(1, params), generate_sequence(3, params)
        for off in (0, 11, 40):
            sc = perm_scenario(params, [(1, 1, 0), (3, 3, off)], params.L)
            trace = simulate(sc)
            overlap = hamming_correlation(s1, s3.shifted(off), 0)
            assert trace.succeeded[1] == 9 - overlap
            assert trace.succeeded[3] == 9 - overlap

    def test_three_user_successes_bounded_by_pairwise_overlaps(self):
        params = CrtParams(5, 9)
        seqs = {g: generate_sequence(g, params) for g in (1, 2, 3)}
        offs = {1: 0, 2: 13, 3: 31}
        sc = perm_scenario(params, [(g, g, off) for g, off in offs.items()], params.L)
        trace = simulate(sc)
        for g in offs:
            lost_at_most = sum(
                hamming_correlation(seqs[g].shifted(offs[g]), seqs[h].shifted(offs[h]), 0)
                for h in offs
                if h != g
            )
            assert 9 - lost_at_most <= trace.succeeded[g] <= 9

    def test_offset_delays_the_schedule(self):
        sc = perm_scenario(P35, [(1, 1, 2)], 15)
        trace = simulate(sc)
        support = set((generate_sequence(1, P35).support() + 2) % 15)
        assert {t for t in range(15) if trace.n_senders[t] == 1} == support

    def test_deterministic_with_seed(self):
        sc = perm_scenario(P35, [(1, 1, None), (2, 2, None)], 45)
        a, b = simulate(sc), simulate(sc)
        assert np.array_equal(a.n_senders, b.n_senders)

    def test_collision_outcome(self):
        outcomes = assert_matches_definition(perm_scenario(P35, [(1, 1, 0), (2, 2, 0)], 15))
        assert outcomes[0] == ("collision", (1, 2))
        assert outcomes[1] == ("success", 1)
        assert outcomes[5] == ("idle",)

    @given(scenarios())
    @settings(max_examples=200, deadline=None)
    def test_matches_definition(self, scenario):
        assert_matches_definition(scenario)

    def test_sessions_restart_the_schedule(self):
        # session [20, 35): transmissions at 20 + support
        sc = Scenario(P35, (UserSpec(1, 1, None, ((20, 35),)),), 40)
        trace = simulate(sc)
        busy = set(np.flatnonzero(trace.n_senders).tolist())
        assert busy == {20 + int(t) for t in generate_sequence(1, P35).support()}

    def test_session_clipped_by_duration(self):
        sc = Scenario(P35, (UserSpec(1, 0, None, ((0, 30),)),), 20)
        trace = simulate(sc)
        assert trace.sent[1] == 5 + 2  # full period plus ones at 15, 18


class TestBounds:
    def test_single_user_bound_is_duty_factor(self):
        assert throughput_lower_bound(5, 2, 1) == Fraction(1, 5)
        assert throughput_lower_bound(37, 4, 1) == Fraction(1, 37)

    def test_two_user_example(self):
        assert throughput_lower_bound(5, 2, 2) == Fraction(12, 45)

    def test_clamped_at_zero(self):
        assert throughput_lower_bound(3, 2, 3) == 0

    def test_rejects_bad_user_count(self):
        with pytest.raises(ValueError):
            throughput_lower_bound(5, 2, 6)
        with pytest.raises(ValueError):
            throughput_lower_bound(5, 2, 0)

    def test_optimal_user_count_small(self):
        exact, floored = optimal_user_count(5, 2)
        assert exact == 2 and floored == 2

    def test_optimal_user_count_approaches_half_p_plus_one(self):
        exact, floored = optimal_user_count(37, 10_000)
        assert floored == 18  # exact value 19k/(k+1) stays strictly below 19
        assert exact < 19
        assert 19 - exact < Fraction(1, 500)

    def test_peak_bound_small(self):
        assert peak_throughput_bound(5, 2) == Fraction(1, 5)

    def test_peak_bound_limit(self):
        # as k grows the bound tends to 0.25*(p+1)^2/p^2 - 1/p^2
        limit = 0.25 * (38 / 37) ** 2 - 1 / 37**2
        assert abs(limit - 0.263) < 5e-4
        assert abs(float(peak_throughput_bound(37, 10_000)) - limit) < 1e-4

    def test_peak_bound_values_used_downstream(self):
        assert 0.24 <= float(peak_throughput_bound(101, 20)) <= 0.25

    def test_construction_params(self):
        params = construction_params(5, 2)
        assert (params.p, params.q, params.L) == (5, 9, 45)

    @pytest.mark.parametrize("p, k", [(4, 2), (5, 0), (5, -1), (5, -3), (2, 2)])
    def test_bounds_reject_parameters_outside_the_family(self, p, k):
        with pytest.raises(ValueError):
            peak_throughput_bound(p, k)
        with pytest.raises(ValueError):
            optimal_user_count(p, k)
        with pytest.raises(ValueError):
            throughput_lower_bound(p, k, 1)


class TestThroughputExperiments:
    def test_single_user_is_constant(self):
        rep = monte_carlo_throughput(5, 2, 1, trials=50, seed=0)
        assert rep.minimum == rep.maximum == 1 / 5
        assert rep.mean == pytest.approx(1 / 5)

    def test_deterministic_given_seed(self):
        a = monte_carlo_throughput(5, 2, 3, trials=200, seed=7)
        b = monte_carlo_throughput(5, 2, 3, trials=200, seed=7)
        assert a == b

    def test_sampled_throughput_respects_worst_case(self):
        rep = monte_carlo_throughput(5, 2, 3, trials=500, seed=1)
        assert rep.minimum >= float(throughput_lower_bound(5, 2, 3))

    def test_exhaustive_pair_meets_bound(self):
        rep = exhaustive_pair_throughput(5, 2, (1, 2))
        assert rep.trials == 45 * 45
        assert rep.minimum == pytest.approx(12 / 45)
        assert rep.minimum >= float(peak_throughput_bound(5, 2))

    def test_adversarial_search_respects_bound(self):
        found = adversarial_min_throughput(5, 2, (1, 2, 3), restarts=10, seed=3)
        assert found >= float(throughput_lower_bound(5, 2, 3))

    def test_adversarial_search_respects_bound_four_users(self):
        found = adversarial_min_throughput(7, 3, (1, 2, 4, 6), restarts=8, seed=11)
        assert found >= float(throughput_lower_bound(7, 3, 4))

    @pytest.mark.parametrize(
        "m_users, trials, named",
        [(0, 10, "m_users=0"), (-1, 10, "m_users=-1"), (2, 0, "trials=0"), (2, -5, "trials=-5")],
    )
    def test_monte_carlo_rejects_degenerate_input(self, m_users, trials, named):
        with pytest.raises(ValueError, match=named):
            monte_carlo_throughput(5, 2, m_users, trials=trials, seed=0)

    def test_adversarial_search_rejects_degenerate_input(self):
        with pytest.raises(ValueError, match="generator"):
            adversarial_min_throughput(5, 2, ())
        with pytest.raises(ValueError, match="restarts=0"):
            adversarial_min_throughput(5, 2, (1, 2), restarts=0)

    def test_adversarial_search_results_are_pinned(self):
        # the greedy path's exact results: 13 and 40 successes per period
        assert adversarial_min_throughput(5, 2, (1, 2, 3), restarts=10, seed=3) == 13 / 45
        assert adversarial_min_throughput(7, 3, (1, 2, 4, 6), restarts=8, seed=11) == 40 / 140


def oracle_success_counts(offsets, generators, params):
    """Slots with exactly one transmitter per offset row, by counting every
    slot of the period: the L-slot bincount the column kernel replaced."""
    L = params.L
    supports = [generate_sequence(g, params).support() for g in generators]
    offsets = np.asarray(offsets, dtype=np.int64)
    rows = np.arange(offsets.shape[0])[:, None] * L
    pos = [(s[None, :] + offsets[:, u, None]) % L + rows for u, s in enumerate(supports)]
    counts = np.bincount(
        np.concatenate(pos, axis=1).ravel(), minlength=offsets.shape[0] * L
    ).reshape(-1, L)
    return (counts == 1).sum(axis=1)


def oracle_pair_throughput(p, k, generators):
    """exhaustive_pair_throughput by enumerating all L^2 offset pairs."""
    params = construction_params(p, k)
    L = params.L
    grid = np.stack(np.meshgrid(np.arange(L), np.arange(L), indexing="ij"), axis=-1)
    thr = oracle_success_counts(grid.reshape(-1, 2), generators, params) / L
    return L * L, float(thr.min()), float(thr.mean()), float(thr.max())


@st.composite
def kernel_cases(draw):
    """Parameters (p up to 67, so two words per column), a generator set
    (every generator, as monte_carlo_throughput uses at M = p, or any
    subset, generator 0 allowed) and offset rows with repeats and the
    extreme delays 0 and L - 1."""
    p = draw(st.sampled_from([3, 5, 7, 37, 67]))
    q = draw(st.integers(2, 2 * p + 3).filter(lambda q: math.gcd(p, q) == 1))
    params = CrtParams(p, q, draw(st.sampled_from(list(Variant))))
    L = params.L
    if draw(st.booleans()):
        gens = tuple(range(p))
    else:
        gens = tuple(draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=8, unique=True)))
    delay = st.one_of(st.sampled_from([0, L - 1]), st.integers(0, L - 1))
    row = st.lists(delay, min_size=len(gens), max_size=len(gens))
    rows = draw(st.lists(row, min_size=1, max_size=8))
    rows += draw(st.lists(st.sampled_from(rows), max_size=2))  # repeated rows
    return params, gens, np.array(rows, dtype=np.int64)


class TestSuccessCounter:
    @given(kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_slot_counting(self, case):
        params, gens, offsets = case
        assert np.array_equal(
            _SuccessCounter(params, gens)(offsets), oracle_success_counts(offsets, gens, params)
        )

    def test_two_words_per_column(self):
        params = construction_params(67, 2)  # q = 133, W = 2
        gens = tuple(range(67))
        rng = np.random.default_rng(5)
        offsets = rng.integers(0, params.L, size=(40, 67))
        offsets[0] = 0
        offsets[1] = params.L - 1
        offsets[2, 1::2] = offsets[2, ::2][:33]  # pairs of users share a delay
        counts = _SuccessCounter(params, gens)(offsets)
        assert np.array_equal(counts, oracle_success_counts(offsets, gens, params))
        # at one common delay the p generators meet only in columns 0 and p
        assert counts[0] == 67 * (133 - 2)

    def test_spans_several_batches(self):
        params = construction_params(5, 2)
        gens = (0, 2, 4)
        offsets = np.random.default_rng(2).integers(0, params.L, size=(5000, 3))  # two batches
        assert np.array_equal(
            _SuccessCounter(params, gens)(offsets), oracle_success_counts(offsets, gens, params)
        )

    def test_rejects_generator_outside_field(self):
        with pytest.raises(ValueError, match="generator"):
            _SuccessCounter(construction_params(5, 2), (1, 5))


@pytest.mark.parametrize(("p", "k"), [(5, 2), (7, 2), (7, 3)])
def test_exhaustive_pair_matches_enumeration(p, k):
    for pair in combinations(range(p), 2):
        rep = exhaustive_pair_throughput(p, k, pair)
        trials, lo, mean, hi = oracle_pair_throughput(p, k, pair)
        assert (rep.trials, rep.minimum, rep.maximum) == (trials, lo, hi), pair
        assert abs(rep.mean - mean) <= 1e-12, pair
        assert rep.mean == float(Fraction(2 * (p - 1), p * p))  # 2q(L - q)/L^2, rounded once


def three_user_counts(p, k, generators):
    """Success counts of every offset triple with user 0 at delay 0: by
    shift invariance these are all the values the L^3 triples take."""
    params = construction_params(p, k)
    L = params.L
    b, c = np.meshgrid(np.arange(L), np.arange(L), indexing="ij")
    offsets = np.stack([np.zeros(L * L, dtype=np.int64), b.ravel(), c.ravel()], axis=1)
    return _SuccessCounter(params, generators)(offsets)


def test_fixing_one_delay_loses_no_offset_triple():
    params = construction_params(5, 2)
    grid = np.stack(np.meshgrid(*[np.arange(params.L)] * 3, indexing="ij"), axis=-1)
    every = _SuccessCounter(params, (0, 1, 3))(grid.reshape(-1, 3))
    fixed = three_user_counts(5, 2, (0, 1, 3))
    assert np.array_equal(np.bincount(every), params.L * np.bincount(fixed))


@pytest.mark.parametrize(("p", "k"), [(5, 2), (7, 2), (7, 3)])
def test_exhaustive_three_user_worst_case_meets_bound(p, k):
    L = construction_params(p, k).L
    bound = throughput_lower_bound(p, k, 3)
    for gens in combinations(range(p), 3):
        worst = int(three_user_counts(p, k, gens).min())
        assert Fraction(worst, L) >= bound, gens
        found = adversarial_min_throughput(p, k, gens, restarts=4, seed=sum(gens))
        assert found >= worst / L, gens  # both count / L, so the order is exact


class TestScenarioJson:
    def test_round_trip(self):
        sc = Scenario(
            CrtParams(7, 8, Variant.MODIFIED),
            (UserSpec(1, 1, 0), UserSpec(3, 3, None, ((2, 60),))),
            duration=70,
            seed=5,
        )
        again = scenario_from_json(json.dumps(scenario_to_json(sc)))
        assert again == sc

    def test_defaults(self):
        sc = scenario_from_json(
            {"p": 3, "q": 5, "duration": 15, "users": [{"id": 1, "g": 1, "offset": 0}]}
        )
        assert sc.params.variant is Variant.STANDARD
        assert sc.seed == 0
        assert sc.users[0].sessions is None
