import json
import math
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtseq.core import BinarySequence, CrtParams, Variant, generate_sequence
from crtseq.channel import (
    BLOCK_SLOTS,
    _DRAW_ROWS,
    _SuccessCounter,
    Scenario,
    ThroughputReport,
    UserSpec,
    activity_text,
    channel_activity,
    construction_params,
    exhaustive_pair_throughput,
    monte_carlo_throughput,
    optimal_user_count,
    peak_throughput_bound,
    scenario_from_json,
    simulate,
    simulate_blocks,
    throughput_lower_bound,
)
from oracles import (
    activity_from_string,
    brute_spectrum,
    hamming_correlation,
    scenario_to_json,
    user_counts,
)

P35 = CrtParams(3, 5)


def perm_scenario(params, spec, duration):
    users = tuple(UserSpec(uid, g, off) for uid, g, off in spec)
    return Scenario(params, users, duration)


def delayed(seq, tau):
    """The schedule t -> seq(t - tau): the sequence delayed by tau slots."""
    return BinarySequence(np.roll(seq.bits, tau))


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


def successes(trace):
    """Slots of the trace with exactly one transmitter."""
    return int(np.count_nonzero(trace.n_senders == 1))


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
    for a in (trace.transmission_slot, trace.transmission_rank, trace.ids):
        assert a.dtype == np.int64
    ids = [u.user_id for u in scenario.users]
    assert trace.ids.tolist() == sorted(ids)
    senders = trace.ids[trace.transmission_rank]
    assert list(zip(trace.transmission_slot.tolist(), senders.tolist())) == pairs
    sent, succeeded = user_counts(trace)
    assert sent == {u: sum(u in s for s in per_slot) for u in ids}
    assert succeeded == {u: outcomes.count(("success", u)) for u in ids}
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


# block sizes of simulate_blocks, by the scenario's period and duration
BLOCK_SIZES = {
    "1": lambda sc: 1,
    "7": lambda sc: 7,
    "L-1": lambda sc: sc.params.L - 1,
    "L": lambda sc: sc.params.L,
    "L+1": lambda sc: sc.params.L + 1,
    "past the duration": lambda sc: sc.duration + 5,
}

# three session users at (5, 51), L = 255, over two blocks of BLOCK_SLOTS and
# a bit: sessions straddle both block edges, and the last one runs past the
# end of the run
LONG_SESSIONS = Scenario(
    CrtParams(5, 51, Variant.MODIFIED),
    (UserSpec(1, 1, None, ((100, 65_600), (66_000, 131_000))),
     UserSpec(-2, 2, None, ((65_000, 131_100),)),
     UserSpec(7, 4, None, ((0, 40_000), (131_000, 140_000)))),
    2 * BLOCK_SLOTS + 1000,
)
# the scenarios that each block size splits, by test id: every size of
# BLOCK_SIZES on small scenarios, and the CLI's BLOCK_SLOTS on a long one
SPLITS = {size: (scenarios(), block) for size, block in BLOCK_SIZES.items()}
SPLITS["BLOCK_SLOTS"] = (st.just(LONG_SESSIONS), lambda sc: BLOCK_SLOTS)


class TestActivitySignal:
    def test_string_round_trip(self):
        sig = activity_from_string("01*10")
        assert sig.dtype == np.int8
        assert activity_text(sig) == "01*10"
        assert sig.tolist() == [0, 1, 2, 1, 0]
        assert activity_text(np.array([True, False])) == activity_text([1, 0]) == "10"
        assert activity_text([]) == activity_text(activity_from_string("")) == ""

    def test_rejects_bad_codes(self):
        # -1 would index to *, 3 past the table
        for codes in ([0, 3], np.array([-1, 1], dtype=np.int8), [1.0]):
            with pytest.raises(ValueError, match="activity codes must be 0, 1 or 2"):
                activity_text(codes)
        with pytest.raises(ValueError, match="'x' at position 2"):
            activity_from_string("01x*")
        # positions count characters of the stripped text, not encoded bytes
        with pytest.raises(ValueError, match="'é' at position 3"):
            activity_from_string("\n 01*é1 ")
        with pytest.raises(ValueError, match="'★' at position 1"):
            activity_from_string("0★x")
        with pytest.raises(ValueError, match=re.escape("'\\udc80' at position 2")):
            activity_from_string("01\udc80")  # a lone surrogate has no encoding

    @settings(max_examples=25)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 100_000))
    def test_long_string_round_trip(self, seed, length):
        text = "".join(np.random.default_rng(seed).choice(list("01*"), size=length))
        assert activity_text(activity_from_string(text)) == text


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

    def test_sampled_offsets_are_the_recorded_draws(self):
        # recorded while the Generator was built for every scenario: drawing
        # only where an offset is unspecified keeps the draws in user order
        params = CrtParams(7, 101, Variant.MODIFIED)
        users = (UserSpec(5, 1, None), UserSpec(2, 2, 40),
                 UserSpec(9, 3, None, ((0, 707),)), UserSpec(-3, 4, None))
        drawn = {seed: Scenario(params, users, 1000, seed=seed).resolved_offsets()
                 for seed in (0, 2024)}
        assert drawn == {0: {5: 601, 2: 40, -3: 450}, 2024: {5: 170, 2: 40, -3: 477}}

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
            assert Fraction(successes(trace), sc.duration) == Fraction(1, 3)
            assert user_counts(trace) == ({1: 5}, {1: 5})

    def test_single_user_signal_mirrors_sequence(self):
        sc = perm_scenario(P35, [(7, 1, 0)], 15)
        signal = channel_activity(simulate(sc))
        assert signal.dtype == np.int8 and signal.ndim == 1
        assert activity_text(signal) == "111110000000000"

    def test_empty_scenario_is_all_idle(self):
        trace = simulate(Scenario(P35, (), 15))
        assert activity_text(channel_activity(trace)) == "0" * 15
        assert successes(trace) == 0

    def test_two_users_lose_exactly_the_overlap(self):
        sc = perm_scenario(P35, [(1, 1, 0), (2, 2, 0)], 15)
        trace = simulate(sc)
        assert successes(trace) == 6  # each weight 5, overlap 2 at zero offset
        assert user_counts(trace)[1] == {1: 3, 2: 3}

    def test_per_user_successes_match_correlation(self):
        params = CrtParams(5, 9)
        s1, s3 = generate_sequence(1, params), generate_sequence(3, params)
        for off in (0, 11, 40):
            sc = perm_scenario(params, [(1, 1, 0), (3, 3, off)], params.L)
            overlap = hamming_correlation(s1, delayed(s3, off), 0)
            assert user_counts(simulate(sc))[1] == {1: 9 - overlap, 3: 9 - overlap}

    def test_three_user_successes_bounded_by_pairwise_overlaps(self):
        params = CrtParams(5, 9)
        seqs = {g: generate_sequence(g, params) for g in (1, 2, 3)}
        offs = {1: 0, 2: 13, 3: 31}
        sc = perm_scenario(params, [(g, g, off) for g, off in offs.items()], params.L)
        succeeded = user_counts(simulate(sc))[1]
        for g in offs:
            lost_at_most = sum(
                hamming_correlation(delayed(seqs[g], offs[g]), delayed(seqs[h], offs[h]), 0)
                for h in offs
                if h != g
            )
            assert 9 - lost_at_most <= succeeded[g] <= 9

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
        assert user_counts(simulate(sc))[0] == {1: 5 + 2}  # full period plus ones at 15, 18


class TestSimulateBlocks:
    @pytest.mark.parametrize("size", SPLITS)
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_blocks_concatenate_to_the_run(self, size, data):
        runs, block_of = SPLITS[size]
        scenario = data.draw(runs)
        block = block_of(scenario)
        blocks = list(simulate_blocks(scenario, block))
        trace = simulate(scenario)
        assert trace.lo == 0
        assert [b.lo for b in blocks] == list(range(0, scenario.duration, block))
        for b in blocks:
            hi = min(b.lo + block, scenario.duration)
            assert b.n_senders.size == hi - b.lo
            assert np.all((b.lo <= b.transmission_slot) & (b.transmission_slot < hi))
            assert b.ids.dtype == trace.ids.dtype
            assert np.array_equal(b.ids, trace.ids)
        for field in ("n_senders", "transmission_slot", "transmission_rank"):
            joined = np.concatenate([getattr(b, field) for b in blocks])
            assert joined.dtype == getattr(trace, field).dtype
            assert np.array_equal(joined, getattr(trace, field)), field

    def test_rejects_an_empty_block(self):
        sc = perm_scenario(P35, [(1, 1, 0)], 15)
        for block in (0, -1):
            with pytest.raises(ValueError, match="block must be a positive number of slots"):
                next(simulate_blocks(sc, block))

    def test_first_block_of_a_huge_horizon(self):
        # 2**62 slots: a block costs its own slots, whatever the horizon
        users = ((1, 1, 0), (2, 2, 4), (3, 0, None))
        huge = next(simulate_blocks(perm_scenario(P35, users, 2**62), BLOCK_SLOTS))
        small = simulate(perm_scenario(P35, users, BLOCK_SLOTS))
        assert huge.lo == 0
        for field in ("n_senders", "transmission_slot", "transmission_rank", "ids"):
            assert np.array_equal(getattr(huge, field), getattr(small, field))

    def test_streamed_run_holds_one_block(self):
        # three permanent users of (5, 51) streamed in blocks of BLOCK_SLOTS:
        # ten times the duration, about the same traced peak
        params = CrtParams(5, 51, Variant.MODIFIED)
        users = ((1, 0, 17), (2, 1, 100), (3, 3, 254))
        peaks = []
        for blocks in (3, 30):
            sc = perm_scenario(params, users, blocks * BLOCK_SLOTS + 123)
            tracemalloc.start()
            try:
                for b in simulate_blocks(sc, BLOCK_SLOTS):
                    assert b.transmission_slot.size > 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.25 * peaks[0]

    def test_session_that_straddles_blocks(self):
        # one session of 3 periods and a bit, cut into blocks of 4 slots:
        # every block restarts the expansion mid-period
        sc = Scenario(P35, (UserSpec(1, 1, None, ((7, 53),)),), 60)
        busy = [int(t) for b in simulate_blocks(sc, 4) for t in b.transmission_slot]
        support = generate_sequence(1, P35).support().tolist()
        assert busy == [t for t in range(7, 53) if (t - 7) % 15 in support]


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

    def test_exhaustive_pair_rejects_equal_generators(self):
        with pytest.raises(ValueError, match="generators must differ"):
            exhaustive_pair_throughput(5, 2, (2, 2))

    @pytest.mark.parametrize(
        "m_users, trials, named",
        [(0, 10, "m_users=0"), (-1, 10, "m_users=-1"), (2, 0, "trials=0"), (2, -5, "trials=-5")],
    )
    def test_monte_carlo_rejects_degenerate_input(self, m_users, trials, named):
        with pytest.raises(ValueError, match=named):
            monte_carlo_throughput(5, 2, m_users, trials=trials, seed=0)


def oracle_success_counts(offsets, generators, params):
    """Slots with exactly one transmitter per offset row, by counting every
    slot of the period with one L-slot bincount per row."""
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
    """Parameters (p up to 67, so L from 6 slots to rows of many words), a generator set
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
        params = construction_params(67, 2)  # L = 8911: 140 words per row, 15 slots in the last
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

    @pytest.mark.parametrize("variant", list(Variant))
    def test_fewer_slots_than_one_word(self, variant):
        params = CrtParams(3, 2, variant)  # L = 6: one word, 58 bits masked
        grid = np.stack(np.meshgrid(*[np.arange(params.L)] * 3, indexing="ij"), axis=-1)
        offsets = grid.reshape(-1, 3)  # every offset triple
        assert np.array_equal(
            _SuccessCounter(params, (0, 1, 2))(offsets),
            oracle_success_counts(offsets, (0, 1, 2), params),
        )

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize(("p", "q"), [(3, 64), (5, 13)])  # L = 192 = 3*64, L = 65 = 64 + 1
    def test_period_at_a_word_boundary(self, p, q, variant):
        params = CrtParams(p, q, variant)
        gens = tuple(range(p))
        offsets = np.random.default_rng(p * q).integers(0, params.L, size=(200, p))
        offsets[0] = 0
        offsets[1] = params.L - 1
        offsets[2] = np.arange(p) * 63 % params.L  # delays that cross word boundaries
        assert np.array_equal(
            _SuccessCounter(params, gens)(offsets), oracle_success_counts(offsets, gens, params)
        )

    @pytest.mark.parametrize("bad", [-1, 45])
    def test_rejects_offset_outside_period(self, bad):
        count = _SuccessCounter(construction_params(5, 2), (1, 2))  # L = 45
        with pytest.raises(ValueError, match=f"offset {bad} outside 0..44"):
            count(np.array([[0, 3], [bad, 7]]))

    @pytest.mark.parametrize(
        "offsets",
        [[[0, 3, 7], [1, 2, 40]], [[0], [1]], [0, 3], [[[0, 3]]]],
        ids=["extra-column", "short-row", "one-dimensional", "three-dimensional"],
    )
    def test_rejects_offsets_of_another_shape(self, offsets):
        count = _SuccessCounter(construction_params(5, 2), (1, 2))
        with pytest.raises(ValueError, match=re.escape("offsets must have shape (n, 2)")):
            count(np.array(offsets))

    @pytest.mark.parametrize("variant", list(Variant))
    def test_byte_windows_at_every_delay(self, variant):
        params = CrtParams(3, 67, variant)  # L = 201 = 3*64 + 9: four words
        L = params.L
        tau = np.arange(L)
        offsets = np.concatenate([np.stack([np.full(L, first), tau], axis=1)
                                  for first in (0, L - 1)])
        count = _SuccessCounter(params, (1, 2))
        assert np.array_equal(count(offsets), oracle_success_counts(offsets, (1, 2), params))
        for windows in count._windows:
            with pytest.raises(ValueError, match="read-only"):
                windows[0, 0] = 0

    @pytest.mark.parametrize("m_users", [1, 2, 19])  # odd M: a chunk draws an odd word count
    @pytest.mark.parametrize(
        "trials", [_DRAW_ROWS - 1, _DRAW_ROWS, _DRAW_ROWS + 1, 2 * _DRAW_ROWS + 1]
    )
    def test_chunked_draws_keep_the_stream(self, trials, m_users):
        params = construction_params(37, 2)  # L = 2701
        gens = tuple(range(1, m_users + 1))
        offsets = np.random.default_rng(23).integers(0, params.L, size=(trials, m_users))
        thr = _SuccessCounter(params, gens)(offsets) / params.L
        assert monte_carlo_throughput(37, 2, m_users, trials, seed=23) == ThroughputReport(
            trials, float(thr.min()), float(thr.mean()), float(thr.max())
        )

    def test_multi_word_reports_are_pinned(self):
        # recorded from the column kernel this one replaced, which stored one
        # ceil(p/64)-word p-bit mask per CRT column
        assert monte_carlo_throughput(67, 2, 67, trials=300, seed=7) == ThroughputReport(
            300, 0.3556278756592975, 0.3705525006546216, 0.38435641342161375
        )
        assert monte_carlo_throughput(131, 2, 60, trials=300, seed=11) == ThroughputReport(
            300, 0.28609868093942853, 0.29141752702953017, 0.2960720657482963
        )

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


def test_exhaustive_pair_matches_brute_spectrum():
    # q = 274 and q^2 > 2^16: the spectrum kernel counts the pair in two row slices
    params = construction_params(11, 25)
    a, b = (generate_sequence(g, params) for g in (1, 2))
    L = params.L
    succ = [a.weight + b.weight - 2 * c for c in brute_spectrum(a, b)]
    assert exhaustive_pair_throughput(11, 25, (1, 2)) == ThroughputReport(
        L * L, min(succ) / L, float(Fraction(sum(succ), L * L)), max(succ) / L
    )


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


class TestScenarioJson:
    def test_round_trip(self):
        sc = Scenario(
            CrtParams(7, 8, Variant.MODIFIED),
            (UserSpec(1, 1, 0), UserSpec(3, 3, None, ((2, 60),))),
            duration=70,
            seed=5,
        )
        again = scenario_from_json(json.loads(json.dumps(scenario_to_json(sc))))
        assert again == sc

    def test_defaults(self):
        sc = scenario_from_json(
            {"p": 3, "q": 5, "duration": 15, "users": [{"id": 1, "g": 1, "offset": 0}]}
        )
        assert sc.params.variant is Variant.STANDARD
        assert sc.seed == 0
        assert sc.users[0].sessions is None
