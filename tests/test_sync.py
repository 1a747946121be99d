import functools
import hashlib
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtseq.core import (
    CrtParams,
    BinarySequence,
    GridPoint,
    Variant,
    crt_map,
    generate_sequence,
)
from crtseq.channel import (
    BLOCK_SLOTS,
    IDLE,
    Scenario,
    UserSpec,
    channel_activity,
    scenario_from_json,
    simulate,
    simulate_blocks,
)
from crtseq.sync import (
    Activated,
    ActivityDetector,
    Deactivated,
    GuaranteeLevel,
    judge,
    partial_cross_correlation,
    run_detector,
    slot_matrix,
    sync_guarantee,
)
from oracles import characteristic_set
from test_channel import scenarios

M78 = CrtParams(7, 8, Variant.MODIFIED)
M551 = CrtParams(5, 51, Variant.MODIFIED)

FAILURE_SCENARIO = Scenario(
    M78,
    (
        UserSpec(1, 1, 0),
        UserSpec(2, 2, 0),
        UserSpec(3, 3, 1),
        UserSpec(4, 4, 1),
        UserSpec(6, 6, 1),
    ),
    duration=58,
)


def lone_signal(params, g, offset, duration):
    sc = Scenario(params, (UserSpec(g, g, offset),), duration)
    return channel_activity(simulate(sc))


def session_scenario(params, seed, duration):
    """Each generator 1..p-1 in sessions of 1..6 periods with rests of 1..3
    periods between them, drawn from random.Random(seed)."""
    rng, L, users = random.Random(seed), params.L, []
    for g in range(1, params.p):
        spans, t = [], rng.randrange(L)
        while t < duration:
            end = t + rng.randint(L, 6 * L)
            spans.append((t, end))
            t = end + rng.randint(L, 3 * L)
        users.append(UserSpec(g, g, None, tuple(spans)))
    return Scenario(params, tuple(users), duration)


def push_each(detector, signal):
    """Events of pushing the signal one symbol (a Python int) at a time."""
    return [ev for c in signal.tolist() for ev in detector.push(c)]


def is_matched(signal, seq: BinarySequence, t0: int) -> bool:
    """The matching rule read off its definition: every one of the sequence
    sees a non-idle symbol in the window [t0, t0 + L)."""
    codes = np.asarray(signal)
    L = len(seq)
    if t0 < 0 or t0 + L > codes.size:
        raise ValueError(f"window [{t0}, {t0 + L}) not covered by the signal")
    return bool(np.all(codes[t0 + seq.support()] != IDLE))


def reference_events(codes, params):
    """The detection rule read off its definition: is_matched at every
    start for every generator 1..p-1; an idle generator that matches is
    activated there, an active one is dropped at the first whole period
    after its start whose window does not match."""
    L = params.L
    seqs = {g: generate_sequence(g, params) for g in range(1, params.p)}
    start = dict.fromkeys(seqs)
    events = []
    for t0 in range(codes.size - L + 1):
        for g, seq in seqs.items():
            matched = is_matched(codes, seq, t0)
            if start[g] is None:
                if matched:
                    start[g] = t0
                    events.append(Activated(g, t0))
            elif (t0 - start[g]) % L == 0 and not matched:
                start[g] = None
                events.append(Deactivated(g, t0))
    return events


@st.composite
def chunked_signals(draw):
    """Small modified-variant parameters, a seeded 0/1/2 signal of up to
    four periods that is busy enough to activate users (idle at most one
    slot in four), and cut points that may repeat (empty chunks)."""
    p = draw(st.sampled_from([3, 5, 7]))
    q = draw(st.integers(2, 16).filter(lambda q: q % p))
    params = CrtParams(p, q, Variant.MODIFIED)
    n = draw(st.integers(0, 3)) * params.L + draw(st.integers(0, params.L))
    idle_rate = draw(st.sampled_from([0, 1 / 64, 1 / 16, 1 / 8, 1 / 4]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = np.where(rng.random(n) < idle_rate, IDLE, rng.integers(1, 3, n)).astype(np.int8)
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=8)))
    return params, codes, cuts


class TestIsMatched:
    def test_lone_user_matches_at_its_offset(self):
        sig = lone_signal(M551, 3, 17, 3 * M551.L)
        seq = generate_sequence(3, M551)
        assert is_matched(sig, seq, 17)
        assert not is_matched(sig, seq, 18)

    def test_all_idle_never_matches(self):
        sig = np.zeros(2 * M78.L, dtype=np.int8)
        for g in range(1, 7):
            assert not is_matched(sig, generate_sequence(g, M78), 0)

    def test_matches_through_collisions(self):
        sig = channel_activity(simulate(FAILURE_SCENARIO))
        assert is_matched(sig, generate_sequence(6, M78), 0)

    def test_window_must_be_covered(self):
        sig = np.zeros(10, dtype=np.int8)
        with pytest.raises(ValueError):
            is_matched(sig, generate_sequence(1, M78), 0)


class TestDetector:
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("p, q", [(3, 2), (3, 10), (5, 12), (7, 8), (7, 101), (11, 243)])
    def test_every_sequence_has_a_one_at_slot_0(self, p, q, variant):
        # column 0 maps to grid point (0, 0), which is slot 0: a start whose
        # own slot is idle matches no user, which the one-symbol path uses
        params = CrtParams(p, q, variant)
        for g in range(p):
            assert generate_sequence(g, params).bits[0] == 1

    def test_lone_user_activates_at_true_start(self):
        sig = lone_signal(M551, 3, 17, 3 * M551.L)
        events = run_detector(sig, M551)
        assert events == [Activated(3, 17)]

    def test_single_period_session_deactivates_at_boundary(self):
        L = M551.L
        sc = Scenario(M551, (UserSpec(2, 2, None, ((10, 10 + L),)),), 10 + 3 * L)
        events = run_detector(channel_activity(simulate(sc)), M551)
        assert events == [Activated(2, 10), Deactivated(2, 10 + L)]

    def test_detector_state_tracks_events(self):
        sig = lone_signal(M551, 3, 17, 2 * M551.L)
        det = ActivityDetector(M551)
        events = det.push(sig)
        assert events == [Activated(3, 17)]
        assert det.start == {1: None, 2: None, 3: 17, 4: None}
        assert det.time == len(sig)

    def test_multi_session_user_reactivates(self):
        L = M551.L
        users = (
            UserSpec(2, 2, None, ((10, 10 + L), (10 + 2 * L, 10 + 3 * L))),
            UserSpec(4, 4, 100),
        )
        sig = channel_activity(simulate(Scenario(M551, users, 10 + 4 * L)))
        events = run_detector(sig, M551)
        assert events == [
            Activated(2, 10),
            Activated(4, 100),
            Deactivated(2, 10 + L),
            Activated(2, 10 + 2 * L),
            Deactivated(2, 10 + 3 * L),
        ]
        assert push_each(ActivityDetector(M551), sig) == events

    def test_no_decisions_before_first_full_window(self):
        sig = np.ones(M551.L - 1, dtype=np.int8)
        assert run_detector(sig, M551) == []
        det = ActivityDetector(M551)
        assert [e for c in sig for e in det.push(int(c))] == []

    def test_push_and_batch_agree(self):
        rng = np.random.default_rng(5)
        L = M78.L
        for _ in range(8):
            users = []
            for g in rng.choice(range(1, 7), size=3, replace=False):
                style = rng.integers(0, 3)
                a = int(rng.integers(0, L))
                if style == 0:
                    users.append(UserSpec(int(g), int(g), a))
                elif style == 1:
                    users.append(UserSpec(int(g), int(g), None, ((a, a + L),)))
                else:
                    users.append(
                        UserSpec(int(g), int(g), None, ((a, a + L), (a + 2 * L, a + 3 * L)))
                    )
            sc = Scenario(M78, tuple(users), duration=4 * L)
            sig = channel_activity(simulate(sc))
            assert push_each(ActivityDetector(M78), sig) == run_detector(sig, M78)

    @given(scenarios(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_detector_fed_block_by_block(self, scenario, data):
        # as sync streams a run: permanent users' spans start below slot 0,
        # sessions straddle the block edges, and the duration is mostly not
        # a multiple of the block
        L = scenario.params.L
        block = data.draw(st.integers(1, 3 * L) | st.just(scenario.duration + 1), label="block")
        det = ActivityDetector(scenario.params)
        streamed = [ev for b in simulate_blocks(scenario, block)
                    for ev in det.push(channel_activity(b))]
        assert det.time == scenario.duration
        assert streamed == run_detector(channel_activity(simulate(scenario)), scenario.params)

    @given(chunked_signals())
    @settings(max_examples=100, deadline=None)
    def test_chunked_push_matches_definition(self, case):
        params, codes, cuts = case
        det = ActivityDetector(params)
        chunked = []
        for chunk in np.split(codes, cuts):
            chunked += det.push(int(chunk[0]) if chunk.size == 1 else chunk)
        assert det.time == codes.size
        expected = reference_events(codes, params)
        assert chunked == expected
        assert run_detector(codes, params) == expected

    @given(st.sampled_from([(3, 19), (5, 51), (7, 101)]), st.integers(0, 40), st.integers(0, 7),
           st.sampled_from([0, 1 / 256, 1 / 64, 1 / 16, 1 / 2]), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_match_kernel_matches_definition(self, pq, whole_bytes, odd_bits, idle_rate, seed):
        # n of every residue mod 8 and offsets of every residue mod 8, so each
        # of the 8 byte shifts and a partial last byte are read; the kernel
        # reads the n + L - 1 held slots, here with their idle flags set bit
        # by bit
        params = CrtParams(*pq, Variant.MODIFIED)
        n = max(8 * whole_bytes + odd_bits, 1)
        det = ActivityDetector(params)
        assert {d & 7 for d in det._offsets.ravel().tolist()} == set(range(8))
        rng = np.random.default_rng(seed)
        codes = np.where(rng.random(n + params.L - 1) < idle_rate, IDLE, 1)
        seqs = [generate_sequence(g, params) for g in det.user_ids]
        expected = [[is_matched(codes, seq, t0) for t0 in range(n)] for seq in seqs]
        det._idle_slots = sum(1 << i for i in np.flatnonzero(codes == IDLE).tolist())
        det._held = codes.size
        assert det._matched(n) == [bytes(row) for row in expected]

    @given(st.sampled_from([M78, CrtParams(5, 12, Variant.MODIFIED)]),
           st.sampled_from([0, 1 / 64, 1 / 16]),
           st.integers(0, 2**32 - 1),
           st.lists(st.tuples(st.integers(1, 120), st.integers(1, 120)), min_size=4, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_single_pushes_between_long_chunks(self, params, idle_rate, seed, runs):
        # runs of one-symbol pushes alternate with chunks longer than 2L,
        # so the held slots pass between the two paths both ways; a channel
        # that is never idle matches every user at every start
        L = params.L
        lengths = [n for singles, extra in runs for n in (singles, 2 * L + extra)]
        rng = np.random.default_rng(seed)
        codes = np.where(rng.random(sum(lengths)) < idle_rate, IDLE,
                         rng.integers(1, 3, sum(lengths))).astype(np.int8)
        assert codes.size >= 5 * L
        det = ActivityDetector(params)
        events, t = [], 0
        for i, n in enumerate(lengths):
            if i % 2 == 0:
                events += push_each(det, codes[t : t + n])
            else:
                events += det.push(codes[t : t + n])
            t += n
        assert det.time == codes.size
        expected = reference_events(codes, params)
        assert events == expected == run_detector(codes, params)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_one_symbol_pushes_match_definition(self, data):
        # Python ints pushed one at a time over signals longer than 2L, so
        # every slot is held, decided and dropped by the one-symbol path:
        # idle every period-th slot (a period near L puts idle slots late in
        # most windows, where only the mask test sees them), never, always,
        # or at random sparse slots
        params = data.draw(st.sampled_from([M78, CrtParams(5, 12, Variant.MODIFIED), M551]))
        L = params.L
        n = data.draw(st.integers(2 * L + 1, 3 * L))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        busy = rng.integers(1, 3, n)
        kind = data.draw(st.sampled_from(["periodic", "busy", "idle", "sparse"]))
        if kind == "periodic":
            period = data.draw(st.integers(2, L + 1))
            idle = np.arange(n) % period == data.draw(st.integers(0, period - 1))
        elif kind == "sparse":
            idle = rng.random(n) < data.draw(st.sampled_from([1 / 64, 1 / 128, 1 / 512]))
        else:
            idle = np.full(n, kind == "idle")
        codes = np.where(idle, IDLE, busy).astype(np.int8)
        det = ActivityDetector(params)
        events = [ev for c in codes.tolist() for ev in det.push(c)]
        assert det.time == n
        assert events == reference_events(codes, params) == run_detector(codes, params)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_one_symbol_pushes_across_busy_and_idle_stretches(self, data):
        # long all-busy stretches activate every user, so the one-symbol
        # path returns before its mask tests until the wake time; sparse or
        # periodic idle stretches drop users again, so idle users are tested
        # at every start; some stretches go in as chunks between the
        # one-symbol pushes
        params = data.draw(st.sampled_from(
            [M78, CrtParams(5, 12, Variant.MODIFIED), CrtParams(7, 8, Variant.STANDARD),
             CrtParams(5, 12, Variant.STANDARD), CrtParams(3, 10, Variant.STANDARD)]))
        L = params.L
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        det = ActivityDetector(params)
        stretches, events = [], []
        for _ in range(data.draw(st.integers(2, 6))):
            n = data.draw(st.integers(1, 3 * L))
            kind = data.draw(st.sampled_from(["busy", "sparse", "periodic"]))
            if kind == "busy":
                idle = np.zeros(n, dtype=bool)
            elif kind == "sparse":
                idle = rng.random(n) < data.draw(st.sampled_from([1 / 8, 1 / 32, 1 / 128]))
            else:
                period = data.draw(st.integers(2, L + 1))
                idle = np.arange(n) % period == data.draw(st.integers(0, period - 1))
            codes = np.where(idle, IDLE, rng.integers(1, 3, n)).astype(np.int8)
            if data.draw(st.booleans()):
                events += [ev for c in codes.tolist() for ev in det.push(c)]
            else:
                events += det.push(codes)
            stretches.append(codes)
        codes = np.concatenate(stretches)
        assert det.time == codes.size
        assert events == reference_events(codes, params) == run_detector(codes, params)

    def test_one_symbol_path_after_every_user_was_active(self):
        # every user is active after an all-busy stretch; an idle stretch
        # then drops them one by one at their period boundaries, and a busy
        # stretch activates them again once the idle slots leave the window
        L = M551.L
        codes = np.concatenate([np.ones(2 * L, dtype=np.int8), np.zeros(L + 3, dtype=np.int8),
                                np.full(L + 20, 2, dtype=np.int8)])
        det = ActivityDetector(M551)
        events = push_each(det, codes)
        assert events == reference_events(codes, M551)
        assert [type(ev) for ev in events] == [Activated] * 4 + [Deactivated] * 4 + [Activated] * 4

    @pytest.mark.parametrize("one", [int, bool, np.bool_, np.int8, np.int64, np.uint8, np.array],
                             ids=["int", "bool", "bool_", "int8", "int64", "uint8", "0-d-array"])
    def test_one_symbol_forms_agree(self, one):
        L = M551.L
        users = (UserSpec(2, 2, None, ((10, 10 + L),)), UserSpec(4, 4, 100))
        sig = channel_activity(simulate(Scenario(M551, users, 10 + 3 * L)))
        det = ActivityDetector(M551)
        events = [ev for c in sig.tolist() for ev in det.push(one(c))]
        assert events == run_detector(sig, M551)
        assert Deactivated(2, 10 + L) in events

    @staticmethod
    def no_kernel(*args):
        raise AssertionError("a push of fewer than 2q symbols reached the chunk kernel")

    @pytest.mark.parametrize("one", [int, np.int8, np.uint8, np.bool_],
                             ids=["int", "int8", "uint8", "bool_"])
    def test_numpy_scalars_take_the_one_symbol_path(self, monkeypatch, one):
        # 3L one-symbol pushes decide a deactivation and two activations,
        # and no push may reach the chunk kernel
        L = M551.L
        users = (UserSpec(2, 2, None, ((10, 10 + L),)), UserSpec(4, 4, 100))
        sig = channel_activity(simulate(Scenario(M551, users, 3 * L)))
        expected = run_detector(sig, M551)
        assert expected == [Activated(2, 10), Activated(4, 100), Deactivated(2, 10 + L)]
        monkeypatch.setattr(ActivityDetector, "_matched", self.no_kernel)
        det = ActivityDetector(M551)
        assert [ev for c in sig.tolist() for ev in det.push(one(c))] == expected

    def test_short_pushes_take_the_one_symbol_path(self, monkeypatch):
        # arrays of 1 and 2q-1 symbols, a 0-d array and a list of 7 symbols
        # in turn, ten times over, on two sessions and a permanent user
        L, q = M551.L, M551.q
        users = (UserSpec(2, 2, None, ((10, 10 + L), (10 + 2 * L, 10 + 3 * L))),
                 UserSpec(4, 4, 100))
        forms = [(1, np.asarray), (2 * q - 1, np.asarray), (1, lambda c: np.array(c[0])),
                 (7, np.ndarray.tolist)]
        duration = 10 * sum(size for size, _ in forms)
        codes = channel_activity(simulate(Scenario(M551, users, duration)))
        expected = run_detector(codes, M551)
        assert expected == [Activated(2, 10), Activated(4, 100), Deactivated(2, 10 + L),
                            Activated(2, 10 + 2 * L), Deactivated(2, 10 + 3 * L)]
        monkeypatch.setattr(ActivityDetector, "_matched", self.no_kernel)
        det, events, t = ActivityDetector(M551), [], 0
        for _ in range(10):
            for size, form in forms:
                events += det.push(form(codes[t : t + size]))
                t += size
        assert det.time == codes.size
        assert events == expected

    def test_short_push_allocates_no_index_array(self):
        # after an all-busy window at (31, 1931), a push of 128 symbols once
        # built a (p-1)*q*128 index array, 63.6 MiB at its peak
        params = CrtParams(31, 1931, Variant.MODIFIED)
        det = ActivityDetector(params)
        assert len(det.push(np.ones(params.L, dtype=np.int8))) == 30
        chunk = np.ones(128, dtype=np.int8)
        tracemalloc.start()
        try:
            det.push(chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_chunk_pushes_hold_one_set_of_match_rows(self):
        # blocks 2..8 of a 500k-slot session trace at (7, 101), pushed in
        # 2^16 slots: a push holds (p-1)*2^16 bytes of match rows, about
        # 576 KiB at its peak; unpacking a matrix and copying its rows
        # beside it would take about 900 KiB
        params = CrtParams(7, 101, Variant.MODIFIED)
        codes = channel_activity(simulate(session_scenario(params, 9137, 500_000)))
        det = ActivityDetector(params)
        det.push(codes[:BLOCK_SLOTS])
        tracemalloc.start()
        try:
            for lo in range(BLOCK_SLOTS, codes.size, BLOCK_SLOTS):
                assert det.push(codes[lo : lo + BLOCK_SLOTS])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.75 * (params.p - 1) * BLOCK_SLOTS

    @pytest.mark.parametrize(
        "symbols",
        [7, -1, 3, np.int8(3), np.array(-1), np.full(15, 7), np.array([0, 1, 3]),
         np.array([9.5, 3.2]), np.array([0.0, 1.0]), 1.0, "1",
         # checked as given: a cast to int8 would wrap 256 to 0 and cut 1.9 to 1
         np.array([256, 1]), [1.9], np.array([0.5, 1.7])],
        ids=["7", "-1", "3", "int8-3", "0d-minus-1", "array-of-7", "array-with-3",
             "float-array", "integral-float-array", "float", "str",
             "array-with-256", "float-list", "fractional-array"],
    )
    def test_push_rejects_symbols_outside_alphabet(self, symbols):
        det = ActivityDetector(CrtParams(3, 5, Variant.MODIFIED))
        with pytest.raises(ValueError, match="activity codes must be 0, 1 or 2"):
            det.push(symbols)
        assert det.time == 0
        assert det.push(np.ones(15, dtype=np.int8)) == [Activated(1, 0), Activated(2, 0)]

    def test_empty_chunk_of_any_dtype_is_a_no_op(self):
        det = ActivityDetector(M78)
        assert det.push([]) == det.push(np.array([], dtype=float)) == []
        assert det.time == 0

    def test_push_rejects_multidimensional_input(self):
        # (2, 3) is short enough for the one-symbol path, were it flattened
        det = ActivityDetector(M78)
        for codes in (np.ones((2, M78.L), dtype=np.int8), np.ones((2, 3), dtype=np.int8)):
            with pytest.raises(ValueError, match="1-D"):
                det.push(codes)
        assert det.time == 0

    def test_bool_array_is_codes_0_and_1(self):
        params = CrtParams(3, 5, Variant.MODIFIED)
        codes = np.array([1] * 15 + [0, 1] * 10, dtype=np.int8)
        expected = run_detector(codes, params)
        assert expected[0] == Activated(1, 0)
        flags = codes.astype(bool)
        for size in (7, codes.size):  # 7 < 2q symbols take the one-symbol path
            det = ActivityDetector(params)
            chunks = [flags[t : t + size] for t in range(0, codes.size, size)]
            assert [ev for chunk in chunks for ev in det.push(chunk)] == expected

    def test_exact_recovery_at_guarantee_boundary(self):
        # q = 2p^2 + 1 is the smallest period in the general regime; run it
        # with the full complement of (p+1)/2 users
        params = CrtParams(11, 243, Variant.MODIFIED)
        assert sync_guarantee(11, 243, 6).guaranteed
        L = params.L
        rng = np.random.default_rng(7)
        for _ in range(3):
            gens = rng.choice(range(1, 11), size=6, replace=False)
            offsets = rng.integers(0, L, size=6)
            users = tuple(
                UserSpec(int(g), int(g), None, ((int(t), 3 * L),))
                for g, t in zip(gens, offsets)
            )
            sig = channel_activity(simulate(Scenario(params, users, 3 * L)))
            events = run_detector(sig, params)
            expected = [Activated(int(g), int(t)) for g, t in zip(gens, offsets)]
            assert sorted(events, key=lambda e: e.user) == sorted(
                expected, key=lambda e: e.user
            )

    # thousands of flips per user in one long chunk: idle every 706th slot
    # (one slot short of L = 707), every 708th, and i.i.d. at 1/200; event
    # counts and sha256 of the event list's repr recorded from the change-list
    # walk that the per-user row walk replaced
    NOISY = {
        "every-706": (1178, "de2f3f7587cd0aacbcc067b06d54dd96752ce4f88a68f40fdaafd8e391d8b053"),
        "every-708": (8466, "30a404ed2ac12daecf9ca4fd61d13e535e8b2d50996e2647bb1932e7964ff41d"),
        "iid-1/200": (3470, "505db6cf80238617130e7b423bf40b246030747dfac77d4f42d2362b5080c8ec"),
    }

    @staticmethod
    def noisy_signal(kind, n):
        if kind == "iid-1/200":
            idle = np.random.default_rng(1).random(n) < 1 / 200
        else:
            idle = np.arange(n) % int(kind.removeprefix("every-")) == 0
        return np.where(idle, IDLE, 1).astype(np.int8)

    @pytest.mark.parametrize("kind", NOISY)
    def test_long_noisy_chunk_is_pinned(self, kind):
        params = CrtParams(7, 101, Variant.MODIFIED)
        events = run_detector(self.noisy_signal(kind, 500_000), params)
        digest = hashlib.sha256(repr(events).encode()).hexdigest()
        assert (len(events), digest) == self.NOISY[kind]

    @pytest.mark.parametrize("kind", NOISY)
    def test_noisy_signal_chunkings_agree(self, kind):
        params = CrtParams(7, 101, Variant.MODIFIED)
        codes = self.noisy_signal(kind, 20_000)
        expected = run_detector(codes, params)
        assert len(expected) > 20
        assert push_each(ActivityDetector(params), codes) == expected
        for size in (129, 2 * params.q - 1, 2 * params.q, 2 * params.q + 1, 4096):
            det = ActivityDetector(params)
            chunks = np.split(codes, range(size, codes.size, size))
            assert [ev for chunk in chunks for ev in det.push(chunk)] == expected

    def test_documented_failure_mode(self):
        # q = 8 is far below 2*p^2 and five users are active: the detector
        # must mistake user 6's delayed schedule for a start at slot 0.
        sig = channel_activity(simulate(FAILURE_SCENARIO))
        events = run_detector(sig, M78)
        assert Activated(6, 0) in events
        assert Activated(1, 0) in events and Activated(2, 0) in events


class TestGuarantee:
    def test_general_regime(self):
        res = sync_guarantee(5, 51, 3)
        assert res.level is GuaranteeLevel.GENERAL and res.guaranteed

    def test_three_valued_regime(self):
        res = sync_guarantee(7, 50, 4)
        assert res.level is GuaranteeLevel.THREE_VALUED

    def test_not_guaranteed_reports_reason(self):
        res = sync_guarantee(7, 8, 5)
        assert not res.guaranteed
        assert "active users 5" in res.reason
        res = sync_guarantee(5, 51, 4)
        assert not res.guaranteed  # one user too many
        res = sync_guarantee(7, 48, 2)
        assert not res.guaranteed and "p^2" in res.reason

    def test_precedence_of_general_regime(self):
        # 51 = 1 mod 5 also satisfies the residue regime; the stronger
        # general guarantee wins
        assert sync_guarantee(5, 51, 1).level is GuaranteeLevel.GENERAL

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError):
            sync_guarantee(5, 50, 1)

    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_levels_over_q_and_active_count(self, p):
        # the closed-form conditions, one (q, active count) at a time
        cap = (p + 1) // 2
        for q in (q for q in range(p + 1, 2 * p * p + 3 * p) if q % p):
            for n in range(1, p + 1):
                res = sync_guarantee(p, q, n)
                if n <= cap and q > 2 * p * p:
                    assert res.level is GuaranteeLevel.GENERAL and res.reason is None
                elif n <= cap and q > p * p and q % p in (1, p - 1):
                    assert res.level is GuaranteeLevel.THREE_VALUED and res.reason is None
                else:
                    assert res.level is GuaranteeLevel.NONE and res.reason
                assert res.errors == () and res.unjudged == () and not res.violated


def judge_run(scenario: dict):
    """The Verdict on run_detector's events over the scenario JSON."""
    sc = scenario_from_json(scenario)
    return judge(sc, run_detector(channel_activity(simulate(sc)), sc.params))


# four users, the (p+1)/2 cap, at p = 7 and q = 55 = -1 mod 7: in the window
# that starts 34 slots before user 5's session, that session's own start
# and users 1, 3 and 6 cover all 55 of user 5's ones
THREE_VALUED_COVER = {
    "p": 7, "q": 55, "variant": "mod", "duration": 2344,
    "users": [{"id": 5, "g": 5, "sessions": [[1189, 1959]]},
              {"id": 1, "g": 1, "sessions": [[409, 2344]]},
              {"id": 3, "g": 3, "sessions": [[387, 2344]]},
              {"id": 6, "g": 6, "sessions": [[426, 2344]]}],
}

# at p = 5 and q = 51 > 2p^2, at most 3 = (p+1)/2 users at once: user 4 hands
# over to user 1 at 1076, inside the window that starts at 1020, so users 2
# and 3, user 4 before 1076 and user 1 from 1076 cover all of user 1's ones
HANDOVER_COVER = {
    "p": 5, "q": 51, "variant": "mod", "duration": 2040,
    "users": [{"id": 2, "g": 2, "offset": 1}, {"id": 3, "g": 3, "offset": 1},
              {"id": 4, "g": 4, "sessions": [[774, 1076]]},
              {"id": 1, "g": 1, "sessions": [[1076, 2040]]}],
}


class TestJudge:
    def test_three_valued_cover_is_misdated(self):
        verdict = judge_run(THREE_VALUED_COVER)
        assert verdict.level is GuaranteeLevel.THREE_VALUED
        assert verdict.errors == ("start error: user 5 activated at 1155",
                                  "missed detection: user 5 at start 1189")
        assert verdict.unjudged == ()

    @pytest.mark.xfail(strict=True, reason="the three-valued condition q > p^2, q = +-1 mod p "
                       "claims a guarantee that this scenario breaks")
    def test_three_valued_cover_is_not_a_violation(self):
        assert not judge_run(THREE_VALUED_COVER).violated

    def test_handover_cover_is_misdated(self):
        verdict = judge_run(HANDOVER_COVER)
        assert verdict.level is GuaranteeLevel.GENERAL
        assert verdict.errors == ("start error: user 1 activated at 1020",
                                  "start error: user 1 activated at 1331",
                                  "missed detection: user 1 at start 1076")
        assert verdict.unjudged == (2, 3)

    @pytest.mark.xfail(strict=True, reason="the general guarantee caps the users active at once, and "
                       "four users meet the window of this handover")
    def test_handover_cover_is_not_a_violation(self):
        assert not judge_run(HANDOVER_COVER).violated

    def test_missed_detections_by_user_then_start(self):
        # no events: every expected start is missed, users in scenario order
        # (iterating the set {15, 600} of user 4's starts gives 600 first)
        sc = scenario_from_json({
            "p": 5, "q": 53, "variant": "mod", "duration": 2000,
            "users": [{"id": 9, "g": 2, "sessions": [[700, 1000], [1300, 1700]]},
                      {"id": 4, "g": 1, "sessions": [[15, 300], [600, 900]]},
                      {"id": 7, "g": 3, "offset": 5}],
        })
        verdict = judge(sc, [])
        assert verdict.errors == (
            "missed detection: user 9 at start 700",
            "missed detection: user 9 at start 1300",
            "missed detection: user 4 at start 15",
            "missed detection: user 4 at start 600",
        )
        assert verdict.unjudged == (7,)
        assert verdict.level is GuaranteeLevel.GENERAL and verdict.violated


class TestSlotMatrix:
    def test_small_layout(self):
        mat = slot_matrix(CrtParams(3, 19, Variant.MODIFIED))
        assert list(mat[0]) == [3 * j for j in range(19)]
        assert mat[1][0] == 19
        assert sorted(mat.ravel()) == list(range(57))

    def test_column_step_adds_p(self):
        for params in (CrtParams(3, 19, Variant.MODIFIED), M551):
            mat = slot_matrix(params)
            p, q, L = params.p, params.q, params.L
            for i in range(p):
                for j in range(q):
                    assert mat[i][(j + 1) % q] == (mat[i][j] + p) % L

    def test_small_indices_live_in_middle_columns(self):
        # non-multiples of p below p^2 sit between columns 2p+1 and q-p-1
        for params in (CrtParams(3, 19, Variant.MODIFIED), M551):
            p, q = params.p, params.q
            mat = slot_matrix(params)
            cols = {int(mat[i][j]): j for i in range(p) for j in range(q)}
            for t in range(1, p * p):
                if t % p:
                    assert 2 * p + 1 <= cols[t] <= q - p - 1

    def test_requires_modified_variant(self):
        with pytest.raises(ValueError):
            slot_matrix(CrtParams(3, 19))


@functools.lru_cache(maxsize=None)
def _char_points(g, params):
    return characteristic_set(g, params)


@functools.lru_cache(maxsize=None)
def _prefix_window(params):
    return frozenset(crt_map(t, params) for t in range(params.p * params.p))


def oracle_partial_cross_correlation(g, h, shift, params, band=None):
    """Point-set reading of the windowed overlap: walk g's grid points,
    keep those in the window (the grid image of the first p^2 slots, or
    p columns from band), and look up the point shifted back in h's
    characteristic set."""
    p, q = params.p, params.q
    ig, ih, prefix = _char_points(g, params), _char_points(h, params), _prefix_window(params)
    dr, dc = shift[0] % p, shift[1] % q
    count = 0
    for pt in ig:
        if band is None:
            if pt not in prefix:
                continue
        elif not band <= pt.col < band + p:
            continue
        if GridPoint((pt.row - dr) % p, (pt.col - dc) % q) in ih:
            count += 1
    return count


def oracle_uncovered_ones(g, tau, params):
    """(slots, witness, band): the ones of generator g that its copy delayed
    acyclically by tau (1 <= tau < L) leaves uncovered, and the first window,
    the first p^2 slots ("prefix") then p-column bands left to right, whose
    ones all stay uncovered; (slots, None, None) when no window does."""
    p, q = params.p, params.q
    bits = generate_sequence(g, params).bits
    support = [int(t) for t in np.flatnonzero(bits)]
    uncovered = {t for t in support if t < tau or bits[t - tau] == 0}
    if {t for t in support if t < p * p} <= uncovered:
        return frozenset(uncovered), "prefix", None
    by_col: dict[int, list[int]] = {}
    for t in support:
        by_col.setdefault(crt_map(t, params).col, []).append(t)
    for y in range(q - p + 1):
        if {t for c in range(y, y + p) for t in by_col.get(c, ())} <= uncovered:
            return frozenset(uncovered), "band", y
    return frozenset(uncovered), None, None


class TestPartialCorrelation:
    @pytest.mark.parametrize("p, q", [(3, 19), (5, 51), (7, 101)])
    def test_matches_point_set_oracle(self, p, q):
        # every ordered pair and shift, in the prefix window and in one
        # band that cycles through all q-p+1 starts as the shift moves
        params = CrtParams(p, q, Variant.MODIFIED)
        bands = q - p + 1
        for g in range(p):
            for h in range(p):
                if g == h:
                    continue
                for i, shift in enumerate((dr, dc) for dr in range(p) for dc in range(q)):
                    for band in (None, i % bands):
                        assert partial_cross_correlation(
                            g, h, shift, params, band=band
                        ) == oracle_partial_cross_correlation(g, h, shift, params, band)

    def test_bounded_by_two_in_both_windows(self):
        p, q = M551.p, M551.q
        for h in (2, 3):
            for t1 in range(p):
                for t2 in range(0, q, 7):
                    assert partial_cross_correlation(1, h, (t1, t2), M551) <= 2
                    assert partial_cross_correlation(1, h, (t1, t2), M551, band=11) <= 2

    def test_self_pair_rejected(self):
        with pytest.raises(ValueError):
            partial_cross_correlation(2, 2, (0, 0), M551)

    def test_band_range_checked(self):
        with pytest.raises(ValueError):
            partial_cross_correlation(1, 2, (0, 0), M551, band=M551.q - 4)

    def test_standard_variant_rejected(self):
        with pytest.raises(ValueError):
            partial_cross_correlation(1, 2, (0, 0), CrtParams(5, 51))

    def test_each_generator_has_p_ones_per_window(self):
        p, q = M551.p, M551.q
        prefix = {t for t in range(p * p)}
        for g in range(1, p):
            seq = generate_sequence(g, M551)
            assert sum(1 for t in seq.support() if int(t) in prefix) == p
            cols = (M551.gamma * seq.support()) % q
            for y in range(q - p + 1):
                assert int(np.sum((cols >= y) & (cols < y + p))) == p


class TestUncoveredOnes:
    # the witness theorem behind the detector's soundness: for every
    # generator g >= 1 and acyclic delay tau, the ones of g left uncovered
    # by its delayed copy swallow all ones of one verification window
    @pytest.mark.parametrize("p, q", [(3, 19), (3, 20), (5, 51), (5, 53)])
    def test_every_shift_has_a_witness(self, p, q):
        params = CrtParams(p, q, Variant.MODIFIED)
        for g in range(1, p):
            for tau in range(1, params.L):
                assert oracle_uncovered_ones(g, tau, params)[1] is not None, (g, tau)

    def test_generator_zero_has_no_witness(self):
        # generator 0 repeats with period p and lies outside the theorem
        assert oracle_uncovered_ones(0, 5, M551)[1:] == (None, None)

    def test_large_shift_uses_prefix_witness(self):
        p = M551.p
        slots, witness, _ = oracle_uncovered_ones(1, p * p, M551)
        assert witness == "prefix"
        prefix_ones = {int(t) for t in generate_sequence(1, M551).support() if t < p * p}
        assert prefix_ones <= slots

    def test_full_shift_leaves_at_least_p_ones(self):
        slots, _, _ = oracle_uncovered_ones(1, M551.L - 1, M551)
        assert len(slots) >= M551.p

    def test_matches_direct_definition(self):
        # the uncovered ones are the ones of g where its copy delayed
        # acyclically by tau (zeros shifted in at the front) is idle
        seq = generate_sequence(3, M551)
        for tau in (1, 40, 200):
            delayed = np.concatenate([np.zeros(tau, dtype=seq.bits.dtype), seq.bits[:-tau]])
            expect = set(np.flatnonzero(seq.bits & (delayed == 0)).tolist())
            assert oracle_uncovered_ones(3, tau, M551)[0] == frozenset(expect)


def test_match_budget_inequality():
    # the covering budget of (p+1)/2 users, each overlapping in at most
    # floor(q/p)+2 slots, stays below the q ones whenever q > 2p^2
    for p in (3, 5, 7, 11, 13):
        for q in range(2 * p * p + 1, 2 * p * p + 40):
            if np.gcd(p, q) != 1:
                continue
            assert (q // p + 2) * (p + 1) / 2 < q
