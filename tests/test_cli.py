import copy
import functools
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtseq import channel, cli, correlation, sync
from crtseq.cli import main
from crtseq.core import CrtParams, generate_sequence
from crtseq.correlation import correlation_spectrum
from oracles import read_sequence_file
from test_channel import BLOCK_SIZES, oracle_senders, outcome, scenarios

FAILURE_SCENARIO = {
    "p": 7,
    "q": 8,
    "variant": "mod",
    "duration": 58,
    "seed": 0,
    "users": [
        {"id": 1, "g": 1, "offset": 0},
        {"id": 2, "g": 2, "offset": 0},
        {"id": 3, "g": 3, "offset": 1},
        {"id": 4, "g": 4, "offset": 1},
        {"id": 6, "g": 6, "offset": 1},
    ],
}


# two session users at (3, 25) with the standard variant, whose run the
# detector gets wrong although q > 2p^2 and both fit under the (p+1)/2 cap
STD_SCENARIO = {
    "p": 3,
    "q": 25,
    "variant": "std",
    "duration": 375,
    "users": [
        {"id": 2, "g": 2, "sessions": [[88, 168]]},
        {"id": 1, "g": 1, "sessions": [[118, 283]]},
    ],
}


# sweep.csv of `sweep --p 37 --k-range 2:3 --m 19 --trials 2000 --seed 1`,
# recorded from the L-slot bincount counter the column kernel replaced
SWEEP_GOLDEN = (
    b"k,L,min,mean,max,bound\n"
    b"2,2701,0.289893,0.313555,0.334691,0.177095\n"
    b"3,4070,0.296560,0.313366,0.332924,0.198587\n"
)

# table.csv of `compare --p 37 --k 6`, recorded from the all-pairs
# brute-force spectra that the class reduction replaced
COMPARE_GOLDEN = (
    b"family,period,epsilon,note\n"
    b"crt,8177,38/221,computed\n"
    b"prime,1369,1/1,computed\n"
    b"extended-prime,2701,1/1,computed\n"
    b"wobbling,1874161,1/37,not computed\n"
    b"shift-invariant,exponential(p),0/1,not computed\n"
)


def streamed_trace_csv(scenario, block: int = channel.BLOCK_SLOTS) -> str:
    """trace.csv as the writer streams it from the run's blocks."""
    blocks = channel.simulate_blocks(scenario, block)
    return b"".join(cli._trace_csv_blocks(blocks, scenario.duration)).decode()


def oracle_trace_csv(scenario) -> str:
    """trace.csv of the scenario from the per-slot definition: a row per
    slot with its outcome and its senders in ascending id, joined by '+'."""
    rows = ["slot,outcome,sender"]
    for t, senders in enumerate(oracle_senders(scenario)):
        rows.append(f"{t},{outcome(senders)[0]},{'+'.join(map(str, senders))}")
    return "\n".join(rows) + "\n"


@pytest.fixture
def failure_scenario(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(FAILURE_SCENARIO))
    return path


class TestGenerate:
    def test_prints_bits(self, capsys):
        assert main(["generate", "--p", "3", "--q", "5", "--g", "1"]) == 0
        assert capsys.readouterr().out.strip() == "111110000000000"

    def test_writes_file(self, tmp_path, capsys):
        out = tmp_path / "seqs.txt"
        assert main(["generate", "--p", "3", "--q", "5", "--all", "--out", str(out)]) == 0
        records = read_sequence_file(out)
        assert [g for _, g, _ in records] == [0, 1, 2]
        assert str(records[1][2]) == "111110000000000"

    def test_composite_p_is_usage_error(self, capsys):
        assert main(["generate", "--p", "4", "--q", "5", "--g", "1"]) == 2
        assert "prime" in capsys.readouterr().err

    def test_needs_g_or_all(self, capsys):
        for which in ([], ["--g", "1", "--all"]):  # neither, both
            assert main(["generate", "--p", "3", "--q", "5", *which]) == 2
            assert "exactly one of --g and --all" in capsys.readouterr().err


class TestCorrelate:
    def test_json_payload(self, capsys):
        assert main(["correlate", "--p", "3", "--q", "5", "--g", "2", "--h", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["range_predicted"] == [1, 3]
        assert payload["histogram_bruteforce"] == {"1": 7, "2": 6, "3": 2}
        assert payload["histogram_predicted"] == {"1": 7, "2": 6, "3": 2}
        assert payload["epsilon"] == "4/5"

    def test_counts_the_pair_once(self, capsys):
        # the spectrum and epsilon come from one run of the spectrum kernel
        with mock.patch.object(correlation, "_count_spectra",
                               side_effect=correlation._count_spectra) as kernel:
            assert main(["correlate", "--p", "3", "--q", "5", "--g", "2", "--h", "1"]) == 0
        assert kernel.call_count == 1
        assert json.loads(capsys.readouterr().out)["epsilon"] == "4/5"

    def test_handles_generator_zero_pair(self, capsys):
        assert main(["correlate", "--p", "3", "--q", "5", "--g", "0", "--h", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["range_predicted"] == [1, 2]
        assert payload["histogram_bruteforce"] == {"1": 5, "2": 10}

    def test_q_below_p_is_predicted(self, capsys):
        # q < p: the closed forms hold there too, so both predictions are filled
        assert main(["correlate", "--p", "5", "--q", "3", "--g", "2", "--h", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        params = CrtParams(5, 3)
        spec = correlation_spectrum(generate_sequence(2, params), generate_sequence(3, params))
        assert payload["histogram_bruteforce"] == {str(j): n for j, n in spec.histogram.items()}
        assert payload["histogram_predicted"] == payload["histogram_bruteforce"]
        assert payload["range_predicted"] == [int(spec.values.min()), int(spec.values.max())]
        assert main(["correlate", "--p", "7", "--q", "5", "--g", "3", "--h", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["range_predicted"] == [0, 2]
        assert payload["histogram_predicted"] == {"0": 14, "1": 17, "2": 4}
        assert payload["histogram_predicted"] == payload["histogram_bruteforce"]


class TestSimulate:
    def test_trace_csv(self, tmp_path, capsys, failure_scenario):
        out = tmp_path / "trace.csv"
        code = main(["simulate", "--scenario", str(failure_scenario), "--out", str(out),
                     "--activity"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "slot,outcome,sender"
        assert lines[1] == "0,collision,1+2+6"
        assert len(lines) == 59
        printed = capsys.readouterr().out
        assert "**011011" in printed  # activity signal echoed

    def test_trace_csv_matches_slot_outcomes(self, tmp_path, capsys, failure_scenario):
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--scenario", str(failure_scenario), "--out", str(out)]) == 0
        expected = oracle_trace_csv(channel.scenario_from_json(FAILURE_SCENARIO))
        assert {row.split(",")[1] for row in expected.splitlines()[1:]} == {
            "idle", "success", "collision"
        }
        assert out.read_bytes() == expected.encode()
        printed = capsys.readouterr().out
        assert printed.startswith(f"58 slots: {expected.count(',success,')} successes, "
                                  f"{expected.count(',collision,')} collision slots, ")

    @given(scenarios(), st.integers(1, 9))
    @settings(max_examples=100, deadline=None)
    def test_trace_csv_blocks_match_definition(self, scenario, block):
        # blocks of a few slots put collision rows on both sides of block edges
        with mock.patch.object(cli, "_CSV_BLOCK_SLOTS", block):
            text = streamed_trace_csv(scenario)
        assert text == oracle_trace_csv(scenario)

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @given(scenarios())
    @settings(max_examples=25, deadline=None)
    def test_trace_csv_of_any_run_blocks(self, size, scenario):
        # the writer reads the run as simulate_blocks streams it, at block
        # sizes that cut periods, sessions and CSV blocks anywhere
        text = streamed_trace_csv(scenario, BLOCK_SIZES[size](scenario))
        assert text == oracle_trace_csv(scenario)

    @pytest.mark.parametrize("block", [1, 7, 10, 1 << 16])
    def test_trace_csv_blocks_at_digit_boundaries(self, block):
        # every session starts with a one, so three users collide at slots 9,
        # 99 and 999 and four at 10, 100 and 1000, where the slot gains a
        # digit; the senders' ids have one to three digits
        starts = {3: 9, 42: 9, 365: 9, 7: 10, 58: 10, 512: 10}
        users = tuple(
            channel.UserSpec(uid, g, None, ((a, a + 31), (a + 90, a + 121), (a + 990, a + 1021)))
            for g, (uid, a) in enumerate(starts.items())
        )
        scenario = channel.Scenario(CrtParams(7, 3), users, duration=1010)
        trace = channel.simulate(scenario)
        assert all(trace.n_senders[t] >= 3 for t in (9, 10, 99, 100, 999, 1000))
        with mock.patch.object(cli, "_CSV_BLOCK_SLOTS", block):
            text = streamed_trace_csv(scenario)
        assert "\n999,collision,3+42+365\n1000,collision,7+42+58+512\n" in text
        assert text == oracle_trace_csv(scenario)

    @staticmethod
    @functools.cache
    def decade_scenario():
        """The users of the digit-boundary test, moved to collide at slots
        9999 and 10000 and again 90 000 slots later, at 99999 and 100000,
        where the slot's digits above the last four grow from none to one
        and from one to two; and the scenario's trace.csv by definition."""
        starts = {3: 9999, 42: 9999, 365: 9999, 7: 10000, 58: 10000, 512: 10000}
        users = tuple(
            channel.UserSpec(uid, g, None, ((a, a + 31), (a + 90_000, a + 90_031)))
            for g, (uid, a) in enumerate(starts.items())
        )
        scenario = channel.Scenario(CrtParams(7, 3), users, duration=100_010)
        return scenario, oracle_trace_csv(scenario)

    @pytest.mark.parametrize("block", [1, 7, 9999, 10_001, 1 << 16])
    def test_trace_csv_blocks_at_decade_boundaries(self, block):
        scenario, expected = self.decade_scenario()
        trace = channel.simulate(scenario)
        assert all(trace.n_senders[t] >= 3 for t in (9999, 10_000, 99_999, 100_000))
        with mock.patch.object(cli, "_CSV_BLOCK_SLOTS", block):
            text = streamed_trace_csv(scenario)
        assert "\n9999,collision,3+42+365\n10000,collision,7+42+58+512\n" in text
        assert "\n99999,collision,3+42+365\n100000,collision,7+42+58+512\n" in text
        assert text == expected

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    def test_trace_csv_blocks_of_extreme_ids(self, block):
        # negative ids, the int64 extremes and a 19-digit id; six of the
        # seven users collide at slot 0, where every schedule starts with a one
        ids = (-1, -10, 2**63 - 1, -(2**63), 0, 1234567890123456789)
        users = tuple(channel.UserSpec(uid, g, 0 if g < 4 else None) for g, uid in enumerate(ids))
        users += (channel.UserSpec(-7, 6, None, ((0, 50), (400, 1005))),)
        scenario = channel.Scenario(CrtParams(7, 3), users, duration=1010, seed=3)
        trace = channel.simulate(scenario)
        assert trace.ids.tolist() == sorted(ids + (-7,))  # the writer names rank r by ids[r]
        with mock.patch.object(cli, "_CSV_BLOCK_SLOTS", block):
            text = streamed_trace_csv(scenario)
        assert text.startswith(
            "slot,outcome,sender\n0,collision,-9223372036854775808+-10+-7+-1+0+9223372036854775807\n"
        )
        assert text == oracle_trace_csv(scenario)

    def test_session_after_the_horizon_contributes_nothing(self, tmp_path, capsys):
        # a session far past the horizon that still fits int64 adds no slot
        late = copy.deepcopy(FAILURE_SCENARIO)
        late["users"].append({"id": 5, "g": 5, "sessions": [[2**62, 2**63 - 1]]})
        outs = []
        for name, scenario in (("late", late), ("plain", FAILURE_SCENARIO)):
            path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.csv"
            path.write_text(json.dumps(scenario))
            assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == 0
            outs.append((out.read_bytes(), capsys.readouterr().out))
        assert outs[0] == outs[1]

    def test_unwritable_out_names_the_path(self, tmp_path, capsys, failure_scenario):
        out = tmp_path / "missing" / "trace.csv"
        assert main(["simulate", "--scenario", str(failure_scenario), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: No such file or directory\n"

    def test_out_naming_a_directory_leaves_no_temp_file(self, tmp_path, capsys,
                                                         failure_scenario):
        out = tmp_path / "d"
        out.mkdir()
        assert main(["simulate", "--scenario", str(failure_scenario), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: cannot write {out}: Is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d", "scenario.json"]
        assert list(out.iterdir()) == []

    def test_block_that_fails_midway_leaves_no_temp_file(self, tmp_path, capsys,
                                                          failure_scenario, monkeypatch):
        block, starts = cli._trace_csv_block, []

        def fail_on_third(trace, names, lo, hi):
            starts.append(lo)
            if len(starts) == 3:
                raise MemoryError("no room for block 3")
            return block(trace, names, lo, hi)

        monkeypatch.setattr(cli, "_CSV_BLOCK_SLOTS", 5)  # 58 slots: 12 blocks
        monkeypatch.setattr(cli, "_trace_csv_block", fail_on_third)
        out = tmp_path / "trace.csv"
        assert main(["simulate", "--scenario", str(failure_scenario), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: no room for block 3\n")
        assert starts == [0, 5, 10]  # two blocks written to the temp file
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]

        # the same when the run itself fails in its third block of 5 slots:
        # all five users' spans expand in one call per block
        monkeypatch.setattr(cli, "_trace_csv_block", block)
        monkeypatch.setattr(channel, "BLOCK_SLOTS", 5)
        expand, calls = channel._transmission_keys, []

        def fail_in_third_block(*args):
            calls.append(args[-2])  # the block's first slot
            if len(calls) == 3:
                raise MemoryError("no room for run block 3")
            return expand(*args)

        monkeypatch.setattr(channel, "_transmission_keys", fail_in_third_block)
        assert main(["simulate", "--scenario", str(failure_scenario), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: no room for run block 3\n")
        assert calls == [0, 5, 10]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]

    def test_trace_csv_blocks_join_seamlessly(self, tmp_path, capsys, failure_scenario,
                                              monkeypatch):
        whole, blocks = tmp_path / "whole.csv", tmp_path / "blocks.csv"
        assert main(["simulate", "--scenario", str(failure_scenario), "--out", str(whole)]) == 0
        monkeypatch.setattr(cli, "_CSV_BLOCK_SLOTS", 5)  # 58 slots: 11 full blocks and 3
        assert main(["simulate", "--scenario", str(failure_scenario), "--out", str(blocks)]) == 0
        assert blocks.read_bytes() == whole.read_bytes()

    def test_missing_scenario_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--scenario", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "t.csv")]) == 2


class TestSync:
    def test_events_csv(self, tmp_path, failure_scenario, capsys):
        out = tmp_path / "events.csv"
        assert main(["sync", "--scenario", str(failure_scenario), "--emit", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "slot,event,user,start"
        assert "56,activated,6,0" in lines
        # user 6 is misdated to slot 0, but as a permanent user with offset 1
        # it began its schedule before slot 0 and is outside the verdict
        printed = capsys.readouterr().out
        assert "not judged: user 6 (started before slot 0)" in printed
        assert "start error" not in printed

    def test_start_error_of_a_judged_user(self, tmp_path, capsys):
        # the failure scenario with session users: user 6 starts at slot 1
        # from idle, so its misdating to slot 0 is judged
        scenario = copy.deepcopy(FAILURE_SCENARIO)
        for u in scenario["users"]:
            u["sessions"] = [[u.pop("offset"), 58]]
        path = tmp_path / "sessions.json"
        path.write_text(json.dumps(scenario))
        assert main(["sync", "--scenario", str(path), "--emit", str(tmp_path / "e.csv")]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert "start error: user 6 activated at 0" in printed
        assert "missed detection: user 6 at start 1" in printed
        assert not any(line.startswith("not judged") for line in printed)

    def test_assert_guarantee_passes_outside_guarantee(self, tmp_path, failure_scenario):
        out = tmp_path / "events.csv"
        code = main(["sync", "--scenario", str(failure_scenario), "--emit", str(out),
                     "--assert-guarantee"])
        assert code == 0  # failures are allowed when no guarantee applies

    def test_assert_guarantee_clean_run(self, tmp_path):
        scenario = tmp_path / "ok.json"
        scenario.write_text(
            json.dumps(
                {
                    "p": 5,
                    "q": 51,
                    "variant": "mod",
                    "duration": 765,
                    "users": [
                        {"id": 1, "g": 1, "offset": None, "sessions": [[40, 765]]},
                        {"id": 2, "g": 2, "offset": None, "sessions": [[0, 765]]},
                    ],
                }
            )
        )
        out = tmp_path / "events.csv"
        code = main(["sync", "--scenario", str(scenario), "--emit", str(out),
                     "--assert-guarantee"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert "295,activated,1,40" in lines
        assert "255,activated,2,0" in lines

    # one user's sessions at (5, 51), L = 255: listed in reverse, in order
    # 200 < L slots apart, or one that starts before slot 0, they exit 2; in
    # order 300 >= L apart they run
    @pytest.mark.parametrize(
        ("sessions", "message"),
        [([[600, 900], [10, 300]], "user 1: sessions out of order: [10,300) listed after "
                                   "[600,900)"),
         ([[10, 300], [500, 900]], "user 1: inter-session gap below one period"),
         ([[-5, 600]], "user 1: session [-5,600) starts before slot 0")],
        ids=["out-of-order", "short-gap", "before-slot-0"],
    )
    def test_sessions_out_of_order_or_too_close(self, tmp_path, capsys, sessions, message):
        scenario = {"p": 5, "q": 51, "variant": "mod", "duration": 1000,
                    "users": [{"id": 1, "g": 1, "sessions": sessions}]}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        argv = ["sync", "--scenario", str(path), "--emit", str(tmp_path / "e.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        scenario["users"][0]["sessions"] = [[10, 300], [600, 900]]
        path.write_text(json.dumps(scenario))
        assert main(argv) == 0
        assert capsys.readouterr().out == "3 events, guarantee: general\n"


def _sync(tmp_path, users, duration=1200):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps({"p": 5, "q": 53, "variant": "mod", "duration": duration, "users": users})
    )
    return main(["sync", "--scenario", str(scenario), "--emit", str(tmp_path / "events.csv"),
                 "--assert-guarantee"])


class TestSyncVerdict:
    def test_ids_differing_from_generators(self, tmp_path, capsys):
        # both users are judged: a permanent user at offset 0 and a session
        # user, so each event's generator must map to the user's id
        users = [{"id": 10, "g": 1, "offset": 0}, {"id": 20, "g": 2, "sessions": [[100, 1200]]}]
        assert _sync(tmp_path, users) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["2 events, guarantee: general"]
        assert "265,activated,1,0" in (tmp_path / "events.csv").read_text().splitlines()

    def test_generator_zero_is_usage_error(self, tmp_path, capsys):
        users = [{"id": 1, "g": 1, "offset": 7}, {"id": 2, "g": 0, "offset": 100}]
        assert _sync(tmp_path, users) == 2
        assert "generator 0" in capsys.readouterr().err

    def test_guarantee_counts_peak_concurrency(self, tmp_path, capsys):
        # four users, but at most three = (p+1)/2 at once: user 4 starts at
        # slot 800, where the other three end
        users = [
            {"id": 1, "g": 1, "sessions": [[0, 800]]},
            {"id": 2, "g": 2, "sessions": [[30, 800]]},
            {"id": 3, "g": 3, "sessions": [[100, 800]]},
            {"id": 4, "g": 4, "sessions": [[800, 2000]]},
        ]
        assert _sync(tmp_path, users, duration=2000) == 0
        assert "guarantee: general" in capsys.readouterr().out
        users[3]["sessions"] = [[799, 2000]]
        assert _sync(tmp_path, users, duration=2000) == 0
        assert "guarantee: none (active users 4 > (p+1)/2 = 3)" in capsys.readouterr().out

    def test_permanent_and_session_users_mixed(self, tmp_path, capsys):
        # L = 265: user 3 at offset 240 sends its previous period over
        # [0, 240), so it is not judged; all three are active at once
        users = [
            {"id": 1, "g": 1, "sessions": [[30, 500]]},
            {"id": 2, "g": 2, "offset": 0},
            {"id": 3, "g": 3, "offset": 240},
        ]
        sc = channel.scenario_from_json({"p": 5, "q": 53, "variant": "mod", "duration": 500,
                                         "users": users})
        assert sync._peak_active(sc) == 3
        assert sync._expected_activations(sc) == {1: {30}, 2: {0}}
        assert _sync(tmp_path, users, duration=500) == 0
        assert capsys.readouterr().out.splitlines() == [
            "2 events, guarantee: general",
            "not judged: user 3 (started before slot 0)",
        ]

    def test_permanent_user_started_before_the_horizon(self, tmp_path, capsys):
        # a permanent user with offset tau > 0 sends its previous period over
        # [0, tau): the detector may match it at a wrong phase (user 3 at
        # slot 43), which the verdict must not report as a violation
        users = [
            {"id": 1, "g": 1, "sessions": [[30, 500]]},
            {"id": 2, "g": 2, "offset": 7},
            {"id": 3, "g": 3, "offset": 250},
        ]
        assert _sync(tmp_path, users, duration=500) == 0
        assert capsys.readouterr().out.splitlines() == [
            "3 events, guarantee: general",
            "not judged: user 2 (started before slot 0)",
            "not judged: user 3 (started before slot 0)",
        ]
        assert "308,activated,3,43" in (tmp_path / "events.csv").read_text().splitlines()

    def test_standard_variant_is_not_guaranteed(self, tmp_path, capsys):
        # the guarantee's conditions are the modified variant's: with the
        # standard one the detector misdates user 1 at (3, 25), which
        # --assert-guarantee must not call a violation
        scenario = dict(STD_SCENARIO)
        path = tmp_path / "std.json"
        path.write_text(json.dumps(scenario))
        argv = ["sync", "--scenario", str(path), "--emit", str(tmp_path / "e.csv"),
                "--assert-guarantee"]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == [
            "6 events, guarantee: none (std variant: proven for the mod variant only)",
            "start error: user 1 activated at 117",
            "start error: user 1 activated at 193",
            "missed detection: user 1 at start 118",
        ]
        del scenario["variant"]  # an omitted variant reads as std
        path.write_text(json.dumps(scenario))
        assert main(argv) == 0
        assert "guarantee: none (std variant" in capsys.readouterr().out
        path.write_text(json.dumps(dict(scenario, variant="mod")))
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == ["4 events, guarantee: general"]

    def test_false_alarm(self, tmp_path, capsys):
        # q = 6 <= p^2: the channel matches generator 4, which no user holds
        path = tmp_path / "fa.json"
        path.write_text(json.dumps({
            "p": 5, "q": 6, "variant": "mod", "duration": 150,
            "users": [{"id": 3, "g": 3, "sessions": [[13, 79]]},
                      {"id": 2, "g": 2, "sessions": [[8, 46]]},
                      {"id": 1, "g": 1, "sessions": [[0, 65]]}],
        }))
        assert main(["sync", "--scenario", str(path), "--emit", str(tmp_path / "e.csv"),
                     "--assert-guarantee"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "8 events, guarantee: none (q = 6 <= p^2 = 25)",
            "false alarm: generator 4 activated at 16",
        ]

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_judged_users_are_identified_under_the_cap(self, data):
        # q > 2p^2 and at most (p+1)/2 users in all, each permanent or in
        # sessions: every judged user is activated exactly at its starts
        p = data.draw(st.sampled_from([3, 5]))
        q = data.draw(st.integers(2 * p * p + 1, 2 * p * p + 12).filter(lambda q: q % p))
        L = p * q
        gens = data.draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=(p + 1) // 2,
                                  unique=True))
        users = []
        for g in gens:
            if data.draw(st.booleans()):  # offset 0 is judged, any other is not
                offset = data.draw(st.one_of(st.just(0), st.integers(1, L - 1)))
                users.append({"id": 10 * g, "g": g, "offset": offset})
            else:
                spans, a = [], data.draw(st.integers(0, 2 * L))
                for _ in range(data.draw(st.integers(1, 2))):
                    b = a + data.draw(st.integers(L, 2 * L))
                    spans.append([a, b])
                    a = b + data.draw(st.integers(L, 2 * L))
                users.append({"id": 10 * g, "g": g, "sessions": spans})
        scenario = {"p": p, "q": q, "variant": "mod",
                    "duration": data.draw(st.integers(L, 5 * L)), "users": users}
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenario.json"
            path.write_text(json.dumps(scenario))
            with mock.patch("sys.stdout", new_callable=io.StringIO) as out:
                code = main(["sync", "--scenario", str(path), "--emit",
                             str(Path(tmp) / "events.csv"), "--assert-guarantee"])
        header, *lines = out.getvalue().splitlines()
        assert code == 0
        assert header.endswith("guarantee: general")
        assert lines == [f"not judged: user {u['id']} (started before slot 0)"
                         for u in users if u.get("offset")]

    @given(scenarios())
    @settings(max_examples=100, deadline=None)
    def test_span_reading_matches_user_kinds(self, sc):
        # oracle: permanent users are active over the whole horizon and start
        # at their offset, judged only at offset 0; session users are active
        # over their sessions and start at each
        offsets = sc.resolved_offsets()
        edges, expected = [], {}
        for u in sc.users:
            spans = [(0, sc.duration)] if u.sessions is None else u.sessions
            edges += [e for a, b in spans if a < sc.duration
                      for e in ((a, 1), (min(b, sc.duration), -1))]
            starts = [offsets[u.user_id]] if u.sessions is None else [a for a, _ in u.sessions]
            if u.sessions is None and offsets[u.user_id] > 0:
                continue
            expected[u.user_id] = {s for s in starts if s + sc.params.L <= sc.duration}
        active = peak = 0
        for _, step in sorted(edges):
            active += step
            peak = max(peak, active)
        assert sync._peak_active(sc) == peak
        assert sync._expected_activations(sc) == expected


class TestSweep:
    def test_curve_csv(self, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = main(["sweep", "--p", "5", "--k-range", "2:3", "--m", "2",
                     "--trials", "100", "--seed", "1", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "k,L,min,mean,max,bound"
        assert len(lines) == 3
        k, L, mn, mean, mx, bound = lines[1].split(",")
        assert (k, L) == ("2", "45")
        assert float(mn) <= float(mean) <= float(mx)

    def test_golden_csv(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--p", "37", "--k-range", "2:3", "--m", "19",
                     "--trials", "2000", "--seed", "1", "--out", str(out)]) == 0
        assert out.read_bytes() == SWEEP_GOLDEN

    @pytest.mark.parametrize(
        "override, named",
        [
            ({"--m": "0"}, "m_users=0"),
            ({"--m": "-1"}, "m_users=-1"),
            ({"--trials": "0"}, "trials=0"),
            ({"--trials": "-5"}, "trials=-5"),
            ({"--k-range": "3:2"}, "'3:2'"),
            ({"--k-range": "2:3:4"}, "--k-range must be lo:hi or a list of integers, got '2:3:4'"),
            ({"--k-range": "2:"}, "--k-range must be lo:hi or a list of integers, got '2:'"),
            ({"--k-range": "a:b"}, "--k-range must be lo:hi or a list of integers, got 'a:b'"),
            ({"--k-range": "2,,3"}, "--k-range must be lo:hi or a list of integers, got '2,,3'"),
            ({"--seed": "-5"}, "--seed must be a non-negative integer, got -5"),
            # every draw's seed, seed + k, is non-negative here
            ({"--seed": "-1"}, "--seed must be a non-negative integer, got -1"),
            ({"--m": "6"}, "more users than available sequences"),
        ],
    )
    def test_degenerate_input_is_usage_error(self, tmp_path, capsys, override, named):
        out = tmp_path / "curve.csv"
        argv = ["sweep", "--p", "5", "--out", str(out)]
        for flag, value in {"--k-range": "2:3", "--m": "2", "--trials": "10", **override}.items():
            argv += [flag, value]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "Traceback" not in err
        assert not out.exists()


class TestSession:
    def test_json_report(self, capsys):
        code = main(["session", "--p", "5", "--k", "5", "--users", "1,2,3",
                     "--offsets", "3,40,77"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["n"] == 26 and payload["dim"] == 14
        assert payload["all_recovered"] is True
        assert payload["info_throughput"] == "21/65"  # 42/130 reduced
        assert payload["measured_throughput"] == "21/65"
        for user in payload["users"].values():
            assert user["margin"] == 12 - user["erasures"] >= 0

    def test_payload_file(self, tmp_path, capsys):
        payload_path = tmp_path / "payload.json"
        payload_path.write_text(json.dumps({"1": list(range(14)), "2": [5] * 14}))
        code = main(["session", "--p", "5", "--k", "5", "--users", "1,2",
                     "--offsets", "0,9", "--payload", str(payload_path)])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["all_recovered"] is True

    def test_repeated_generator_is_usage_error(self, capsys):
        assert main(["session", "--p", "5", "--k", "5", "--users", "1,1"]) == 2
        assert capsys.readouterr().err == "error: generators must be distinct\n"

    def test_offset_outside_period_is_usage_error(self, capsys):
        assert main(["session", "--p", "5", "--k", "5", "--users", "1,2",
                     "--offsets=-1,99999"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "offset -1 outside 0..129" in err

    def test_bad_k_is_usage_error_before_drawing_offsets(self, tmp_path, capsys):
        out = tmp_path / "session.json"
        assert main(["session", "--p", "5", "--k", "-1", "--users", "1,2",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "k=-1" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not out.exists()

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "session.json"
        assert main(["session", "--p", "5", "--k", "5", "--users", "1,2", "--seed", "-1",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --seed must be a non-negative integer, got -1\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--users", "--offsets"])
    @pytest.mark.parametrize("value", ["", "1,,2", "1,a"])
    def test_malformed_list_is_usage_error(self, capsys, option, value):
        args = {"--users": "1,2", "--offsets": "0,9", option: value}
        argv = ["session", "--p", "5", "--k", "5"] + [x for kv in args.items() for x in kv]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {option} must be a comma-separated list of integers, got {value!r}\n"
        )

    # the session JSON at the benchmark's two shapes, pinned by digests
    # recorded before the session path is re-routed
    @pytest.mark.parametrize(
        ("argv", "digest"),
        [(["--p", "5", "--k", "5", "--users", "1,2,3", "--seed", "9137"],
          "63b43104c594c0ed235fed0a370f4921338b1e026e06612cf5f6668a927f4787"),
         (["--p", "13", "--k", "13", "--users", "1,2,3,4,5,6,7", "--seed", "4242"],
          "58d8161f05e1e71b2cf2681ee0b6b1827ffc0d54d0ce1cb8e5e926a1ac92adde")],
        ids=["5-5", "13-13"],
    )
    def test_golden(self, tmp_path, capsys, argv, digest):
        out = tmp_path / "session.json"
        assert main(["session", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert capsys.readouterr().out.encode() == out.read_bytes()


DELETE = object()


def _edited(value, *path):
    """FAILURE_SCENARIO with the field at ``path`` set to ``value``, or
    removed when ``value`` is DELETE."""
    obj = copy.deepcopy(FAILURE_SCENARIO)
    *outer, last = path
    target = obj
    for key in outer:
        target = target[key]
    if value is DELETE:
        del target[last]
    else:
        target[last] = value
    return obj


# (scenario, the whole message of its error line, {path} standing for the
# file's path), one defect each; the explicit ids keep each case's test name
# stable, as the message is part of an automatic id
MALFORMED_SCENARIOS = [
    pytest.param([FAILURE_SCENARIO], "scenario file {path} must be a JSON object, got "
                 "[{'p': 7, 'q': 8, 'variant': 'mod', 'duration': 58, 'seed': ",
                 id="scenario0-JSON object"),
    pytest.param(58, "scenario file {path} must be a JSON object, got 58", id="58-JSON object"),
    pytest.param(_edited(DELETE, "p"), "scenario lacks field 'p'", id="scenario2-'p'"),
    pytest.param(_edited(DELETE, "duration"), "scenario lacks field 'duration'",
                 id="scenario3-'duration'"),
    pytest.param(_edited(DELETE, "users"), "scenario lacks field 'users'",
                 id="scenario4-'users'"),
    pytest.param(_edited(DELETE, "users", 2, "g"), "scenario lacks field 'users[2].g'",
                 id="scenario5-'users[2].g'"),
    pytest.param(_edited(DELETE, "users", 0, "id"), "scenario lacks field 'users[0].id'",
                 id="scenario6-'users[0].id'"),
    pytest.param(_edited("58", "duration"),
                 "scenario field 'duration' must be a JSON integer, got '58'",
                 id="scenario7-'duration'"),
    pytest.param(_edited(7.5, "q"), "scenario field 'q' must be a JSON integer, got 7.5",
                 id="scenario8-'q'"),
    pytest.param(_edited(True, "p"), "scenario field 'p' must be a JSON integer, got True",
                 id="scenario9-'p'"),
    pytest.param(_edited(3, "variant"), "scenario field 'variant' must be a JSON string, got 3",
                 id="scenario10-'variant'"),
    pytest.param(_edited({"id": 1}, "users"),
                 "scenario field 'users' must be a JSON array, got {'id': 1}",
                 id="scenario11-'users'"),
    pytest.param(_edited(5, "users", 1), "scenario users[1] must be a JSON object, got 5",
                 id="scenario12-users[1]"),
    pytest.param(_edited("0", "users", 3, "offset"),
                 "scenario field 'users[3].offset' must be a JSON integer, got '0'",
                 id="scenario13-'users[3].offset'"),
    pytest.param(_edited([[10]], "users", 4, "sessions"),
                 "scenario field 'users[4].sessions[0]' must be a [start, end] pair of "
                 "integers, got [10]", id="scenario14-'users[4].sessions[0]'"),
    # numbers outside int64, named with their user and field
    pytest.param(_edited(2**70, "users", 0, "id"),
                 "user 1180591620717411303424: id outside the int64 range",
                 id="scenario15-user 1180591620717411303424: id outside the int64"),
    pytest.param(_edited(-(2**63) - 1, "users", 0, "id"),
                 "user -9223372036854775809: id outside the int64 range",
                 id="scenario16-id outside the int64 range"),
    (_edited({"id": 6, "g": 6, "sessions": [[10**30, 10**30 + 56]]}, "users", 4),
     "user 6: session start 1000000000000000000000000000000 outside the int64 range"),
    (_edited({"id": 6, "g": 6, "sessions": [[10, 2**64]]}, "users", 4),
     "user 6: session end 18446744073709551616 outside the int64 range"),
    (_edited(2**63, "duration"), "duration 9223372036854775808 outside the int64 range"),
    (_edited(-3, "seed"), "scenario field 'seed' must be non-negative, got -3"),
    (_edited(999, "users", 0, "offset"), "user 1: offset 999 outside 0..55"),
    (_edited(9, "users", 0, "g"), "user 1: generator 9 outside 0..6"),
    # a misspelled key, which would otherwise read as an absent optional
    # field: a session user turned permanent, a seed turned 0
    (_edited([[10, 70]], "users", 0, "sesions"),
     "scenario field 'users[0].sesions' is not one of id, g, offset, sessions"),
    (_edited(5, "sead"),
     "scenario field 'sead' is not one of p, q, variant, duration, seed, users"),
    # a repeated key, which json.loads would drop silently (JSON text: a
    # dict cannot hold it)
    pytest.param(json.dumps(FAILURE_SCENARIO).replace('"duration": 58', '"duration": 58, '
                                                      '"duration": 3000'),
                 "scenario file {path}: repeated JSON key 'duration'", id="repeated-duration"),
    pytest.param(json.dumps(FAILURE_SCENARIO).replace('"g": 1,', '"g": 1, "g": 5,'),
                 "scenario file {path}: repeated JSON key 'g'", id="repeated-g"),
    (_edited(0, "duration"), "duration must be positive"),
    (_edited("xyz", "variant"), "unknown variant 'xyz' (expected 'std' or 'mod')"),
]


@pytest.mark.parametrize("command", ["simulate", "sync"])
@pytest.mark.parametrize(("scenario", "message"), MALFORMED_SCENARIOS)
def test_malformed_scenario_is_usage_error(tmp_path, capsys, command, scenario, message):
    path = tmp_path / "scenario.json"
    path.write_text(scenario if isinstance(scenario, str) else json.dumps(scenario))
    out_flag = "--out" if command == "simulate" else "--emit"
    code = main([command, "--scenario", str(path), out_flag, str(tmp_path / "out.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"error: {message.replace('{path}', str(path))}\n"


@pytest.mark.parametrize("command", ["simulate", "sync"])
def test_json_string_scenario_is_not_decoded_twice(tmp_path, capsys, command):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(json.dumps(FAILURE_SCENARIO)))  # a JSON string holding one
    out_flag = "--out" if command == "simulate" else "--emit"
    code = main([command, "--scenario", str(path), out_flag, str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "must be a JSON object" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize(
    ("payload", "named"),
    [
        ([list(range(14)), [5] * 14], "JSON object"),
        ({"1": list(range(14)), "two": [5] * 14}, "'two'"),
        # a payload for a key that is no generator at all
        ({"1": list(range(14)), "2": [5] * 14, "-3": [1]},
         "payload.json: payload for generator -3, which is not active"),
        ({"1": list(range(14)), "2": [1.5] * 14}, "generator 2"),
        ({"1": list(range(14)), "2": [2**70] * 14}, "generator 2"),
        ({"1": [[1, 2]] * 7, "2": [5] * 14}, "generator 1"),
        ({"1": [0] * 3, "2": [5] * 14},
         "payload.json: generator 1: expected 14 symbols in a 1-D array, got shape (3,)"),
        ({"1": list(range(14)), "2": [5] * 13 + [99]},
         "payload.json: generator 2: symbol 99 outside GF(32)"),
        # an entry that a later one would hide, its symbols outside GF(32):
        # under the same key (JSON text: a dict cannot hold it), or under a
        # key naming the same generator
        pytest.param(f'{{"1": {[99] * 14}, "2": {[5] * 14}, "1": {list(range(14))}}}',
                     "payload.json: repeated JSON key '1'", id="repeated-key"),
        pytest.param({"1": [99] * 14, "2": [5] * 14, "01": list(range(14))},
                     "payload.json: key '01' names generator 1 again", id="repeated-generator"),
        ({"1": list(range(14)), "x": [5] * 14},
         "payload.json: key 'x' is not a generator number"),
        ({"1": list(range(14)), "2": 5}, "payload.json: generator 2 must be an array"),
        ({"1": list(range(14))}, "payload.json: no payload for generator 2"),
        ({"1": list(range(14)), "2": [5] * 13 + [-1]},
         "payload.json: generator 2: symbol -1 outside GF(32)"),
        ({"1": list(range(14)), "2": [5] * 13 + [2**63]},
         "payload.json: generator 2 must be an array of 64-bit integers"),
        # a payload for a generator outside --users, one of the field's,
        # with a wrong symbol count
        ({"1": list(range(14)), "2": [5] * 14, "4": [1]},
         "payload.json: payload for generator 4, which is not active"),
    ],
)
def test_malformed_payload_is_usage_error(tmp_path, capsys, payload, named):
    path = tmp_path / "payload.json"
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    code = main(["session", "--p", "5", "--k", "5", "--users", "1,2",
                 "--offsets", "0,9", "--payload", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


# not JSON (a field name without quotes), not UTF-8, and a repeated key
UNREADABLE_JSON = [(b'{\n  p: 7}', "Expecting property name enclosed in double quotes"),
                   (b'{"p": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
                   (b'{"duration": 58, "duration": 3000}', "repeated JSON key 'duration'")]
UNREADABLE_IDS = ["syntax", "encoding", "repeated-key"]


@pytest.mark.parametrize("command", ["simulate", "sync"])
@pytest.mark.parametrize(("content", "reason"), UNREADABLE_JSON, ids=UNREADABLE_IDS)
def test_unreadable_scenario_file_is_named(tmp_path, capsys, command, content, reason):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    out_flag = "--out" if command == "simulate" else "--emit"
    code = main([command, "--scenario", str(path), out_flag, str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith(f"error: scenario file {path}: {reason}")


@pytest.mark.parametrize(("content", "reason"), UNREADABLE_JSON, ids=UNREADABLE_IDS)
def test_unreadable_payload_file_is_named(tmp_path, capsys, content, reason):
    path = tmp_path / "payload.json"
    path.write_bytes(content)
    code = main(["session", "--p", "5", "--k", "5", "--users", "1,2",
                 "--offsets", "0,9", "--payload", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: payload file {path}: {reason}")


# the input file of each command that reads one, and its name in messages
INPUT_FILE = {"simulate": "scenario", "sync": "scenario", "session": "payload"}


def _main_reading(command: str, path, tmp_path) -> int:
    """main() on command with path as its scenario or payload file."""
    if command == "session":
        return main(["session", "--p", "5", "--k", "5", "--users", "1,2", "--offsets", "0,9",
                     "--payload", str(path)])
    out_flag = "--out" if command == "simulate" else "--emit"
    return main([command, "--scenario", str(path), out_flag, str(tmp_path / "out.csv")])


@pytest.mark.parametrize("command", INPUT_FILE)
def test_input_file_that_cannot_be_opened_is_named(tmp_path, capsys, command):
    what = INPUT_FILE[command]
    missing = tmp_path / "nope.json"
    assert _main_reading(command, missing, tmp_path) == 2
    assert capsys.readouterr().err == f"error: {what} file not found: {missing}\n"
    assert _main_reading(command, tmp_path, tmp_path) == 2  # a directory
    assert capsys.readouterr().err == f"error: {what} file {tmp_path}: Is a directory\n"


@pytest.mark.parametrize("command", INPUT_FILE)
def test_input_file_that_is_not_an_object_is_named(tmp_path, capsys, command):
    path = tmp_path / "input.json"
    path.write_text("[1, 2]")
    assert _main_reading(command, path, tmp_path) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {INPUT_FILE[command]} file {path} must be a JSON object, got [1, 2]\n"
    )


@pytest.mark.parametrize("command", ["simulate", "sync"])
def test_scenario_too_large_for_memory_is_usage_error(tmp_path, capsys, command):
    # a period of 7 * 2**58 slots: one sequence's 2**58 columns would need
    # far more bytes than any address space holds, so numpy refuses them
    # before touching memory (a long duration is no such case: the run
    # streams in blocks of BLOCK_SLOTS slots)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(dict(FAILURE_SCENARIO, q=2**58)))
    out_flag = "--out" if command == "simulate" else "--emit"
    code = main([command, "--scenario", str(path), out_flag, str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: Unable to allocate") and "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


def stretched_scenario(duration: int) -> dict:
    """Six users at (7, 101) for ``duration`` slots: two permanent users,
    one of whose spans starts below slot 0, and four session users with
    four sessions each, stretched over the horizon, so that the file is the
    same size at every duration."""
    L, quarter = 7 * 101, duration // 4
    users = [{"id": 1, "g": 1, "offset": 0}, {"id": 2, "g": 2, "offset": 300}]
    users += [{"id": g, "g": g, "sessions": [[k * quarter + 50 * g, (k + 1) * quarter - L]
                                             for k in range(4)]}
              for g in range(3, 7)]
    return {"p": 7, "q": 101, "variant": "mod", "duration": duration, "users": users}


def _child_env() -> dict[str, str]:
    """The environment of a fresh interpreter that imports this crtseq."""
    pythonpath = [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))


# runs main on its argv in a fresh interpreter and reports the peak
# resident set of the interpreter's own memory, VmHWM in KiB: ru_maxrss
# would also count the parent's, which a child keeps across exec
PEAK_CHILD = (
    "import re, sys\n"
    "from crtseq.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "with open('/proc/self/status') as fh:\n"
    "    print(re.search(r'VmHWM:\\s*(\\d+) kB', fh.read())[1], file=sys.stderr)\n"
    "sys.exit(code)\n"
)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
@pytest.mark.parametrize("command", ["simulate", "sync"])
def test_peak_memory_does_not_grow_with_duration(tmp_path, command):
    # the run streams in blocks of BLOCK_SLOTS slots, so 5M slots peak
    # within a few MiB of 100k slots; held whole, 5M slots took over 100 MiB
    out_flag = "--out" if command == "simulate" else "--emit"
    peaks = []
    for duration in (100_000, 5_000_000):
        path, out = tmp_path / f"{duration}.json", tmp_path / f"{duration}.csv"
        path.write_text(json.dumps(stretched_scenario(duration)))
        run = subprocess.run([sys.executable, "-c", PEAK_CHILD, command, "--scenario", str(path),
                              out_flag, str(out)], env=_child_env(), capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert (f"{duration} slots: " if command == "simulate" else " events, ") in run.stdout
        out.unlink()  # a 5M-slot trace.csv is about 100 MB
        peaks.append(int(run.stderr.split()[-1]) / 1024)
    assert peaks[1] - peaks[0] < 8, f"peak {peaks[0]:.1f} MiB at 100k slots, {peaks[1]:.1f} at 5M"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc")
def test_sweep_peak_memory_does_not_grow_with_trials(tmp_path):
    # offsets are drawn and counted in chunks of rows and only a count is
    # kept per trial, so 200k trials peak within a few MiB of 10k; with the
    # offsets held whole, 200k trials took about 87 MiB more
    peaks = []
    for trials in (10_000, 200_000):
        run = subprocess.run([sys.executable, "-c", PEAK_CHILD, "sweep", "--p", "37",
                              "--k-range", "6:6", "--m", "19", "--trials", str(trials),
                              "--out", str(tmp_path / "sweep.csv")],
                             env=_child_env(), capture_output=True, text=True)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("k,L,min,mean,max,bound\n6,8177,")
        peaks.append(int(run.stderr.split()[-1]) / 1024)
    assert peaks[1] - peaks[0] < 8, f"peak {peaks[0]:.1f} MiB at 10k trials, {peaks[1]:.1f} at 200k"


# runs main on its argv in a fresh interpreter and prints two lines: the
# numpy.random modules that a bare `import numpy` loaded, then those loaded
# after the command
RNG_CHILD = (
    "import sys, numpy\n"
    "rng = lambda: sorted(m for m in sys.modules if m.startswith('numpy.random'))\n"
    "bare = rng()\n"
    "from crtseq.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(' '.join(bare), ' '.join(rng()), sep='\\n', file=sys.stderr)\n"
    "sys.exit(code)\n"
)

MIXED_USERS = [{"id": 1, "g": 1, "sessions": [[30, 2000]]},
               {"id": 3, "g": 3, "offset": 250}, {"id": -7, "g": 2, "offset": 0}]
RECEIVER_ARGV = {
    "simulate": ["simulate", "--scenario", "scenario.json", "--out", "out.csv"],
    "sync": ["sync", "--scenario", "scenario.json", "--emit", "out.csv"],
}


def _numpy_random_loads(tmp_path, argv, users=MIXED_USERS) -> tuple[set[str], set[str]]:
    """(numpy.random modules after a bare numpy import, those after main(argv))
    in a fresh interpreter working in tmp_path, where scenario.json holds a
    2000-slot (7, 101) scenario of ``users``."""
    (tmp_path / "scenario.json").write_text(json.dumps(
        {"p": 7, "q": 101, "variant": "mod", "duration": 2000, "users": users}))
    run = subprocess.run([sys.executable, "-c", RNG_CHILD, *argv], cwd=tmp_path,
                         env=_child_env(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    bare, after = run.stderr.splitlines()[-2:]
    return set(bare.split()), set(after.split())


@pytest.mark.parametrize(
    "argv",
    [RECEIVER_ARGV["simulate"], RECEIVER_ARGV["sync"],
     ["session", "--p", "5", "--k", "5", "--users", "1,2", "--offsets", "0,9"]],
    ids=lambda argv: argv[0],
)
def test_receiver_on_given_offsets_loads_no_numpy_random(tmp_path, argv):
    # a Generator is built only where its draws reach an output
    bare, after = _numpy_random_loads(tmp_path, argv)
    assert after <= bare, sorted(after - bare)


@pytest.mark.parametrize(
    "argv",
    [RECEIVER_ARGV["simulate"], RECEIVER_ARGV["sync"],
     ["session", "--p", "5", "--k", "5", "--users", "1,2"],
     ["sweep", "--p", "5", "--k-range", "2:3", "--m", "2", "--trials", "10",
      "--out", "out.csv"]],
    ids=["simulate-unspecified-offset", "sync-unspecified-offset",
         "session-sampled-offsets", "sweep"],
)
def test_commands_that_draw_still_load_numpy_random(tmp_path, argv):
    drawn = MIXED_USERS + [{"id": 4, "g": 4}]  # an offset drawn from the seed
    _, after = _numpy_random_loads(tmp_path, argv, drawn)
    assert "numpy.random" in after


@pytest.mark.parametrize(
    "argv",
    [["generate", "--p", "3", "--q", "5", "--g", "1"],
     ["correlate", "--p", "5", "--q", "7", "--g", "1", "--h", "2"],
     ["session", "--p", "5", "--k", "5", "--users", "1,2", "--offsets", "1,2"],
     ["sweep", "--p", "5", "--k-range", "2:3", "--m", "2", "--trials", "10"],
     ["compare", "--p", "3", "--k", "2"]],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_prints_nothing(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"


class TestOneParserPerProcess:
    """main() builds its parser once per process; a call must behave as in
    a fresh process whatever the calls before it parsed.  The fresh
    process is stood in for by the same call with a newly built parser."""

    @staticmethod
    def after_and_fresh(argv, capsys, out=None):
        """(exit code, stdout, stderr, bytes of ``out``) of main(argv) on
        the cached parser, then the same with a newly built parser."""
        runs = []
        for rebuild in (False, True):
            if rebuild:
                cli._build_parser.cache_clear()
            code = main(argv)
            captured = capsys.readouterr()
            runs.append((code, captured.out, captured.err, out and out.read_bytes()))
        return runs

    def test_parser_is_built_once(self, capsys):
        assert main(["generate", "--p", "3", "--q", "5", "--g", "1"]) == 0
        built = cli._build_parser.cache_info().misses
        assert main(["generate", "--p", "3", "--q", "5", "--g", "2"]) == 0
        assert cli._build_parser.cache_info().misses == built

    def test_flag_does_not_persist(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "p": 5, "q": 51, "variant": "mod", "duration": 765,
            "users": [{"id": 1, "g": 1, "offset": None, "sessions": [[40, 765]]}],
        }))
        argv = ["sync", "--scenario", str(scenario), "--emit", str(tmp_path / "events.csv")]
        # a detector that reports nothing misses user 1 inside the guarantee
        with mock.patch.object(cli.sync.ActivityDetector, "push", return_value=[]):
            assert main(argv + ["--assert-guarantee"]) == 1
            assert "guarantee violated" in capsys.readouterr().err
            after, fresh = self.after_and_fresh(argv, capsys)
        assert after == fresh and after[0] == 0

    def test_omitted_offsets_are_drawn_again(self, tmp_path, capsys):
        base = ["session", "--p", "5", "--k", "5", "--users", "1,2,3", "--seed", "4"]
        assert main(base + ["--offsets", "3,40,77"]) == 0
        assert json.loads(capsys.readouterr().out)["offsets"] == [3, 40, 77]
        after, fresh = self.after_and_fresh(base, capsys)
        assert after == fresh and after[0] == 0
        assert json.loads(after[1])["offsets"] != [3, 40, 77]

    @pytest.mark.parametrize(
        "bad",
        [["sweep", "--p", "5", "--k-range", "2:3", "--m", "0", "--out", "BAD_OUT"],
         ["sweep", "--p", "5", "--k-range", "2:3"],
         ["--help"]],
        ids=["value-error", "missing-argument", "help"],
    )
    def test_call_after_an_exit(self, tmp_path, capsys, bad):
        bad = [str(tmp_path / "bad.csv") if a == "BAD_OUT" else a for a in bad]
        try:
            code = main(bad)
        except SystemExit as exc:  # argparse exits on --help and on bad argv
            code = exc.code
        assert code == (0 if bad == ["--help"] else 2)
        capsys.readouterr()
        out = tmp_path / "curve.csv"
        argv = ["sweep", "--p", "5", "--k-range", "2:3", "--m", "2",
                "--trials", "100", "--seed", "1", "--out", str(out)]
        after, fresh = self.after_and_fresh(argv, capsys, out=out)
        assert after == fresh and after[0] == 0


class TestCompare:
    def test_table_rows(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["compare", "--p", "3", "--k", "2", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "family,period,epsilon,note"
        table = {row.split(",")[0]: row.split(",") for row in lines[1:]}
        assert table["crt"][1:3] == ["15", "4/5"]
        assert table["prime"][2] == "1/1"
        assert table["extended-prime"][2] == "1/1"
        assert table["wobbling"][3] == "not computed"
        assert table["shift-invariant"][3] == "not computed"

    def test_golden_csv(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        assert main(["compare", "--p", "37", "--k", "6", "--out", str(out)]) == 0
        assert out.read_bytes() == COMPARE_GOLDEN
