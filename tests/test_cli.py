import copy
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtseq import channel, cli
from crtseq.cli import main
from crtseq.core import read_sequence_file
from test_channel import oracle_senders, outcome, scenarios

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
        assert [r.generator for r in records] == [0, 1, 2]
        assert str(records[1].sequence) == "111110000000000"

    def test_composite_p_is_usage_error(self, capsys):
        assert main(["generate", "--p", "4", "--q", "5", "--g", "1"]) == 2
        assert "prime" in capsys.readouterr().err

    def test_needs_g_or_all(self, capsys):
        assert main(["generate", "--p", "3", "--q", "5"]) == 2


class TestCorrelate:
    def test_json_payload(self, capsys):
        assert main(["correlate", "--p", "3", "--q", "5", "--g", "2", "--h", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["range_predicted"] == [1, 3]
        assert payload["histogram_bruteforce"] == {"1": 7, "2": 6, "3": 2}
        assert payload["histogram_predicted"] == {"1": 7, "2": 6, "3": 2}
        assert payload["epsilon"] == "4/5"

    def test_handles_generator_zero_pair(self, capsys):
        assert main(["correlate", "--p", "3", "--q", "5", "--g", "0", "--h", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["range_predicted"] == [1, 2]
        assert payload["histogram_bruteforce"] == {"1": 5, "2": 10}


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
            text = "".join(cli._trace_csv_blocks(channel.simulate(scenario)))
        assert text == oracle_trace_csv(scenario)

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
        printed = capsys.readouterr().out
        assert "start error: user 6" in printed

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


def _sync(tmp_path, users, duration=1200):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(
        json.dumps({"p": 5, "q": 53, "variant": "mod", "duration": duration, "users": users})
    )
    return main(["sync", "--scenario", str(scenario), "--emit", str(tmp_path / "events.csv"),
                 "--assert-guarantee"])


class TestSyncVerdict:
    def test_ids_differing_from_generators(self, tmp_path, capsys):
        users = [{"id": 10, "g": 1, "offset": 7}, {"id": 20, "g": 2, "offset": 100}]
        assert _sync(tmp_path, users) == 0
        out = capsys.readouterr().out
        assert "guarantee: general" in out
        assert "false alarm" not in out and "missed detection" not in out

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

    def test_payload_must_cover_users(self, tmp_path, capsys):
        payload_path = tmp_path / "payload.json"
        payload_path.write_text(json.dumps({"1": list(range(14))}))
        assert main(["session", "--p", "5", "--k", "5", "--users", "1,2",
                     "--offsets", "0,9", "--payload", str(payload_path)]) == 2


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


MALFORMED_SCENARIOS = [
    ([FAILURE_SCENARIO], "JSON object"),
    (58, "JSON object"),
    (_edited(DELETE, "p"), "'p'"),
    (_edited(DELETE, "duration"), "'duration'"),
    (_edited(DELETE, "users"), "'users'"),
    (_edited(DELETE, "users", 2, "g"), "'users[2].g'"),
    (_edited(DELETE, "users", 0, "id"), "'users[0].id'"),
    (_edited("58", "duration"), "'duration'"),
    (_edited(7.5, "q"), "'q'"),
    (_edited(True, "p"), "'p'"),
    (_edited(3, "variant"), "'variant'"),
    (_edited({"id": 1}, "users"), "'users'"),
    (_edited(5, "users", 1), "users[1]"),
    (_edited("0", "users", 3, "offset"), "'users[3].offset'"),
    (_edited([[10]], "users", 4, "sessions"), "'users[4].sessions[0]'"),
]


@pytest.mark.parametrize("command", ["simulate", "sync"])
@pytest.mark.parametrize(("scenario", "named"), MALFORMED_SCENARIOS)
def test_malformed_scenario_is_usage_error(tmp_path, capsys, command, scenario, named):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    out_flag = "--out" if command == "simulate" else "--emit"
    code = main([command, "--scenario", str(path), out_flag, str(tmp_path / "out.csv")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


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
        ({"1": list(range(14)), "2": 5}, "generator 2"),
        ({"1": list(range(14)), "2": [1.5] * 14}, "generator 2"),
        ({"1": list(range(14)), "2": [2**70] * 14}, "generator 2"),
        ({"1": [[1, 2]] * 7, "2": [5] * 14}, "generator 1"),
    ],
)
def test_malformed_payload_is_usage_error(tmp_path, capsys, payload, named):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(payload))
    code = main(["session", "--p", "5", "--k", "5", "--users", "1,2",
                 "--offsets", "0,9", "--payload", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


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
