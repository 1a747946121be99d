"""Tests of the benchmark itself: its checks reject corrupted outputs, its
inputs are seeded and valid, and a tiny run of each workload passes.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


# --- sweep ---


def _sweep_csv(p=37, ks=(2, 3), m=19, min_shift=0.01):
    mean = m / p * (1 - 1 / p) ** (m - 1)
    rows = ["k,L,min,mean,max,bound"]
    for k in ks:
        bound = float(checks.peak_bound(p, k))
        rows.append(f"{k},{k * p * p - p},{bound + min_shift:.6f},{mean:.6f},0.334000,{bound:.6f}")
    return "\n".join(rows) + "\n"


def test_sweep_check_accepts_valid_rows():
    assert checks.check_sweep_csv(_sweep_csv(), 37, [2, 3], 19) == []


def test_sweep_check_rejects_minimum_below_bound():
    errors = checks.check_sweep_csv(_sweep_csv(min_shift=-0.001), 37, [2, 3], 19)
    assert any("below the bound" in e for e in errors)


def test_sweep_check_rejects_shifted_mean():
    text = _sweep_csv().replace(f"{19 / 37 * (36 / 37) ** 18:.6f}", "0.330000")
    assert any("mean" in e for e in checks.check_sweep_csv(text, 37, [2, 3], 19))


Report = namedtuple("Report", "trials minimum mean maximum")


def test_exhaustive_check_is_exact():
    L = 3 * 11 * 11 - 11
    good = Report(L * L, 56 / L, float(Fraction(20, 121)), 60 / L)
    assert checks.check_exhaustive(good, 11, 3) == []
    assert checks.check_exhaustive(good._replace(minimum=55 / L), 11, 3)
    assert checks.check_exhaustive(good._replace(trials=L * L - 1), 11, 3)
    assert checks.check_exhaustive(good._replace(mean=0.16), 11, 3)


COMPARE = (
    "family,period,epsilon,note\n"
    "crt,8177,38/221,computed\n"
    "prime,1369,1/1,computed\n"
    "extended-prime,2701,1/1,computed\n"
)


def test_compare_check_rejects_wrong_epsilon():
    assert checks.check_compare_csv(COMPARE, 37, 6) == []
    assert checks.check_compare_csv(COMPARE.replace("38/221", "37/221"), 37, 6)
    assert checks.check_compare_csv(COMPARE.replace("prime,1369,1/1", "prime,1369,2/1"), 37, 6)


# --- sync ---

L7 = 707
EVENTS = (
    "slot,event,user,start\n"
    f"{10 + L7},activated,1,10\n"
    f"{20 + L7},activated,2,20\n"
    f"{1424 + L7},deactivated,1,\n"
)
EXPECTED = {(1, 10), (2, 20)}


def test_events_check_rejects_dropped_and_extra_activations():
    assert checks.check_events_csv(EVENTS, L7, EXPECTED) == []
    dropped = EVENTS.replace(f"{20 + L7},activated,2,20\n", "")
    assert any("missed" in e for e in checks.check_events_csv(dropped, L7, EXPECTED))
    extra = EVENTS + f"{30 + L7},activated,3,30\n"
    assert any("unexpected" in e for e in checks.check_events_csv(extra, L7, EXPECTED))
    repeated = EVENTS + f"{20 + L7},activated,2,20\n"
    assert checks.check_events_csv(repeated, L7, EXPECTED)


Activated = namedtuple("Activated", "user start")
Deactivated = namedtuple("Deactivated", "user at")


def test_stream_check_matches_the_batch_prefix():
    streamed = [Activated(1, 10), Activated(2, 20)]
    # the deactivation at 1424 is decided only after slot 1424 + L - 1
    assert checks.check_stream(streamed, EVENTS, L7, 1424 + L7 - 1) == []
    assert checks.check_stream(streamed, EVENTS, L7, 1424 + L7)
    assert checks.check_stream(streamed[:1], EVENTS, L7, 2000)
    assert checks.check_stream(streamed + [Activated(3, 30)], EVENTS, L7, 2000)


def test_schedule_is_seeded_and_meets_the_scenario_rules():
    L, duration = L7, 60_000
    a = workloads.session_schedule(5, L, duration, 6, 4)
    assert a == workloads.session_schedule(5, L, duration, 6, 4)
    assert a != workloads.session_schedule(6, L, duration, 6, 4)
    active = [0] * (duration + 8 * L)
    for spans in a.values():
        for (s, e), nxt in zip(spans, spans[1:] + [None]):
            assert e - s >= L
            assert nxt is None or nxt[0] - e >= L
            for t in range(s, e):
                active[t] += 1
    assert max(active) <= 4


# --- session ---


def _session_json(recovered=True):
    users = {str(g): {"erasures": 5, "recovered": recovered} for g in (1, 2, 3)}
    return json.dumps({"p": 5, "k": 5, "n": 26, "dim": 14, "offsets": [1, 2, 3],
                       "users": users, "all_recovered": recovered})


def test_session_check_rejects_unrecovered_session():
    assert checks.check_session_json(_session_json(), 5, 5, (1, 2, 3)) == []
    assert checks.check_session_json(_session_json(False), 5, 5, (1, 2, 3))


# --- whole runs ---


def _run(args, cwd=ROOT, prelude=""):
    code = (
        f"import runpy, sys; sys.argv = ['run.py'] + {args!r}\n{prelude}\n"
        "runpy.run_path('perfbench/run.py', run_name='__main__')"
    )
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True,
                          text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_and_reports_every_metric(workload, trace):
    proc, result = _run(["--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stderr
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in BENCH[kind]]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_corrupted_output_fails_the_run():
    prelude = (
        "sys.path.insert(0, 'src')\n"
        "import crtseq.correlation as c\n"
        "good = c.epsilon_uniformity\n"
        "c.epsilon_uniformity = lambda seqs: good(seqs) / 2\n"
    )
    proc, result = _run(["--workload", "sweep", "--seed", "3", "--seconds", "0",
                         "--size", "tiny"], prelude=prelude)
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] == 1
    assert "compare" in proc.stderr


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc, result = _run(["--workload", "sweep", "--seed", "1", "--seconds", "1"],
                        cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None
