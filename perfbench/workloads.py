"""Seeded inputs and job lists of the two benchmark workloads.

A workload is a fixed list of jobs.  Each job is one in-process call of
``crtseq.cli.main`` or of a public library function; the runner times the
call and then checks its output outside the timed region.  All inputs come
from the workload seed through ``random.Random``, so a seed always gives the
same files and argv, whatever numpy version is installed.

Library functions are looked up on their module at call time, never bound
at import, so the tracer can wrap them from outside the package.
"""

from __future__ import annotations

import contextlib
import heapq
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

from crtseq import channel, cli, sync
from crtseq.core import CrtParams, Variant

import checks


@dataclass(frozen=True)
class Size:
    """Every input dimension a workload depends on."""

    sweep_p: int
    sweep_ks: tuple[int, int]
    sweep_m: int
    sweep_trials: int
    exhaustive: tuple[tuple[int, int], ...]
    compare: tuple[int, int]
    sync_duration: int
    stream_slots: int
    small_sessions: int
    large_sessions: int


FULL = Size(
    sweep_p=37,
    sweep_ks=(2, 6),
    sweep_m=19,
    sweep_trials=10_000,
    exhaustive=((11, 3), (13, 3)),
    compare=(37, 6),
    sync_duration=500_000,
    stream_slots=20_000,
    small_sessions=100,
    large_sessions=1,
)

# A few seconds per workload; used by the benchmark's own tests.
TINY = Size(
    sweep_p=37,
    sweep_ks=(2, 3),
    sweep_m=19,
    sweep_trials=500,
    exhaustive=((7, 2),),
    compare=(37, 6),
    sync_duration=20_000,
    stream_slots=5_000,
    small_sessions=5,
    large_sessions=1,
)

SIZES = {"full": FULL, "tiny": TINY}

# Sync workload: q = 101 > 2p^2 = 98 with the modified variant, six users
# (generator g, id g) and at most (p+1)/2 = 4 of them active at once.
SYNC_P, SYNC_Q, SYNC_USERS, SYNC_CAP = 7, 101, 6, 4
EXHAUSTIVE_GENERATORS = (1, 2)
SMALL_SESSION = (5, 5, (1, 2, 3))
LARGE_SESSION = (13, 13, (1, 2, 3, 4, 5, 6, 7))


# Unit of each end-to-end rate a job feeds (Job.rate).
RATE_UNITS = {
    "sweep_trials_per_s": "trials/s",
    "pair_offsets_per_s": "pairs/s",
    "compare_pairs_per_s": "pairs/s",
    "simulate_slots_per_s": "slots/s",
    "sync_slots_per_s": "slots/s",
    "stream_slots_per_s": "slots/s",
    "session_small_per_s": "round trips/s",
    "session_large_per_s": "round trips/s",
}


@dataclass
class Job:
    """One timed call.  ``work`` units feed the end-to-end rate ``rate``."""

    name: str
    rate: str
    work: int
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    prepare: Callable[[], None] | None = None
    outputs: tuple[Path, ...] = ()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call the CLI in process; return its exit code and captured stdout."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_check(check_stdout: Callable[[str], list[str]]):
    """Check of a CLI job: exit code 0, then ``check_stdout`` on its stdout."""

    def check(result: tuple[int, str]) -> list[str]:
        code, out = result
        return [f"exit code {code}"] if code != 0 else check_stdout(out)

    return check


# --- sweep ---


def sweep_jobs(seed: int, workdir: Path, size: Size) -> list[Job]:
    p, (k_lo, k_hi), m, trials = size.sweep_p, size.sweep_ks, size.sweep_m, size.sweep_trials
    ks = list(range(k_lo, k_hi + 1))
    sweep_csv = workdir / "sweep.csv"
    argv = ["sweep", "--p", str(p), "--k-range", f"{k_lo}:{k_hi}", "--m", str(m),
            "--trials", str(trials), "--seed", str(seed), "--out", str(sweep_csv)]
    jobs = [
        Job(
            "sweep", "sweep_trials_per_s", len(ks) * trials,
            lambda: run_cli(argv),
            _cli_check(lambda _: checks.check_sweep_csv(sweep_csv.read_text(), p, ks, m)),
            outputs=(sweep_csv,),
        )
    ]
    for ep, ek in size.exhaustive:
        L = ek * ep * ep - ep
        jobs.append(
            Job(
                f"exhaustive-{ep}-{ek}", "pair_offsets_per_s", L * L,
                lambda ep=ep, ek=ek: channel.exhaustive_pair_throughput(
                    ep, ek, EXHAUSTIVE_GENERATORS
                ),
                lambda rep, ep=ep, ek=ek: checks.check_exhaustive(rep, ep, ek),
            )
        )
    cp, ck = size.compare
    compare_csv = workdir / "compare.csv"
    # three families of cp sequences each, every unordered pair scored once
    pairs = 3 * cp * (cp - 1) // 2
    cargv = ["compare", "--p", str(cp), "--k", str(ck), "--out", str(compare_csv)]
    jobs.append(
        Job(
            "compare", "compare_pairs_per_s", pairs,
            lambda: run_cli(cargv),
            _cli_check(lambda _: checks.check_compare_csv(compare_csv.read_text(), cp, ck)),
            outputs=(compare_csv,),
        )
    )
    return jobs


# --- sync ---


def session_schedule(
    seed: int, L: int, duration: int, n_users: int, cap: int
) -> dict[int, list[tuple[int, int]]]:
    """Seeded multi-session schedule with at most ``cap`` users active at once.

    ``cap`` lanes each carry one session at a time, so concurrency never
    exceeds ``cap``.  Sessions last 1..6 periods; a lane idles 0..2 periods
    between sessions; a user rests at least one period between its own
    sessions, as ``Scenario`` requires.
    """
    rng = random.Random(seed)
    last_end = {u: -L for u in range(1, n_users + 1)}
    sessions: dict[int, list[tuple[int, int]]] = {u: [] for u in last_end}
    lanes = [(rng.randrange(L), lane) for lane in range(cap)]
    heapq.heapify(lanes)
    while lanes:
        start, lane = heapq.heappop(lanes)
        if start >= duration:
            continue
        rested = [u for u, end in last_end.items() if end + L <= start]
        if not rested:  # wait for the first user to finish resting
            heapq.heappush(lanes, (min(last_end.values()) + L, lane))
            continue
        user = rng.choice(rested)
        end = start + rng.randint(L, 6 * L)
        sessions[user].append((start, end))
        last_end[user] = end
        heapq.heappush(lanes, (end + rng.randint(0, 2 * L), lane))
    return sessions


def sync_scenario(seed: int, duration: int) -> dict:
    L = SYNC_P * SYNC_Q
    schedule = session_schedule(seed, L, duration, SYNC_USERS, SYNC_CAP)
    return {
        "p": SYNC_P,
        "q": SYNC_Q,
        "variant": "mod",
        "duration": duration,
        "seed": seed,
        "users": [
            {"id": u, "g": u, "offset": None, "sessions": [list(s) for s in spans]}
            for u, spans in schedule.items()
            if spans
        ],
    }


def expected_activations(scenario: dict) -> set[tuple[int, int]]:
    """(user, start) of every session whose first full period fits."""
    L = scenario["p"] * scenario["q"]
    return {
        (u["id"], a)
        for u in scenario["users"]
        for a, _ in u["sessions"]
        if a + L <= scenario["duration"]
    }


def sync_jobs(seed: int, workdir: Path, size: Size) -> list[Job]:
    duration, prefix = size.sync_duration, size.stream_slots
    scenario = sync_scenario(seed, duration)
    expected = expected_activations(scenario)
    L = SYNC_P * SYNC_Q
    scenario_json = workdir / "scenario.json"
    scenario_json.write_text(json.dumps(scenario))
    trace_csv, events_csv = workdir / "trace.csv", workdir / "events.csv"

    symbols: list[int] = []

    def load_prefix() -> None:
        symbols[:] = checks.read_trace_prefix(trace_csv, prefix)

    def stream() -> list:
        det = sync.ActivityDetector(CrtParams(SYNC_P, SYNC_Q, Variant.MODIFIED))
        events = []
        for s in symbols:
            events.extend(det.push(s))
        return events

    return [
        Job(
            "simulate", "simulate_slots_per_s", duration,
            lambda: run_cli(["simulate", "--scenario", str(scenario_json),
                             "--out", str(trace_csv)]),
            _cli_check(lambda _: checks.check_trace_csv(trace_csv, duration)),
            outputs=(trace_csv,),
        ),
        Job(
            "sync", "sync_slots_per_s", duration,
            lambda: run_cli(["sync", "--scenario", str(scenario_json),
                             "--emit", str(events_csv), "--assert-guarantee"]),
            _cli_check(lambda _: checks.check_events_csv(events_csv.read_text(), L, expected)),
            outputs=(events_csv,),
        ),
        Job(
            "stream", "stream_slots_per_s", prefix,
            stream,
            lambda events: checks.check_stream(events, events_csv.read_text(), L, prefix),
            prepare=load_prefix,
        ),
    ]


# --- session ---


def session_offsets(seed: int, size: Size) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    rng = random.Random(seed)

    def draw(spec, count):
        p, k, gens = spec
        L = p * (k * p + 1)
        return [tuple(rng.randrange(L) for _ in gens) for _ in range(count)]

    return draw(SMALL_SESSION, size.small_sessions), draw(LARGE_SESSION, size.large_sessions)


def session_jobs(seed: int, workdir: Path, size: Size) -> list[Job]:
    small, large = session_offsets(seed, size)
    jobs = []
    for label, rate, spec, tuples in (
        ("small", "session_small_per_s", SMALL_SESSION, small),
        ("large", "session_large_per_s", LARGE_SESSION, large),
    ):
        p, k, gens = spec
        for i, offs in enumerate(tuples):
            argv = ["session", "--p", str(p), "--k", str(k),
                    "--users", ",".join(map(str, gens)),
                    "--offsets", ",".join(map(str, offs)),
                    "--seed", str(seed * 1000 + i)]
            jobs.append(
                Job(
                    f"session-{label}-{i}", rate, 1,
                    lambda argv=argv: run_cli(argv),
                    _cli_check(lambda out, p=p, k=k, gens=gens:
                               checks.check_session_json(out, p, k, gens)),
                )
            )
    return jobs


def receiver_jobs(seed: int, workdir: Path, size: Size) -> list[Job]:
    """What a receiver does: identify users blindly, then decode sessions."""
    return sync_jobs(seed, workdir, size) + session_jobs(seed, workdir, size)


JOB_LISTS = {"sweep": sweep_jobs, "receiver": receiver_jobs}
WORKLOADS = tuple(JOB_LISTS)
