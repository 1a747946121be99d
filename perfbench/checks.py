"""Output checks of the benchmark jobs.

Each check returns a list of error strings, empty when the output is right.
Random-sample outputs are checked by invariants that any correct sampler
meets, not by digests, so a change of sampling method still passes.  Exact
outputs are compared exactly.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
from fractions import Fraction
from pathlib import Path

# Exhaustive two-user throughput on generators (1, 2): success counts of the
# worst and best offset pair, keyed by (p, k).  Recorded from the
# enumeration over all L^2 offset pairs.
EXHAUSTIVE_MIN_MAX = {(7, 2): (20, 24), (11, 3): (56, 60), (13, 3): (68, 72)}

# CRT-family uniformity epsilon of ``crtseq compare``, keyed by (p, k).
COMPARE_CRT_EPSILON = {(37, 6): "38/221"}

SWEEP_MEAN_TOLERANCE = 0.01
FLOAT_MEAN_TOLERANCE = 1e-12


def peak_bound(p: int, k: int) -> Fraction:
    """Worst-case throughput bound of the q = kp - 1 family at the best
    integer user count (the paper's completed-square form)."""
    L = k * p * p - p
    return Fraction((p + 1) ** 2, 4 * L) * Fraction(k * k, k + 1) - Fraction(k + 1, L)


def check_sweep_csv(text: str, p: int, ks: list[int], m: int) -> list[str]:
    """Every k row: the bound column is the paper's bound, the sampled
    minimum is at or above it, and the sampled mean is within 0.01 of the
    random-offset mean m/p * (1 - 1/p)^(m-1) (about 0.314 at p=37, m=19)."""
    lines = text.splitlines()
    if not lines or lines[0] != "k,L,min,mean,max,bound":
        return ["sweep.csv: bad header"]
    rows = [line.split(",") for line in lines[1:]]
    if [r[0] for r in rows] != [str(k) for k in ks]:
        return [f"sweep.csv: k column {[r[0] for r in rows]} != {ks}"]
    expected_mean = m / p * (1 - 1 / p) ** (m - 1)
    errors = []
    for k_s, L_s, mn_s, mean_s, mx_s, bound_s in rows:
        k = int(k_s)
        if int(L_s) != k * p * p - p:
            errors.append(f"k={k}: period {L_s}")
        if bound_s != f"{float(peak_bound(p, k)):.6f}":
            errors.append(f"k={k}: bound {bound_s} != {float(peak_bound(p, k)):.6f}")
        mn, mean, mx = float(mn_s), float(mean_s), float(mx_s)
        # both sides carry the same 6-digit rounding, which keeps their order
        if mn < float(bound_s):
            errors.append(f"k={k}: minimum {mn_s} below the bound {bound_s}")
        if abs(mean - expected_mean) > SWEEP_MEAN_TOLERANCE:
            errors.append(f"k={k}: mean {mean_s} not within 0.01 of {expected_mean:.4f}")
        if not 0 <= mn <= mean <= mx <= 1:
            errors.append(f"k={k}: min/mean/max {mn_s}/{mean_s}/{mx_s} out of order")
    return errors


def check_exhaustive(report, p: int, k: int) -> list[str]:
    """All L^2 pairs enumerated; min and max equal the recorded success
    counts over L exactly; the mean equals 2(p-1)/p^2 (two users of duty
    1/p) up to float summation order."""
    L = k * p * p - p
    lo, hi = EXHAUSTIVE_MIN_MAX[(p, k)]
    errors = []
    if report.trials != L * L:
        errors.append(f"({p},{k}): trials {report.trials} != L^2 = {L * L}")
    if report.minimum != float(Fraction(lo, L)):
        errors.append(f"({p},{k}): minimum {report.minimum} != {lo}/{L}")
    if report.maximum != float(Fraction(hi, L)):
        errors.append(f"({p},{k}): maximum {report.maximum} != {hi}/{L}")
    mean = Fraction(2 * (p - 1), p * p)
    if abs(report.mean - float(mean)) > FLOAT_MEAN_TOLERANCE:
        errors.append(f"({p},{k}): mean {report.mean} != {mean}")
    return errors


def check_compare_csv(text: str, p: int, k: int) -> list[str]:
    """Exact epsilons and periods of the three computed families."""
    rows = {r["family"]: r for r in csv.DictReader(io.StringIO(text))}
    expected = {
        "crt": (k * p * p - p, COMPARE_CRT_EPSILON[(p, k)]),
        "prime": (p * p, "1/1"),
        "extended-prime": (p * (2 * p - 1), "1/1"),
    }
    errors = []
    for family, (period, eps) in expected.items():
        row = rows.get(family)
        if row is None:
            errors.append(f"compare.csv: no {family} row")
        elif (row["period"], row["epsilon"]) != (str(period), eps):
            errors.append(
                f"compare.csv: {family} period/epsilon {row['period']}/{row['epsilon']}"
                f" != {period}/{eps}"
            )
    return errors


_OUTCOME_CODES = {"idle": 0, "success": 1, "collision": 2}


def read_trace_prefix(path: Path, slots: int) -> list[int]:
    """Activity symbols (0 idle, 1 one sender, 2 collision) of the first
    ``slots`` rows of a ``crtseq simulate`` trace."""
    with open(path) as fh:
        next(fh)
        return [_OUTCOME_CODES[line.split(",", 2)[1]] for line in itertools.islice(fh, slots)]


def check_trace_csv(path: Path, duration: int) -> list[str]:
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        rows = 0
        last = ""
        for last in fh:
            rows += 1
    if header != "slot,outcome,sender":
        return ["trace.csv: bad header"]
    if rows != duration or not last.startswith(f"{duration - 1},"):
        return [f"trace.csv: {rows} rows for {duration} slots"]
    return []


def _events(text: str, L: int) -> list[tuple[str, int, int]]:
    """(kind, user, t0) per row of an events.csv, in file order; t0 is the
    start slot of an activation and the failed window of a deactivation,
    whose row is written at slot t0 + L."""
    out = []
    for row in csv.DictReader(io.StringIO(text)):
        t0 = int(row["start"]) if row["event"] == "activated" else int(row["slot"]) - L
        out.append((row["event"], int(row["user"]), t0))
    return out


def check_events_csv(text: str, L: int, expected: set[tuple[int, int]]) -> list[str]:
    """Exactly the expected (user, start) activations, each reported one
    period after its start; deactivation rows are reported at window + L."""
    if not text.startswith("slot,event,user,start\n"):
        return ["events.csv: bad header"]
    got = set()
    errors = []
    for row in csv.DictReader(io.StringIO(text)):
        if row["event"] == "activated":
            user, start = int(row["user"]), int(row["start"])
            if int(row["slot"]) != start + L:
                errors.append(f"activation of {user} at {start} reported at {row['slot']}")
            if (user, start) in got:
                errors.append(f"repeated activation: user {user} at {start}")
            got.add((user, start))
        elif row["event"] != "deactivated":
            errors.append(f"unknown event {row['event']!r}")
    for user, start in sorted(expected - got)[:5]:
        errors.append(f"missed activation: user {user} at {start}")
    for user, start in sorted(got - expected)[:5]:
        errors.append(f"unexpected activation: user {user} at {start}")
    if len(expected ^ got) > 10:
        errors.append(f"{len(expected - got)} missed, {len(got - expected)} unexpected in all")
    return errors


def check_stream(events: list, events_text: str, L: int, slots: int) -> list[str]:
    """Streaming the first ``slots`` symbols yields exactly the batch events
    decided within them (window start t0 <= slots - L), in the same order."""
    streamed = [
        ("activated", ev.user, ev.start)
        if type(ev).__name__ == "Activated"
        else ("deactivated", ev.user, ev.at)
        for ev in events
    ]
    batch = [ev for ev in _events(events_text, L) if ev[2] <= slots - L]
    if streamed != batch:
        diff = next(
            (i for i, (a, b) in enumerate(zip(streamed, batch)) if a != b),
            min(len(streamed), len(batch)),
        )
        return [
            f"stream: {len(streamed)} events vs {len(batch)} batch events in the prefix;"
            f" first difference at event {diff}"
        ]
    return []


def check_session_json(stdout: str, p: int, k: int, gens: tuple[int, ...]) -> list[str]:
    """All users recovered, each within the erasure budget n - dim, with
    n = kp + 1 and dim = (kp + k - p + 3) / 2."""
    payload = json.loads(stdout)
    n, dim = k * p + 1, (k * p + k - p + 3) // 2
    errors = []
    if (payload["n"], payload["dim"]) != (n, dim):
        errors.append(f"session ({p},{k}): n/dim {payload['n']}/{payload['dim']} != {n}/{dim}")
    if payload["all_recovered"] is not True:
        errors.append(f"session ({p},{k}) offsets {payload['offsets']}: not all recovered")
    users = payload["users"]
    if sorted(users) != sorted(str(g) for g in gens):
        errors.append(f"session ({p},{k}): users {sorted(users)}")
    for g, u in users.items():
        if u["recovered"] is not True or u["erasures"] > n - dim:
            errors.append(f"session ({p},{k}): user {g} erasures {u['erasures']},"
                          f" recovered {u['recovered']}")
    return errors
