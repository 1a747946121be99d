"""Command-line front end.

Subcommands: generate, correlate, simulate, sweep, sync, session, compare.
Numeric artifacts go to files (CSV/JSON, written atomically); stdout gets a
short human summary.  Exit codes: 0 success, 1 a guarantee that should hold
was violated, 2 usage error.  JSON encodes exact rationals as "num/den"
strings.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import baselines, channel, correlation, erasure, sync
from .core import CrtParams, Variant, format_sequence_entry, generate_sequence

USAGE_ERROR, GUARANTEE_VIOLATION = 2, 1


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _write_atomic(path: str | Path, text: str | Iterable[str]) -> None:
    """Write text, or an iterable of text chunks, to path via a temp file."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or ".", prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _params(args) -> CrtParams:
    return CrtParams(args.p, args.q, Variant.parse(args.variant))


def _cmd_generate(args) -> int:
    if args.g is None and not args.all:
        raise ValueError("provide --g or --all")
    params = _params(args)
    gens = list(range(params.p)) if args.all else [args.g]
    seqs = [generate_sequence(g, params) for g in gens]
    print("\n".join(map(str, seqs)))
    if args.out:
        _write_atomic(
            args.out, "".join(format_sequence_entry(params, g, s) for g, s in zip(gens, seqs))
        )
    return 0


def _cmd_correlate(args) -> int:
    params = _params(args)
    a = generate_sequence(args.g, params)
    b = generate_sequence(args.h, params)
    spec = correlation.correlation_spectrum(a, b)
    try:
        predicted = correlation.predicted_distribution(
            correlation.reduced_generator(args.g, args.h, params.p), params
        )
    except (correlation.UnsupportedParameters, ValueError):
        predicted = None
    payload = {
        "range_predicted": list(correlation.predicted_cross_range(args.g, args.h, params)),
        "histogram_bruteforce": {str(j): n for j, n in spec.histogram.items()},
        "histogram_predicted": None
        if predicted is None
        else {str(j): n for j, n in predicted.items()},
        "epsilon": _frac(correlation.pairwise_epsilon(a, b)),
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        _write_atomic(args.out, text + "\n")
    return 0


def _load_scenario(path: str) -> channel.Scenario:
    try:
        with open(path) as fh:
            return channel.scenario_from_json(fh.read())
    except FileNotFoundError as exc:
        raise ValueError(f"scenario file not found: {path}") from exc


_CSV_BLOCK_SLOTS = 1 << 16


def _trace_csv_blocks(trace: channel.ChannelTrace) -> Iterator[str]:
    """trace.csv text in blocks of slots, built from plain lists.  A collision
    row takes its n_senders[t] senders, ascending, in turn from the block's
    slice of the sorted collision pairs."""
    yield "slot,outcome,sender\n"
    for lo in range(0, trace.duration, _CSV_BLOCK_SLOTS):
        block = slice(lo, lo + _CSV_BLOCK_SLOTS)
        first, last = np.searchsorted(trace.collision_slot, [lo, lo + _CSV_BLOCK_SLOTS])
        colliders = iter(trace.collision_sender[first:last].tolist())
        senders = zip(trace.n_senders[block].tolist(), trace.sole_sender[block].tolist())
        yield "".join(
            f"{t},idle,\n" if n == 0
            else f"{t},success,{sender}\n" if n == 1
            else f"{t},collision,{'+'.join(str(next(colliders)) for _ in range(n))}\n"
            for t, (n, sender) in enumerate(senders, start=lo)
        )


def _cmd_simulate(args) -> int:
    sc = _load_scenario(args.scenario)
    trace = channel.simulate(sc)
    _write_atomic(args.out, _trace_csv_blocks(trace))
    print(
        f"{trace.duration} slots: {trace.total_successes} successes, "
        f"{np.count_nonzero(trace.n_senders >= 2)} collision slots, "
        f"throughput {_frac(trace.system_throughput)}"
    )
    if args.activity:
        print(str(channel.channel_activity(trace)))
    return 0


def _cmd_sweep(args) -> int:
    rows = ["k,L,min,mean,max,bound"]
    for k in _parse_range(args.k_range):
        rep = channel.monte_carlo_throughput(args.p, k, args.m, args.trials, args.seed + k)
        L = channel.construction_params(args.p, k).L
        bound = float(channel.peak_throughput_bound(args.p, k))
        rows.append(f"{k},{L},{rep.minimum:.6f},{rep.mean:.6f},{rep.maximum:.6f},{bound:.6f}")
    _write_atomic(args.out, "\n".join(rows) + "\n")
    for line in rows:
        print(line)
    return 0


def _peak_active(sc: channel.Scenario) -> int:
    """Most users active at once: permanent users span the whole horizon,
    session users their [start, end) intervals clipped to it."""
    edges = []
    for u in sc.users:
        spans = [(0, sc.duration)] if u.sessions is None else u.sessions
        for a, b in spans:
            if a < sc.duration:
                edges += [(a, 1), (min(b, sc.duration), -1)]
    active = peak = 0
    for _, step in sorted(edges):  # at equal slots an end sorts before a start
        active += step
        peak = max(peak, active)
    return peak


def _expected_activations(sc: channel.Scenario) -> dict[int, set[int]]:
    """Per user: start slots at which a correct detector must activate it
    (only starts whose full window fits in the simulated horizon)."""
    offsets = sc.resolved_offsets()
    expected: dict[int, set[int]] = {}
    for u in sc.users:
        starts = [offsets[u.user_id]] if u.sessions is None else [a for a, _ in u.sessions]
        expected[u.user_id] = {s for s in starts if s + sc.params.L <= sc.duration}
    return expected


def _cmd_sync(args) -> int:
    sc = _load_scenario(args.scenario)
    if any(u.generator == 0 for u in sc.users):
        raise ValueError(
            "sync does not support generator 0: the detector identifies generators 1..p-1"
        )
    trace = channel.simulate(sc)
    signal = channel.channel_activity(trace)
    events = sync.run_detector(signal, sc.params)
    L = sc.params.L
    rows = ["slot,event,user,start"]
    for ev in events:
        if isinstance(ev, sync.Activated):
            rows.append(f"{ev.start + L},activated,{ev.user},{ev.start}")
        else:
            rows.append(f"{ev.at + L},deactivated,{ev.user},")
    _write_atomic(args.emit, "\n".join(rows) + "\n")

    expected = _expected_activations(sc)
    user_of = {u.generator: u.user_id for u in sc.users}  # events carry generators
    errors = []
    seen: dict[int, set[int]] = {u: set() for u in expected}
    for ev in events:
        if isinstance(ev, sync.Activated):
            user = user_of.get(ev.user)
            if user is None:
                errors.append(f"false alarm: generator {ev.user} activated at {ev.start}")
            elif ev.start not in expected[user]:
                errors.append(f"start error: user {user} activated at {ev.start}")
            else:
                seen[user].add(ev.start)
    for u, starts in expected.items():
        for s in starts - seen[u]:
            errors.append(f"missed detection: user {u} at start {s}")

    guarantee = sync.sync_guarantee(sc.params.p, sc.params.q, _peak_active(sc))
    print(f"{len(events)} events, guarantee: {guarantee.level.value}"
          + (f" ({guarantee.reason})" if guarantee.reason else ""))
    for err in errors:
        print(err)
    if errors and guarantee.guaranteed and args.assert_guarantee:
        print("guarantee violated", file=sys.stderr)
        return GUARANTEE_VIOLATION
    return 0


def _load_payloads(path: str) -> dict[int, np.ndarray]:
    """Generator -> information symbols from a JSON object
    {"<generator>": [symbol, ...], ...}; a malformed file raises ValueError."""
    with open(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"payload file must be a JSON object, got {raw!r:.60}")
    payloads = {}
    for key, symbols in raw.items():
        try:
            g = int(key)
        except ValueError:
            raise ValueError(f"payload key {key!r} is not a generator number") from None
        if not isinstance(symbols, list) or not all(
            type(x) is int and 0 <= x < 2**63 for x in symbols
        ):
            raise ValueError(
                f"payload for generator {key} must be an array of non-negative integers, "
                f"got {symbols!r:.60}"
            )
        payloads[g] = np.asarray(symbols, dtype=np.int64)
    return payloads


def _cmd_session(args) -> int:
    params = erasure.session_params(args.p, args.k)
    gens = tuple(int(x) for x in args.users.split(","))
    if args.offsets:
        offs = tuple(int(x) for x in args.offsets.split(","))
    else:
        rng = np.random.default_rng(args.seed)
        offs = tuple(int(x) for x in rng.integers(0, params.L, size=len(gens)))
    payloads = None
    if args.payload:
        payloads = _load_payloads(args.payload)
        missing = [g for g in gens if g not in payloads]
        if missing:
            raise ValueError(f"payload file lacks symbols for users {missing}")
    report = erasure.session_roundtrip(args.p, args.k, gens, offs, payloads, seed=args.seed)
    payload = {
        "p": args.p,
        "k": args.k,
        "n": report.spec.n,
        "dim": report.spec.dim,
        "field_order": report.spec.field_order,
        "offsets": list(offs),
        "users": {
            str(g): {
                "erasures": report.erasure_counts[g],
                "recovered": report.recovered_ok[g],
                "margin": report.margins[g],
            }
            for g in gens
        },
        "all_recovered": report.all_recovered,
        "info_throughput": _frac(report.info_throughput),
        "measured_throughput": _frac(report.measured_throughput),
    }
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        _write_atomic(args.out, text + "\n")
    return 0 if report.all_recovered else GUARANTEE_VIOLATION


def _cmd_compare(args) -> int:
    p, k = args.p, args.k
    rows = ["family,period,epsilon,note"]
    params = channel.construction_params(p, k)
    rows.append(f"crt,{params.L},{_frac(correlation.crt_epsilon(params))},computed")
    for build in (baselines.prime_sequences, baselines.extended_prime_sequences):
        family = build(p)
        eps = correlation.epsilon_uniformity(list(family.sequences))
        rows.append(f"{family.kind},{family.period},{_frac(eps)},computed")
    rows.append(f"wobbling,{p ** 4},{_frac(Fraction(1, p))},not computed")
    rows.append("shift-invariant,exponential(p),0/1,not computed")
    _write_atomic(args.out, "\n".join(rows) + "\n")
    for line in rows:
        print(line)
    return 0


def _parse_range(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":")
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(x) for x in text.split(",")]
    if not values:
        raise ValueError(f"empty range {text!r}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="crtseq", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit protocol sequences")
    g.add_argument("--p", type=int, required=True)
    g.add_argument("--q", type=int, required=True)
    g.add_argument("--variant", default="std", choices=["std", "mod"])
    g.add_argument("--g", type=int)
    g.add_argument("--all", action="store_true", help="all p generators")
    g.add_argument("--out")
    g.set_defaults(fn=_cmd_generate)

    c = sub.add_parser("correlate", help="brute-force vs predicted correlation")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--q", type=int, required=True)
    c.add_argument("--g", type=int, required=True)
    c.add_argument("--h", type=int, required=True)
    c.add_argument("--variant", default="std", choices=["std", "mod"])
    c.add_argument("--out")
    c.set_defaults(fn=_cmd_correlate)

    s = sub.add_parser("simulate", help="run a collision-channel scenario")
    s.add_argument("--scenario", required=True)
    s.add_argument("--out", required=True)
    s.add_argument("--activity", action="store_true", help="print the 0/1/* signal")
    s.set_defaults(fn=_cmd_simulate)

    w = sub.add_parser("sweep", help="throughput vs k for the q=kp-1 family")
    w.add_argument("--p", type=int, required=True)
    w.add_argument("--k-range", dest="k_range", required=True, help="lo:hi or comma list")
    w.add_argument("--m", type=int, required=True, help="number of users")
    w.add_argument("--trials", type=int, default=10000)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--out", required=True)
    w.set_defaults(fn=_cmd_sweep)

    y = sub.add_parser("sync", help="blind user identification over a scenario")
    y.add_argument("--scenario", required=True)
    y.add_argument("--emit", required=True)
    y.add_argument("--assert-guarantee", dest="assert_guarantee", action="store_true")
    y.set_defaults(fn=_cmd_sync)

    e = sub.add_parser("session", help="erasure-coded round trip, q=kp+1")
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--users", required=True, help="comma-separated generators")
    e.add_argument("--offsets", help="comma-separated delays (default: sampled)")
    e.add_argument("--payload", help="JSON file: generator -> symbol list")
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--out")
    e.set_defaults(fn=_cmd_session)

    t = sub.add_parser("compare", help="uniformity table across families")
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--k", type=int, required=True)
    t.add_argument("--out", required=True)
    t.set_defaults(fn=_cmd_compare)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
