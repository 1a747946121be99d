"""Command-line front end.

Subcommands: generate, correlate, simulate, sweep, sync, session, compare.
Numeric artifacts go to files (CSV/JSON, written atomically); stdout gets a
short human summary.  Exit codes: 0 success, 1 a guarantee that should hold
was violated, 2 usage error.  JSON encodes exact rationals as "num/den"
strings.
"""

from __future__ import annotations

import argparse
import functools
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


def _write_atomic(path: str | Path, data: str | Iterable[bytes]) -> None:
    """Write ASCII text, or an iterable of byte chunks, to path via a temp
    file; an OSError names path, not the temp file."""
    path = Path(path)
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.writelines([data.encode()] if isinstance(data, str) else data)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _params(args) -> CrtParams:
    return CrtParams(args.p, args.q, Variant.parse(args.variant))


def _cmd_generate(args) -> int:
    if args.g is None and not args.all:
        raise ValueError("provide --g or --all")
    params = _params(args)
    gens = list(range(params.p)) if args.all else [args.g]
    seqs = [generate_sequence(g, params) for g in gens]
    if args.out:
        _write_atomic(
            args.out, "".join(format_sequence_entry(params, g, s) for g, s in zip(gens, seqs))
        )
    print("\n".join(map(str, seqs)))
    return 0


def _cmd_correlate(args) -> int:
    params = _params(args)
    a = generate_sequence(args.g, params)
    b = generate_sequence(args.h, params)
    spec = correlation.correlation_spectrum(a, b)
    # a predictor outside its hypotheses (q < p) gives a null prediction; the
    # range runs first, as it is the one that rejects g == h
    try:
        window = list(correlation.predicted_cross_range(args.g, args.h, params))
    except correlation.UnsupportedParameters:
        window = None
    try:
        predicted = correlation.predicted_distribution(
            correlation.reduced_generator(args.g, args.h, params.p), params
        )
    except correlation.UnsupportedParameters:
        predicted = None
    payload = {
        "range_predicted": window,
        "histogram_bruteforce": {str(j): n for j, n in spec.histogram.items()},
        "histogram_predicted": None
        if predicted is None
        else {str(j): n for j, n in predicted.items()},
        "epsilon": _frac(correlation.pairwise_epsilon(a, b)),
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        _write_atomic(args.out, text + "\n")
    print(text)
    return 0


# what reading a file that is not UTF-8 JSON raises
_DECODE_ERRORS = (json.JSONDecodeError, UnicodeDecodeError)


def _load_scenario(path: str) -> channel.Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            return channel.scenario_from_json(fh.read())
    except FileNotFoundError as exc:
        raise ValueError(f"scenario file not found: {path}") from exc
    except _DECODE_ERRORS as exc:
        raise ValueError(f"scenario file {path}: {exc}") from None


# rows per block: the arrays of a block stay in cache and in freed heap memory
_CSV_BLOCK_SLOTS = 1 << 14
# what follows a row's slot, by min(sender count, 2), NUL-padded to one width
_OUTCOME_WORDS = np.array([b",idle,\n", b",success,", b",collision,"], dtype="S11").view("V11")
_DIGITS = np.frombuffer(b"0123456789", dtype=np.uint8)
_PLUS, _NEWLINE = b"+\n"


def _trace_csv_blocks(trace: channel.ChannelTrace) -> Iterator[bytes]:
    """trace.csv bytes in blocks of ``_CSV_BLOCK_SLOTS`` slots."""
    yield b"slot,outcome,sender\n"
    # every sender's decimal name, NUL-padded, at the rank of its id
    ids = np.array(sorted(trace.sent), dtype=np.int64)
    names = np.array([b"%d" % u for u in ids.tolist()], dtype=bytes)
    for lo in range(0, trace.duration, _CSV_BLOCK_SLOTS):
        yield _trace_csv_block(trace, ids, names, lo, min(lo + _CSV_BLOCK_SLOTS, trace.duration))


def _trace_csv_block(trace: channel.ChannelTrace, ids: np.ndarray, names: np.ndarray,
                     lo: int, hi: int) -> bytes:
    """Rows lo..hi-1 of trace.csv.  Each row head (slot digits and outcome
    word) and each transmission (sender name, then '+' or a newline) is
    one fixed-width NUL-padded byte record; the records are interleaved in
    file order and the NULs dropped."""
    n = trace.n_senders[lo:hi]
    first, last = np.searchsorted(trace.transmission_slot, [lo, hi])
    row = trace.transmission_slot[first:last] - lo
    sender = trace.transmission_sender[first:last]
    slot_digits = len(str(hi - 1))
    width = names.itemsize
    record = np.dtype(f"V{max(slot_digits + 11, width + 1)}")

    head = np.zeros(n.size, dtype=record)
    words = np.dtype({"names": ["w"], "formats": ["V11"], "offsets": [slot_digits],
                      "itemsize": record.itemsize})
    head.view(words)["w"] = _OUTCOME_WORDS[np.minimum(n, 2)]
    head_bytes = head.view(np.uint8).reshape(n.size, record.itemsize)
    for i in range(slot_digits):  # the slots are consecutive: digit i runs in blocks of 10**i
        power = 10**i
        v0, v1 = lo // power, (hi - 1) // power
        digit = np.resize(_DIGITS, v1 - v0 + 11)[v0 % 10 : v1 - v0 + 1 + v0 % 10]
        if i and v0 == 0:
            digit[0] = 0  # a leading zero
        if power > 1:
            runs = np.full(digit.size, power)
            runs[0] -= lo - v0 * power
            runs[-1] -= (v1 + 1) * power - hi
            digit = np.repeat(digit, runs)
        head_bytes[:, slot_digits - 1 - i] = digit

    tx = np.zeros((sender.size, record.itemsize), dtype=np.uint8)
    tx[:, :width] = names[np.searchsorted(ids, sender)].view(np.uint8).reshape(-1, width)
    tx[:, width] = _PLUS
    tx[np.diff(row, append=n.size) != 0, width] = _NEWLINE  # a row's last sender

    # row r's head follows the heads and transmissions of rows 0..r-1, and
    # transmission j of row r follows r + 1 heads and j earlier transmissions
    records = np.empty(n.size + sender.size, dtype=record)
    records[np.arange(n.size) + np.cumsum(n) - n] = head
    records[row + np.arange(sender.size) + 1] = tx.view(record).ravel()
    flat = records.view(np.uint8)
    return flat[flat != 0].tobytes()


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


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be a non-negative integer, got {seed}")


def _cmd_sweep(args) -> int:
    _check_seed(args.seed)  # checked as given, although k's draw is seeded with seed + k
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
    """Most users active at once over the users' phase spans, clipped to
    the simulated horizon."""
    edges = []
    for spans in sc.spans().values():
        for a, b in spans:
            if a < sc.duration:
                edges += [(a, 1), (min(b, sc.duration), -1)]
    active = peak = 0
    for _, step in sorted(edges):  # at equal slots an end sorts before a start
        active += step
        peak = max(peak, active)
    return peak


def _expected_activations(sc: channel.Scenario) -> dict[int, set[int]]:
    """Per judged user: start slots at which a correct detector must
    activate it, each span's first period boundary at or after slot 0
    (only starts whose full window fits in the simulated horizon).

    A user with a span that starts before slot 0 off a period boundary (a
    permanent user with offset tau > 0) is not judged and left out: its
    previous period fills [0, tau), so the receiver sees a cyclic shift of
    its sequence, which the identification guarantee does not cover."""
    L = sc.params.L
    return {
        uid: {max(a, 0) for a, _ in spans if max(a, 0) + L <= sc.duration}
        for uid, spans in sc.spans().items()
        if all(a >= 0 or a % L == 0 for a, _ in spans)
    }


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
            elif user not in expected:
                continue
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
    for u in sc.users:
        if u.user_id not in expected:
            print(f"not judged: user {u.user_id} (started before slot 0)")
    for err in errors:
        print(err)
    if errors and guarantee.guaranteed and args.assert_guarantee:
        print("guarantee violated", file=sys.stderr)
        return GUARANTEE_VIOLATION
    return 0


def _load_payloads(path: str) -> dict[int, np.ndarray]:
    """Generator -> information symbols from a JSON object
    {"<generator>": [symbol, ...], ...}; a malformed file raises ValueError."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=channel._unique_keys)
    except ValueError as exc:  # not UTF-8 JSON, or a repeated key
        raise ValueError(f"payload file {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"payload file must be a JSON object, got {raw!r:.60}")
    payloads = {}
    for key, symbols in raw.items():
        try:
            g = int(key)
        except ValueError:
            raise ValueError(f"payload key {key!r} is not a generator number") from None
        if g in payloads:
            raise ValueError(f"payload file {path}: key {key!r} names generator {g} again")
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
    _check_seed(args.seed)
    params = erasure.session_params(args.p, args.k)
    gens = _int_list("--users", args.users)
    if args.offsets is not None:
        offs = _int_list("--offsets", args.offsets)
    else:
        rng = np.random.default_rng(args.seed)
        offs = tuple(int(x) for x in rng.integers(0, params.L, size=len(gens)))
    payloads = None
    if args.payload:
        payloads = _load_payloads(args.payload)
        missing = [g for g in gens if g not in payloads]
        if missing:
            raise ValueError(f"payload file lacks symbols for users {missing}")
        spec = erasure.CodeSpec.for_protocol(args.p, args.k)
        for g in gens:
            symbols = payloads[g]
            if symbols.size != spec.dim:
                raise ValueError(f"payload file {args.payload}: generator {g} has "
                                 f"{symbols.size} symbols, expected {spec.dim}")
            bad = symbols[symbols >= spec.field_order]
            if bad.size:
                raise ValueError(f"payload file {args.payload}: generator {g}: symbol "
                                 f"{bad[0]} outside GF({spec.field_order})")
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
    if args.out:
        _write_atomic(args.out, text + "\n")
    print(text)
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


def _int_list(option: str, text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"{option} must be a comma-separated list of integers, "
                         f"got {text!r}") from None


def _parse_range(text: str) -> list[int]:
    try:
        if ":" in text:
            lo, hi = text.split(":")
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(x) for x in text.split(",")]
    except ValueError:
        raise ValueError(f"--k-range must be lo:hi or a list of integers, got {text!r}") from None
    if not values:
        raise ValueError(f"--k-range {text!r} is an empty range")
    return values


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: argparse keeps no state between
    ``parse_args`` calls, and each call returns a fresh Namespace."""
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
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
