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
import itertools
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
    if (args.g is None) != args.all:
        raise ValueError("provide exactly one of --g and --all")
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
    # the range runs first, as it is the one that rejects g == h
    window = list(correlation.predicted_cross_range(args.g, args.h, params))
    predicted = correlation.predicted_distribution(
        correlation.reduced_generator(args.g, args.h, params.p), params
    )
    payload = {
        "range_predicted": window,
        "histogram_bruteforce": {str(j): n for j, n in spec.histogram.items()},
        "histogram_predicted": {str(j): n for j, n in predicted.items()},
        "epsilon": _frac(spec.epsilon),
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        _write_atomic(args.out, text + "\n")
    print(text)
    return 0


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``object_pairs_hook`` of ``_read_json``: the decoded object, or
    ValueError naming a key that it repeats, where ``json`` keeps the last."""
    obj: dict = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"repeated JSON key {key!r}")
        obj[key] = value
    return obj


def _read_json(path: str, what: str) -> dict:
    """The JSON object in the UTF-8 file at path, the ``what`` file (scenario
    or payload).  Any defect of the file raises ValueError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
    except FileNotFoundError:
        raise ValueError(f"{what} file not found: {path}") from None
    except OSError as exc:
        raise ValueError(f"{what} file {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # not UTF-8 JSON, or a repeated key
        raise ValueError(f"{what} file {path}: {exc}") from None
    if not isinstance(obj, dict):
        raise ValueError(f"{what} file {path} must be a JSON object, got {obj!r:.60}")
    return obj


# slots per CSV block, several to a run block of channel.BLOCK_SLOTS: the
# arrays of a CSV block stay in cache and in freed heap memory.  A CSV
# block also ends at each multiple of _LOW, so its slots share their
# digits above the last four
_LOW = 10**4
_CSV_BLOCK_SLOTS = _LOW
# what follows a row's slot, by min(sender count, 2)
_OUTCOME_WORDS = (b",idle,\n", b",success,", b",collision,")


@functools.cache
def _low_digits() -> np.ndarray:
    """The last four digits of slots 0.._LOW-1 as (2, _LOW) read-only
    4-byte records: [0] zero-padded, for slots of more digits, and [1]
    NUL-padded, the whole slot's digits, for slots below _LOW."""
    slot = np.arange(_LOW)[:, None]
    digits = (slot // [1000, 100, 10, 1] % 10 + ord("0")).astype(np.uint8)
    table = np.stack([digits, np.where(slot < [1000, 100, 10, 0], 0, digits)]).view("V4")[..., 0]
    table.flags.writeable = False
    return table


def _trace_csv_blocks(blocks: Iterable[channel.TraceBlock], duration: int) -> Iterator[bytes]:
    """trace.csv bytes of a run of ``duration`` slots, given as its blocks
    in order, in pieces of at most ``_CSV_BLOCK_SLOTS`` slots."""
    yield b"slot,outcome,sender\n"
    high_digits = len(str((duration - 1) // _LOW)) if duration > _LOW else 0
    for block in blocks:
        # row 2i: the decimal name of the sender of rank i and '+', row
        # 2i + 1: its name and a newline; one NUL-padded record width for
        # the file holds these and every row head
        names = [b"%d%c" % (u, end) for u in block.ids.tolist() for end in b"+\n"]
        width = max([high_digits + 4 + max(map(len, _OUTCOME_WORDS)), *map(len, names)])
        names = np.array(names, dtype=f"S{width}").view(f"V{width}")
        lo, end = block.lo, block.lo + block.n_senders.size
        while lo < end:
            hi = min(lo + _CSV_BLOCK_SLOTS, (lo // _LOW + 1) * _LOW, end)
            yield _trace_csv_block(block, names, lo, hi)
            lo = hi


def _trace_csv_block(block: channel.TraceBlock, names: np.ndarray, lo: int, hi: int) -> bytes:
    """Rows lo..hi-1 of trace.csv, slots of the block that share their
    digits above the last four.  Each row head (slot digits and outcome
    word) and each transmission (sender name, then '+' or a newline) is one
    NUL-padded record of names' dtype.  The head of a row of n senders is
    repeated n + 1 times, the row's transmissions overwrite the last n
    copies, and the NULs are dropped."""
    n = block.n_senders[lo - block.lo : hi - block.lo]
    first, last = np.searchsorted(block.transmission_slot, [lo, hi])
    row = block.transmission_slot[first:last] - lo
    rank = block.transmission_rank[first:last]

    # the three heads, by min(n, 2): the digits above the last four, room
    # for those four, the outcome word
    high = b"%d" % (lo // _LOW) if lo >= _LOW else b""
    heads = np.array([high + bytes(4) + word for word in _OUTCOME_WORDS],
                     dtype=f"S{names.itemsize}").view(names.dtype)
    head = heads.take(np.minimum(n, 2))
    low = np.dtype({"names": ["low"], "formats": ["V4"], "offsets": [len(high)],
                    "itemsize": names.itemsize})
    head.view(low)["low"] = _low_digits()[0 if high else 1, lo % _LOW : lo % _LOW + n.size]

    records = np.repeat(head, n + 1)
    # transmission j of row r follows r + 1 heads and j earlier
    # transmissions; a row's last sender ends it with a newline
    last_of_row = np.diff(row, append=n.size) != 0
    records[row + np.arange(rank.size) + 1] = names.take(2 * rank + last_of_row)
    return records.tobytes().translate(None, b"\0")


def _cmd_simulate(args) -> int:
    sc = channel.scenario_from_json(_read_json(args.scenario, "scenario"))
    successes = collisions = 0

    def counted(blocks: Iterable[channel.TraceBlock]) -> Iterator[channel.TraceBlock]:
        nonlocal successes, collisions
        for block in blocks:
            successes += int(np.count_nonzero(block.n_senders == 1))
            collisions += int(np.count_nonzero(block.n_senders >= 2))
            yield block

    blocks = channel.simulate_blocks(sc, channel.BLOCK_SLOTS)
    _write_atomic(args.out, _trace_csv_blocks(counted(blocks), sc.duration))
    print(
        f"{sc.duration} slots: {successes} successes, {collisions} collision slots, "
        f"throughput {_frac(Fraction(successes, sc.duration))}"
    )
    if args.activity:  # a second pass, as the signal follows the summary line
        for block in channel.simulate_blocks(sc, channel.BLOCK_SLOTS):
            sys.stdout.write(channel.activity_text(channel.channel_activity(block)))
        print()
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


def _cmd_sync(args) -> int:
    sc = channel.scenario_from_json(_read_json(args.scenario, "scenario"))
    if any(u.generator == 0 for u in sc.users):
        raise ValueError(
            "sync does not support generator 0: the detector identifies generators 1..p-1"
        )
    detector = sync.ActivityDetector(sc.params)
    events = [ev for block in channel.simulate_blocks(sc, channel.BLOCK_SLOTS)
              for ev in detector.push(channel.channel_activity(block))]
    L = sc.params.L
    rows = (b"%d,activated,%d,%d\n" % (ev.start + L, ev.user, ev.start)
            if isinstance(ev, sync.Activated) else b"%d,deactivated,%d,\n" % (ev.at + L, ev.user)
            for ev in events)
    _write_atomic(args.emit, itertools.chain([b"slot,event,user,start\n"], rows))

    verdict = sync.judge(sc, events)
    print(f"{len(events)} events, {verdict}")
    if verdict.violated and args.assert_guarantee:
        print("guarantee violated", file=sys.stderr)
        return GUARANTEE_VIOLATION
    return 0


def _load_payloads(path: str) -> dict[int, np.ndarray]:
    """Generator -> information symbols from a JSON object
    {"<generator>": [symbol, ...], ...}; a malformed file raises ValueError.
    The symbols' values are ``ErasureCode.encode``'s to check."""
    payloads = {}
    for key, symbols in _read_json(path, "payload").items():
        try:
            g = int(key)
        except ValueError:
            raise ValueError(
                f"payload file {path}: key {key!r} is not a generator number"
            ) from None
        if g in payloads:
            raise ValueError(f"payload file {path}: key {key!r} names generator {g} again")
        if not isinstance(symbols, list) or not all(
            type(x) is int and -(2**63) <= x < 2**63 for x in symbols
        ):
            raise ValueError(
                f"payload file {path}: generator {key} must be an array of 64-bit "
                f"integers, got {symbols!r:.60}"
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
    payloads = _load_payloads(args.payload) if args.payload else None
    try:
        report = erasure.session_roundtrip(args.p, args.k, gens, offs, payloads, seed=args.seed)
    except erasure.PayloadError as exc:
        raise ValueError(f"payload file {args.payload}: {exc}") from None
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
        family = build(p)  # epsilon counted on the one witness pair
        rows.append(f"{family.kind},{family.period},{_frac(family.epsilon)},computed")
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
