"""Per-layer spans and counters, recorded from outside the crtseq package.

``Tracer.install`` replaces public functions and methods of the package's
modules with wrappers that record a span (name, start, end, parent span,
job id) per call; names that other modules imported by value are replaced
too.  Scalar field multiplication is only counted: a span per call would
cost more than the call.  Spans stay in memory; the runner writes them out
when the run ends.  A name the package no longer has is skipped and its
metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("core", "correlation", "channel", "sync", "erasure", "baselines", "cli")

# (module, function or Class.method, span name)
SPANNED = (
    ("core", "generate_sequence", "core.generate"),
    ("correlation", "correlation_spectrum", "correlation.spectrum"),
    ("correlation", "pairwise_epsilon", "correlation.epsilon"),
    ("correlation", "epsilon_uniformity", "correlation.epsilon"),
    ("baselines", "prime_sequences", "baselines.build"),
    ("baselines", "extended_prime_sequences", "baselines.build"),
    ("channel", "scenario_from_json", "channel.scenario_load"),
    ("channel", "simulate", "channel.simulate"),
    ("channel", "channel_activity", "channel.activity"),
    ("channel", "monte_carlo_throughput", "channel.mc"),
    ("channel", "exhaustive_pair_throughput", "channel.exhaustive"),
    ("sync", "run_detector", "sync.batch"),
    ("sync", "ActivityDetector.push", "sync.push"),
    ("erasure", "session_roundtrip", "erasure.session"),
    ("erasure", "ErasureCode.__init__", "erasure.code_build"),
    ("erasure", "ErasureCode.encode", "erasure.encode"),
    ("erasure", "ErasureCode.decode", "erasure.decode"),
    ("cli", "main", "cli.main"),
)

# (module, Class.method, counter name)
COUNTED = (("erasure", "GF.mul", "erasure.gf_mul_calls"),)


def _count_events(counts: Counter, events) -> None:
    counts["sync.events"] += len(events)


def _count_recovered(counts: Counter, report) -> None:
    counts["erasure.users_attempted"] += len(report.recovered_ok)
    counts["erasure.users_recovered"] += sum(map(bool, report.recovered_ok.values()))


OBSERVERS = {"sync.batch": _count_events, "erasure.session": _count_recovered}


def _resolve(module, path: str):
    """(owner, attribute) for "func" or "Class.method", or None if absent."""
    owner = module
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or name not in vars(owner):
        return None
    return owner, name


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index or -1, job]
        self.job: str | None = None
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._tallies: dict[str, list[int]] = {}
        self._patches: list[tuple[object, str, object]] = []

    # --- wrappers ---

    def _spanned(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.job]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.{type(exc).__name__}"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self.counts, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        tally = self._tallies.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tally[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "crtseq"]
        for kind, targets in ((self._spanned, SPANNED), (self._counted, COUNTED)):
            for mod_name, path, name in targets:
                found = _resolve(importlib.import_module(f"crtseq.{mod_name}"), path)
                if found is None:
                    continue
                owner, attr = found
                original = vars(owner)[attr]
                wrapper = kind(name, original)
                if "." in path:
                    self._patch(owner, attr, wrapper)
                    continue
                for module in modules:  # every alias, e.g. channel.generate_sequence
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        for tally in self._tallies.values():
            tally[0] = 0

    # --- summary ---

    def metrics(self) -> dict[str, float]:
        """Self time and call count per span name, self time per layer,
        and the counters.  Self time is a span's duration minus that of
        its direct children (calls are nested, so children never overlap)."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for i, (name, start, end, _, _) in enumerate(self.spans):
            own = end - start - child[i]
            out[f"{name}_s"] += own
            out[f"{name}_calls"] += 1
            out[f"{name.split('.')[0]}.self_s"] += own
        for name, tally in self._tallies.items():
            out[name] = tally[0]
        out["sync.events"] = self.counts["sync.events"]
        attempted = self.counts["erasure.users_attempted"]
        out["erasure.recovered_ratio"] = (
            self.counts["erasure.users_recovered"] / attempted if attempted else 0.0
        )
        out["erasure.decode_failures"] = self.counts["erasure.decode.DecodeFailure"]
        return dict(out)
