"""Erasure-coded sessions: guaranteed payload delivery per period.

With q = k*p + 1 and at most (p+1)/2 active users, each user loses at most
((p+1)/2 - 1)(k+1) packets per period to collisions.  Spending exactly that
many symbols on redundancy makes every payload decodable at any offsets,
for a guaranteed information throughput above 0.25 when k = p.
"""

import numpy as np

from crtseq.erasure import CodeSpec, session_roundtrip

p = k = 5
spec = CodeSpec.for_protocol(p, k)
print(f"p={p} k={k}: {spec.n} packets per period, {spec.dim} information, "
      f"field order {spec.field_order}, erasure budget {spec.max_erasures}\n")

rng = np.random.default_rng(0)
worst = 0
for trial in range(200):
    offsets = tuple(int(x) for x in rng.integers(0, p * spec.n, size=3))
    report = session_roundtrip(p, k, (1, 2, 3), offsets, seed=trial)
    assert report.all_recovered
    worst = max(worst, max(report.erasure_counts.values()))
print(f"200 random offset tuples, 3 active users: all payloads recovered")
print(f"worst per-user erasure count: {worst} (budget {spec.max_erasures})")
print(f"information throughput: {report.info_throughput} "
      f"= {float(report.info_throughput):.3f} >= 0.25")

big = CodeSpec.for_protocol(19, 19)
offsets = tuple(int(x) for x in rng.integers(0, 19 * big.n, size=10))
report = session_roundtrip(19, 19, tuple(range(1, 11)), offsets)
print(f"\nlarger instance p=k=19: dimension {big.dim}, field order {big.field_order}, "
      f"10 users, all recovered: {report.all_recovered}, "
      f"smallest erasure margin {min(report.margins.values())}")
print(f"measured throughput {report.measured_throughput} "
      f"= {float(report.measured_throughput):.3f}")
