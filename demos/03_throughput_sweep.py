"""Worst-case versus typical throughput on the collision channel.

With q = k*p - 1 the pairwise cross-correlation is at most k + 1, which
yields a guaranteed system throughput for any delay offsets.  Sampling
random offsets shows the typical throughput sits well above the guarantee
and near M/p * (1 - 1/p)^(M-1).
"""

from crtseq.channel import (
    construction_params,
    monte_carlo_throughput,
    optimal_user_count,
    peak_throughput_bound,
    throughput_lower_bound,
)

p, M, trials = 37, 19, 2000
predicted_mean = M / p * (1 - 1 / p) ** (M - 1)
print(f"p={p}, {M} permanently active users, {trials} sampled offset tuples")
print(f"independent-slot mean prediction: {predicted_mean:.4f}\n")
print(f"{'k':>3} {'L':>6} {'min':>7} {'mean':>7} {'max':>7} {'bound@M':>8} {'peak bound':>10}")
for k in (2, 3, 4, 5, 6):
    rep = monte_carlo_throughput(p, k, M, trials=trials, seed=k)
    at_m = float(throughput_lower_bound(p, k, M))
    peak = float(peak_throughput_bound(p, k))
    L = construction_params(p, k).L
    print(
        f"{k:>3} {L:>6} {rep.minimum:>7.4f} {rep.mean:>7.4f} {rep.maximum:>7.4f} "
        f"{at_m:>8.4f} {peak:>10.4f}"
    )

exact, best = optimal_user_count(p, 6)
print(f"\nbest user count at k=6: {exact} (use {best}); "
      f"the peak bound approaches 0.25*(p+1)^2/p^2 - 1/p^2 as k grows")
