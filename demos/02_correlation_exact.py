"""Exact correlation theory versus brute force.

The pairwise Hamming cross-correlation of two schedules concentrates on
three consecutive values, and the whole distribution over shifts is known
in closed form, at q > p and at q < p alike (the last two rows, where the
values are 0, 1 and, for some generators, 2).  Here the closed forms are
printed next to brute-force counts; they agree exactly, not approximately.
"""

from crtseq import CrtParams, generate_sequence
from crtseq.correlation import (
    correlation_spectrum,
    predicted_cross_range,
    predicted_distribution,
    window_residue,
)

for p, q in ((3, 5), (5, 7), (7, 11), (11, 23), (5, 3), (7, 5)):
    params = CrtParams(p, q)
    ref = generate_sequence(1, params)
    print(f"\np={p} q={q}  (quotient {q // p}, remainder {q % p})")
    for g in range(p):
        if g == 1:
            continue
        brute = correlation_spectrum(generate_sequence(g, params), ref).histogram
        predicted = predicted_distribution(g, params)
        lo, hi = predicted_cross_range(g, 1, params)
        tag = "exact match" if brute == predicted else "MISMATCH"
        print(
            f"  g={g}: window residue {window_residue(g, params)}, range [{lo},{hi}], "
            f"distribution {predicted}  <- {tag}"
        )
