"""Trade-off between period length and correlation uniformity.

Epsilon-uniformity is the largest relative deviation of any pair's
cross-correlation from its shift-averaged mean (exact rational).  Small
epsilon means throughput barely depends on delay offsets, but driving
epsilon down costs period length: the families below span that trade-off.
"""

from fractions import Fraction

from crtseq import CrtParams
from crtseq.baselines import extended_prime_sequences, prime_sequences
from crtseq.correlation import crt_epsilon, epsilon_uniformity

p = 5
rows = []
prime = prime_sequences(p)
rows.append(("prime", prime.period, epsilon_uniformity(list(prime.sequences))))
ext = extended_prime_sequences(p)
rows.append(("extended prime", ext.period, epsilon_uniformity(list(ext.sequences))))
for k in (2, 4, 8):
    params = CrtParams(p, k * p - 1)
    eps = crt_epsilon(params)  # one pair per class g*h^-1
    assert eps <= Fraction(p + 1, k * p - 1)
    rows.append((f"residue grid, k={k}", params.L, eps))
rows.append(("wobbling (reference value)", p**4, Fraction(1, p)))
rows.append(("shift-invariant (reference)", None, Fraction(0)))

print(f"{p} users\n")
print(f"{'family':<28} {'period':>8} {'epsilon':>9} {'float':>7}")
for name, period, eps in rows:
    period_s = "exp(p)" if period is None else str(period)
    print(f"{name:<28} {period_s:>8} {str(eps):>9} {float(eps):>7.3f}")
print("\nlonger periods buy flatter correlation; the residue-grid family")
print("reaches epsilon ~ 1/k with period only k*p^2 - p")
