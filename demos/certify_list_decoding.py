"""Certify the average-radius generalized Singleton bound with erasures
on an amplified code, then decode from fractional inner-codeword weights.

With a complete bipartite routing graph (lambda = 0 up to the conservative
spectral bound) the theorem hypothesis holds, so the exhaustive subset sweep
doubles as an end-to-end check of the statement itself.
"""

from fractions import Fraction

import numpy as np

from aelcert import (
    AELCode,
    InnerDistributionEnsemble,
    brute_force_list,
    complete_bipartite,
    decode_from_distributions,
    plurality_center,
    sample_random_linear_code,
    verify_generalized_singleton,
)
from aelcert.gf import make_field
from aelcert.outer import RSOuterCode

gf4 = make_field(2, 2)
graph = complete_bipartite(12)
inner = sample_random_linear_code(gf4, 12, 2, np.random.default_rng(3))
outer = RSOuterCode(make_field(2, 4), 12, 2)
code = AELCode(graph, inner, outer)

k, delta0 = 3, Fraction(1, 2)
report = verify_generalized_singleton(code, k, delta0, Fraction(1, 4))
print(f"subsets examined: {report['subsets_examined']}")
print(f"violations: {len(report['violations'])}")
print(f"empirical eps_min: {report['empirical_eps_min']}")
print(f"theorem hypothesis satisfied: {report['hypothesis_satisfied']}")
print(f"assertion: {report['theorem_assertion']}")

# list-size corollary: balls of radius ((k-1)/k) * delta0 hold < k codewords
if report["empirical_pass"]:
    radius = Fraction(k - 1, k) * delta0
    words = code.enumerate_codewords()
    rng = np.random.default_rng(4)
    worst = 0
    for _ in range(20):
        idx = [int(i) for i in rng.choice(len(words), k, replace=False)]
        center, _ = plurality_center([words[i] for i in idx])
        worst = max(worst, len(brute_force_list(code, center, radius)))
    print(f"largest list at radius {radius}: {worst} (bound is {k - 1})")

# threshold rounding: recover a codeword from soft per-vertex weights
target = code.encode_message([2, 6])
picks = list(code.decode_to_outer(target))
m = code.inner.size
weights = []
for idx in picks:
    row = [Fraction(0)] * m
    row[idx] = Fraction(4, 5)
    row[(idx + 1) % m] = Fraction(1, 5)
    weights.append(row)
ens = InnerDistributionEnsemble(weights)
assert decode_from_distributions(code, ens) == target
print("threshold rounding recovered the planted codeword from 80/20 weights")
