#!/usr/bin/env python3
"""Random search for large criterion values, and the complementarity trade-off.

Runs ``naqc search`` over seeded random two-qubit states (alternating Haar
pure and full-rank mixed) for the largest double12 value, and the
``bipartite-complementarity`` check on the same samples: the total of the
three shift values never exceeds 3 eps, so whenever a double criterion is
violated the complementary single is satisfied.
"""

import numpy as np

from naqc import Measure, random_mixed, random_pure, steering_report
from naqc.cli import main

RUN = ["--samples", "4000", "--seed", "2718"]

print("largest double12 value over the samples (even indices Haar pure, odd full-rank mixed):")
assert main(["search", "--nqubits", "2", "--criterion", "double12", *RUN]) == 0
print("algebraic maximum for this family of criteria: 6 (Bell state)")

print("\nworst margin 3 eps - (s0 + s1 + s2) over the same samples:")
assert main(["check", "--suite", "bipartite-complementarity", *RUN]) == 0
print("\nNo margin is below -1e-9 (skew's total reaches 3 eps on pure states),")
print("so a double above 2 eps forces the remaining single below eps.")

print("\nHow often does a random state show any violation at all?")
rng = np.random.default_rng(2719)
states = [random_pure(2, rng) if k % 2 == 0 else random_mixed(2, 4, rng) for k in range(1000)]
for measure in Measure:
    count = 0
    for rho in states:
        report = steering_report(rho, measure)
        if any(res.violated for res in report.singles) or any(
            res.violated for _, res in report.doubles
        ):
            count += 1
    print(f"  {measure.value:>6}: {count / 10:.1f}% of 1000 sampled states")
