#!/usr/bin/env python3
"""Tour of the three single-qubit coherence measures and their shared bound.

Each measure assigns a coherence value to a qubit state with respect to
each of the three Pauli eigenbases. Summed over the three mutually
unbiased bases, the values can never exceed a measure-specific bound:
sqrt(6) for the l1 norm, about 2.2320 for the relative entropy, and 2 for
the skew information.
"""

import sys

import numpy as np

from naqc import (
    BlochQubit,
    Measure,
    coherence_triple,
)
from naqc.cli import main


def separator(title):
    print(f"\n{'=' * 64}\n  {title}\n{'=' * 64}")


separator("SAMPLE STATES, ALL MEASURES")

samples = {
    "maximally mixed  r=(0,0,0)": BlochQubit(np.zeros(3)),
    "z eigenstate     r=(0,0,1)": BlochQubit(np.array([0.0, 0.0, 1.0])),
    "x eigenstate     r=(1,0,0)": BlochQubit(np.array([1.0, 0.0, 0.0])),
    "symmetric pure   r=(1,1,1)/sqrt(3)": BlochQubit(np.ones(3) / np.sqrt(3)),
    "partly mixed     r=(0.3,0.4,0.2)": BlochQubit(np.array([0.3, 0.4, 0.2])),
}

for label, state in samples.items():
    print(f"\n{label}")
    for measure in Measure:
        triple = coherence_triple(state, measure)
        values = ", ".join(f"{v:.6f}" for v in triple.values)
        print(
            f"  {measure.value:>6}: ({values})  sum = {triple.total:.6f}"
            f"  bound = {measure.epsilon:.6f}"
        )

separator("THE SYMMETRIC PURE STATE SATURATES EVERY BOUND")

symmetric = BlochQubit(np.ones(3) / np.sqrt(3))
for measure in Measure:
    total = coherence_triple(symmetric, measure).total
    print(
        f"  {measure.value:>6}: sum = {total:.15f}  bound = {measure.epsilon:.15f}"
        f"  gap = {measure.epsilon - total:.2e}"
    )

separator("RANDOM SCAN: NO STATE EXCEEDS ITS BOUND")

# the coherence-complementarity suite draws 20000 Bloch vectors uniformly
# from the ball with numpy's default_rng(1) and prints, per measure, the
# smallest margin epsilon - sum; it fails, and exits 5, if one falls below -1e-9
sys.exit(
    main(["check", "--suite", "coherence-complementarity", "--samples", "20000", "--seed", "1"])
)
