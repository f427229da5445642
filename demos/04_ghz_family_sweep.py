#!/usr/bin/env python3
"""Tripartite criteria on the GHZ family a|000> + sqrt(1-a^2)|111>.

Charlie measures each Pauli basis on the third qubit; the shift functional
matched to his axis (x -> s1, y -> s2, z -> s0) is evaluated on the
conditional two-qubit state and weighted by the outcome probability. The
resulting t1 is bounded by 3 eps under a local-hidden-state model for
Charlie, t2 collects the six unmatched shifts (bound 6 eps), and
t3 = t1 + t2 <= 9 eps holds for every state.

A noteworthy feature of the honest conditional calculus: Charlie's y
measurement imprints a relative phase on the conditional, a|00> -/+ i b|11>,
which rotates the transverse Bloch components of the inner conditionals
and lowers the matched shift value of that branch. As a consequence the
GHZ family approaches, but never crosses, the 3 sqrt(6) line for the l1
measure: max t1 is about 7.236 at the symmetric point's neighbourhood,
with t1(1/sqrt 2) = 7 exactly.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from naqc import DensityMatrix, Measure, shift_values
from naqc.cli import main

SQRT6 = math.sqrt(6.0)

# the sweep through the CLI, as a CSV artifact: alpha, t1, t2, t3, 3 eps and
# 9 eps at alpha = 0, 0.01, ..., 1
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "ghz_family_l1.csv"
    code = main(
        [
            "sweep",
            "--family", "ghz_alpha",
            "--from", "0", "--to", "1", "--step", "0.01",
            "--measure", "l1",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = out.read_text().splitlines()
print(f"header: {rows[0]}\n")
table = [[float(v) for v in line.split(",")] for line in rows[1:]]

print("alpha    t1        t2        t3      3*eps margin of t1")
print("-" * 60)
for alpha, t1, t2, t3, bound, _ in table[::5]:  # alpha = 0, 0.05, ..., 1
    print(f"{alpha:.2f}   {t1:8.5f}  {t2:8.5f}  {t3:8.5f}   {bound - t1:+.5f}")

best = max(table, key=lambda row: row[1])
print(f"\n3 sqrt(6) = {3 * SQRT6:.6f}")
print(f"largest t1 on the 0.01 grid: {best[1]:.6f} at alpha = {best[0]:.2f}")
print(f"max T3 = {max(row[3] for row in table):.6f} (bound {9 * SQRT6:.6f})")
print("closed form: t1(a) = 5 + 4 a sqrt(1-a^2) + |2 a^2 - 1|")

print("\n" + "=" * 64)
print("  WHY THE MATCHED SHIFT OF THE y BRANCH IS SMALLER")
print("=" * 64)

alpha = 1 / math.sqrt(2)
beta = math.sqrt(1 - alpha ** 2)

# conditional two-qubit states for Charlie's x and y outcomes, built directly
ket_x = np.array([alpha, 0, 0, beta], dtype=complex)          # a|00> + b|11>
ket_y = np.array([alpha, 0, 0, -1j * beta], dtype=complex)    # a|00> - i b|11>
for label, ket, matched in (("x branch", ket_x, 1), ("y branch", ket_y, 2)):
    rho = DensityMatrix(np.outer(ket, ket.conj()))
    s = shift_values(rho, Measure.L1).values
    print(
        f"  {label}: shift values ({s[0]:.4f}, {s[1]:.4f}, {s[2]:.4f})"
        f"  -> matched s{matched} = {s[matched]:.4f}"
    )
print(
    "\nBoth branches have the same total (the 3 eps bound is phase blind),\n"
    "but the imprinted phase moves weight between the individual shifts."
)
