#!/usr/bin/env python3
"""Sweep of the pure family sqrt(a)|00> + sqrt(1-a)|11> against the bound.

Reproduces the standard picture for the l1 measure: the normalized
two-setting curve (s1 + s2)/2 = 2 + 2 sqrt(a(1-a)) rises above the
sqrt(6) line on a window around a = 1/2, while the one-setting curve
s0 = 2|2a - 1| dips to compensate, keeping the normalized total
(s0 + s1 + s2)/3 below the line everywhere. Also writes the same sweep
to CSV through the command-line code path.
"""

import math
import tempfile
from pathlib import Path

from naqc import Measure, pure_alpha, shift_values
from naqc.cli import main

SQRT6 = math.sqrt(6.0)

# the sweep through the CLI, as a CSV artifact: alpha, s0, (s1 + s2)/2,
# total/3 and eps at alpha = 0, 0.01, ..., 1
with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "pure_family_l1.csv"
    code = main(
        [
            "sweep",
            "--family", "pure_alpha",
            "--from", "0", "--to", "1", "--step", "0.01",
            "--measure", "l1",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = out.read_text().splitlines()
print(f"CLI sweep wrote {len(rows) - 1} rows, header: {rows[0]}")
peak = max(rows[1:], key=lambda line: float(line.split(",")[2]))
print(f"peak row: {peak}\n")

print("alpha    s0       (s1+s2)/2  total/3   above sqrt(6)?")
print("-" * 58)
window = []
for line in rows[1::5]:  # alpha = 0, 0.05, ..., 1
    alpha, s0, s12_half, total_third, _ = map(float, line.split(","))
    above = s12_half > SQRT6
    if above:
        window.append(alpha)
    print(
        f"{alpha:.2f}   {s0:8.5f}  {s12_half:8.5f}   {total_third:8.5f}   "
        f"{'YES' if above else '-'}"
    )

print(f"\nsqrt(6) = {SQRT6:.6f}")
print(
    f"two-setting violation window on this grid: "
    f"[{min(window):.2f}, {max(window):.2f}]"
)

# closed forms, from the hand-derived conditional Bloch vectors
print("\nclosed-form check at alpha = 0.3:")
alpha = 0.3
s = shift_values(pure_alpha(alpha), Measure.L1).values
print(f"  s0 computed {s[0]:.12f}  expected {2 * abs(2 * alpha - 1):.12f}")
print(
    f"  s1 computed {s[1]:.12f}  expected "
    f"{2 + 2 * math.sqrt(alpha * (1 - alpha)):.12f}"
)

# the exact crossing points of 2 + 2 sqrt(a(1-a)) = sqrt(6)
threshold = ((SQRT6 - 2) / 2) ** 2
lo = (1 - math.sqrt(1 - 4 * threshold)) / 2
hi = (1 + math.sqrt(1 - 4 * threshold)) / 2
print(f"\nexact crossing points: alpha = {lo:.6f} and {hi:.6f}")
