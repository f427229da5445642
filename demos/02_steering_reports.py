#!/usr/bin/env python3
"""Steering reports for two-qubit states: violations and compensation.

Alice measures each Pauli basis on her qubit; the coherence of Bob's
conditional states, aggregated with a cyclic axis shift j, gives the shift
functionals s_0, s_1, s_2. Local-hidden-state models obey s_j <= eps and
s_j + s_k <= 2 eps, so exceeding either certifies a nonlocal advantage of
quantum coherence. The total s_0 + s_1 + s_2 <= 3 eps holds for every
state, which is why a violated criterion forces its complement to be
satisfied.
"""

import numpy as np

from naqc import CRITERIA, Measure, bell, maximally_mixed, steering_report, werner


def show_report(label, rho, measure):
    report = steering_report(rho, measure)
    eps = measure.epsilon
    s = report.shift.values
    print(f"\n{label}  (measure: {measure.value}, eps = {eps:.6f})")
    print(f"  shift values: s0={s[0]:.6f}  s1={s[1]:.6f}  s2={s[2]:.6f}")
    results = [*report.singles, *(res for _, res in report.doubles)]
    for name, res in zip(CRITERIA[2], results):
        mark = "VIOLATED" if res.violated else "ok"
        print(f"  {name + ':':<10} {res.value:.6f}  vs  {res.bound:.6f}   {mark}")
    t = report.triple
    print(f"  triple:    {t.value:.6f}  vs  {t.bound:.6f}   always satisfied")
    return report


show_report("BELL STATE", bell(), Measure.L1)
print(
    "\nThe Bell state violates the two-setting criterion (6 > 2 sqrt 6)\n"
    "while the one-setting value s0 = 0 compensates: the total stays at\n"
    "6 <= 3 sqrt 6. One key opens the box, the complementary one cannot."
)

show_report("MAXIMALLY MIXED", maximally_mixed(2), Measure.L1)

print("\n" + "=" * 64)
print("  WERNER FAMILY: WHERE DOES THE VIOLATION SET IN?")
print("=" * 64)
print("\nFor p |bell><bell| + (1-p) I/4 the shift values are (0, 3p, 3p),")
print("so the double12 criterion is violated when 6p > 2 sqrt 6,")
print(f"i.e. for p > {np.sqrt(6) / 3:.6f}.")
print("\n  p      s1+s2    bound    violated")
for p in (0.5, 0.7, 0.8, 0.817, 0.9, 1.0):
    report = steering_report(werner(p), Measure.L1)
    double_12 = dict(report.doubles)[(1, 2)]
    print(
        f"  {p:.3f}  {double_12.value:.4f}   {double_12.bound:.4f}   "
        f"{'yes' if double_12.violated else 'no'}"
    )

print("\nEvery measure tells the same story with its own bound:")
for measure in Measure:
    report = steering_report(bell(), measure)
    double_12 = dict(report.doubles)[(1, 2)]
    print(
        f"  {measure.value:>6}: double12 = {double_12.value:.4f} vs "
        f"{double_12.bound:.4f} -> {'violated' if double_12.violated else 'ok'}"
    )
