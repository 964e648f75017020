"""Reconstruct the extremal test functions and verify them in place.

Past half support the optimizer is a piecewise sinusoid glued across an
explicit partition; below it (and for the O kernel everywhere) a single
shifted cosine.  The script rebuilds both kinds, prints every defining
residual (delay differential equation, integral equation, compatibility
relation, Rayleigh quotient), and samples one optimizer to CSV.

Run:  python3 demos/optimal_test_function.py
"""

import csv

import numpy as np

from lowzero import Symmetry, reconstruct, residuals

CASES = [
    (Symmetry.O, 0.9),
    (Symmetry.Sp, 0.3),
    (Symmetry.SOplus, 0.75),
    (Symmetry.Sp, 0.75),
    (Symmetry.SOminus, 1.2),
]

print("=== Residuals of the reconstructed optimizers ===")
print(f"{'kernel':7s} {'R':>5s} {'cells':>5s} {'ode':>9s} {'integral':>9s} "
      f"{'compat':>9s} {'quotient':>9s}")
for g, R in CASES:
    h, _ = reconstruct(g, R)
    report = residuals(h)
    print(
        f"{g.value:7s} {R:5.2f} {h.breakpoints().size - 1:5d} {report.delayed_ode:9.1e}"
        f" {report.volterra:9.1e} {report.compatibility:9.1e} {report.rayleigh_gap:9.1e}"
    )

print()
g, R = Symmetry.SOminus, 1.2
h, _ = reconstruct(g, R)
print(f"=== Sampling the {g.value} optimizer at R={R} (lam={h.lam:.6f}) ===")
print("partition points:", ", ".join(f"{b:+.3f}" for b in h.breakpoints()))
with open("optimal_test_function.csv", "w", newline="") as handle:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(["u", "h"])
    us = np.linspace(-R - 0.1, R + 0.1, 801)
    for u, v in zip(us.tolist(), h(us).tolist()):
        writer.writerow([f"{u:.8f}", f"{v:.12f}"])
print("wrote optimal_test_function.csv (801 samples, even, zero outside support)")
