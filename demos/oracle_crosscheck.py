"""Closed forms against the brute-force Rayleigh-quotient oracle.

The oracle expands admissible test functions in truncated cosine series and
minimizes the Rayleigh quotient of the resulting quadratic forms by inverse
iteration, returning the quotient of an actual coefficient vector, so it
never lies below the true minimum.  It knows nothing about tangent
inversions or transcendental equations, so agreement with the closed-form
solver is a genuine two-route check.  The script also shows the truncation
refinement: the oracle minimum only ever decreases as modes are added.

Run:  python3 demos/oracle_crosscheck.py
"""

from lowzero import Symmetry, minimal_quotient, oracle_minimize, oracle_sqrt_quotient

print("=== Two routes to the same minimum ===")
print(f"{'kernel':7s} {'R':>5s} {'closed form':>14s} {'oracle(400)':>14s} {'gap':>10s}")
worst = 0.0
for g in (Symmetry.O, Symmetry.Sp, Symmetry.SOplus, Symmetry.SOminus):
    for R in (0.2, 0.4, 0.62, 0.85):
        closed = minimal_quotient(g, R).bound
        estimate = oracle_sqrt_quotient(g, R, 400)
        gap = abs(closed - estimate)
        worst = max(worst, gap)
        print(f"{g.value:7s} {R:5.2f} {closed:14.9f} {estimate:14.9f} {gap:10.2e}")
print(f"worst gap: {worst:.2e} (tolerance in the acceptance suite: 5e-3)")

print()
print("=== Truncation refinement (scaled minimum, Sp kernel, R = 0.75) ===")
previous = None
for N in (25, 50, 100, 200, 400):
    value = oracle_minimize(Symmetry.Sp, 0.75, N)
    marker = "" if previous is None else ("  (decreased)" if value <= previous else "  (INCREASED!)")
    print(f"  N={N:4d}: {value:.12f}{marker}")
    previous = value

print()
print("=== The unitary minimum is exactly one in every truncation ===")
for R in (0.3, 0.8, 1.4):
    values = [oracle_minimize(Symmetry.U, R, N) for N in (5, 50)]
    print(f"  R={R}: {values}")
