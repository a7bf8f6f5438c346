"""Fractional harmonic oscillator: levels vs grid size with PMS box choice.

H = |p|^1.5 + x^2 on a Dirichlet grid.  For each N the box half-length L is
placed at the minimum of trace(H(L)); the three lowest eigenvalues converge
slowly in N (the rate depends on alpha), which is the reason for the
momentum-space cross-check at the end.
"""

from fraclap import (
    BasisKind,
    HamiltonianSpec,
    assemble,
    eigendecompose,
    find_pms_length,
    parse,
)

spec_template = dict(alpha=1.5, potential=lambda x: x * x, kind=BasisKind.DIRICHLET)

print("fractional oscillator, alpha = 3/2, V = x^2")
print(f"{'N':>4} {'L_pms':>8} {'E0':>14} {'E1':>14} {'E2':>14}")
for N in (10, 20, 30, 40, 50):
    spec = HamiltonianSpec(N=N, **spec_template)
    pms = find_pms_length(spec)
    ev = eigendecompose(assemble(spec, pms.L_pms)).eigenvalues
    print(f"{N:>4} {pms.L_pms:8.3f} {ev[0]:14.9f} {ev[1]:14.9f} {ev[2]:14.9f}")

# momentum-space representation: under x <-> p, |p|^1.5 + x^2 becomes
# p^2 + |x|^1.5, the same collocation with kinetic exponent 2 and the
# potential |x|^1.5.  It converges much faster in N than the position form.
N = 500
spec = HamiltonianSpec(alpha=2.0, potential=parse("abs(x)^1.5"), kind=BasisKind.DIRICHLET, N=N)
pms = find_pms_length(spec, bracket=(0.5, 150.0))
ev = eigendecompose(assemble(spec, pms.L_pms)).eigenvalues
print(f"\nmomentum space, N = {N}, L_pms = {pms.L_pms:.2f}:")
print(f"  E0 = {ev[0]:.9f}  E1 = {ev[1]:.9f}  E2 = {ev[2]:.9f}")
