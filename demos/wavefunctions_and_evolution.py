"""Eigenfunction reconstruction and time evolution of a Gaussian packet.

States are reconstructed on a fine grid through the cardinal interpolants
with continuum normalization; a displaced Gaussian is then propagated
through the eigenbasis and its coefficient norm checked for conservation.
"""

import numpy as np

from fraclap import (
    BasisKind,
    HamiltonianSpec,
    assemble,
    eigendecompose,
    evolve,
    find_pms_length,
    mode_coefficients,
    reconstruct,
)

spec = HamiltonianSpec(alpha=1.5, potential=lambda x: x * x, kind=BasisKind.DIRICHLET, N=40)
pms = find_pms_length(spec)
spectrum = eigendecompose(assemble(spec, pms.L_pms))

print(f"fractional oscillator alpha = 3/2, N = 40, L_pms = {pms.L_pms:.3f}")
for i in range(3):
    xs, psi = reconstruct(spectrum, i, 2001)
    norm = np.trapezoid(psi**2, xs)
    # count sign changes away from the tails, where interpolation ripples
    # of size ~1e-5 would otherwise register as spurious nodes
    body = psi[np.abs(psi) > 1e-3 * np.abs(psi).max()]
    nodes = int(np.sum(np.sign(body[:-1]) * np.sign(body[1:]) < 0))
    print(f"  state {i}: E = {spectrum.eigenvalues[i]:.6f}, "
          f"integral of psi^2 = {norm:.6f}, interior nodes = {nodes}")

# propagate a displaced Gaussian
x = spectrum.grid.points
psi0 = np.exp(-2.0 * (x - 1.0) ** 2)
n0 = np.sum(np.abs(mode_coefficients(spectrum, psi0)) ** 2)
print("\ntime evolution of exp(-2 (x - 1)^2):")
for t in (0.0, 0.5, 2.0, 10.0):
    psi_t = evolve(spectrum, psi0, 1.0, t)
    n_t = np.sum(np.abs(mode_coefficients(spectrum, psi_t)) ** 2)
    mean_x = float(np.sum(x * np.abs(psi_t) ** 2) / np.sum(np.abs(psi_t) ** 2))
    print(f"  t = {t:5.2f}: <x> = {mean_x:+.4f}, coefficient-norm drift = {abs(n_t - n0):.2e}")
