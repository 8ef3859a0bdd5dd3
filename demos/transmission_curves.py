#!/usr/bin/env python3
"""Sweep the antisymmetric-mode transmission tau1(d) for both aperture kinds.

tau1 is the fraction of the two-source signal that lands in the derivative
mode.  It vanishes quadratically at d=0, peaks near d = 2 sigma, and the
Gaussian and sinc curves are nearly indistinguishable below half a width.
"""

import numpy as np

from spaderes import gaussian_psf, sinc_psf, tau1_exact, tau1_small_d

gauss = gaussian_psf(1.0)
sinc = sinc_psf(sigma=1.0)

d = np.linspace(0.0, 4.0, 17)
curves = (tau1_exact(gauss, d).tau1, tau1_exact(sinc, d).tau1, tau1_small_d(1.0, d))

print(f"{'d/sigma':>8} {'gaussian':>12} {'sinc':>12} {'quadratic':>12}")
for x, tg, ts, tq in zip(d, *curves):
    print(f"{x:8.2f} {tg:12.6f} {ts:12.6f} {tq:12.6f}")

peak = tau1_exact(gauss, 2.0)
print()
print(f"gaussian peak at d = 2 sigma: tau1 = {peak.tau1:.6f} (1/e = {np.exp(-1):.6f})")
print(f"slope there: {peak.dtau1_dd:.2e} (stationary)")
