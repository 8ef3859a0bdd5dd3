#!/usr/bin/env python3
"""Homodyne and heterodyne FI: vacuum noise halves the reachable ceiling.

Both continuous records top out at n_s / (4 sigma^2), a quarter of the
quantum limit per photon, because the variance signal rides on shot noise.
Homodyne needs fewer photons to get there; heterodyne pays an extra 3 dB
but measures both quadratures.
"""

import numpy as np
from scipy.optimize import minimize_scalar

from spaderes import (
    SourceScene,
    fi_heterodyne,
    fi_homodyne,
    fi_homodyne_small_d,
    gaussian_psf,
    qfi,
)

tf = gaussian_psf(1.0)
n_s = 100.0

d = np.geomspace(0.02, 1.0, 12)
scene = SourceScene(tf, d, n_s)
curves = (fi_homodyne(scene), fi_heterodyne(scene), fi_homodyne_small_d(scene))

print(f"{'d/sigma':>8} {'homodyne':>12} {'heterodyne':>12} {'hom small-d':>12}")
for x, hom, het, small in zip(d, *curves):
    print(f"{x:8.3f} {hom:12.4f} {het:12.4f} {small:12.4f}")

print()
for name, fn in (("homodyne", fi_homodyne), ("heterodyne", fi_heterodyne)):
    res = minimize_scalar(
        lambda d: -fn(SourceScene(tf, d, n_s)),
        bounds=(1e-3, 1.0), method="bounded", options={"xatol": 1e-10},
    )
    print(
        f"{name:>10} peak {-res.fun:9.4f} at d = {res.x:.4f} sigma"
        f"  (ceiling n_s/4 = {n_s / 4:.1f}, quantum limit {qfi(n_s, 1.0):.0f})"
    )
