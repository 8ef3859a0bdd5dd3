#!/usr/bin/env python3
"""Photon-counting Fisher information across the noise floor.

Without background the scaled FI holds at 1 all the way to d=0.  A finite
background carves out a quadratic hole below d_half = 2 sigma / sqrt(SNR):
the table prints FI * sigma^2 / n_s, so 0.5 marks the half-information point.
"""

import numpy as np

from spaderes import (
    NoiseModel,
    SourceScene,
    d_half_counting,
    fi_counting_exact,
    gaussian_psf,
)

tf = gaussian_psf(1.0)
snrs = (np.inf, 1e4, 1e3, 1e2)

d = np.geomspace(5e-3, 1.0, 12)
scene = SourceScene(tf, d, 1.0)
curves = [fi_counting_exact(scene, NoiseModel.from_snr(snr, 1.0)) for snr in snrs]

header = f"{'d/sigma':>9}" + "".join(f"{('SNR=%g' % s):>12}" for s in snrs)
print(header)
for x, *cells in zip(d, *curves):
    print(f"{x:9.4f}" + "".join(f"{c:12.5f}" for c in cells))

print()
for snr in snrs[1:]:
    dh = d_half_counting(1.0, snr)
    f = fi_counting_exact(SourceScene(tf, dh, 1.0), NoiseModel.from_snr(snr, 1.0))
    print(f"SNR={snr:<8g} d_half = {dh:.4f} sigma, FI there = {f:.4f} (small-d value 0.5)")
