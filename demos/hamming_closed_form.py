"""Closed-form transform of the Hamming variety vs the full DFT.

The variety {x : prod x_i = j} has an exactly computable normalized
transform at every frequency with a zero coordinate, and square-root
cancellation |mu^(m)| <= C p^{-(d-1)/2} at zero-free frequencies.
The script prints the worst closed-form gap over the frequencies with a
zero coordinate, and the measured constant.
"""

import numpy as np

from ffrestrict import (
    VectorSpace,
    fourier_forward,
    hamming_exact_transform,
    hamming_variety,
    surface_measure,
)

for p, d in [(5, 2), (7, 3), (11, 3), (5, 4)]:
    space = VectorSpace(p, d)
    e = hamming_variety(space, 1)
    mhat = fourier_forward(surface_measure(e).as_grid()).values

    idx = space.all_indices()
    zeros = np.zeros(space.size, dtype=np.int64)
    for axis in range(d):
        zeros += space.coordinate(idx, axis) == 0

    exact = hamming_exact_transform(space, 1, idx)
    gap = float(np.max(np.abs(exact - mhat)[zeros >= 1]))
    const = float(np.max(np.abs(mhat[zeros == 0])) * p ** ((d - 1) / 2))
    print(f"F_{p}^{d}: |E| = {e.cardinality} = (p-1)^(d-1), "
          f"closed-form gap {gap:.2e}, decay constant {const:.3f}")
