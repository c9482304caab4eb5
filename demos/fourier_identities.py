"""Check the exact Fourier identities on F_p^d for a random function.

Forward transform: f^(xi) = sum_x f(x) exp(-2 pi i (xi.x) / p).
Inversion returns p^d f, and Parseval's identity holds with the same
p^d factor.  Everything is exact up to rounding.
"""

import numpy as np

from ffrestrict import (
    VectorSpace,
    convolve,
    fourier_forward,
    fourier_inverse,
    parseval,
    random_function,
)

for p, d in [(5, 2), (7, 2), (13, 3)]:
    space = VectorSpace(p, d)
    f = random_function(space, seed=1)
    g = random_function(space, seed=2)
    fh = fourier_forward(f)

    back = fourier_inverse(fh).values
    inv_err = np.max(np.abs(back - space.size * f.values))

    lhs, rhs = parseval(f, g)
    par_err = abs(lhs - rhs) / abs(rhs)

    law_lhs = fourier_forward(convolve(f, g)).values
    law_rhs = fh.values * fourier_forward(g).values
    law_err = np.max(np.abs(law_lhs - law_rhs)) / np.max(np.abs(law_rhs))

    print(f"F_{p}^{d}: inversion err {inv_err:.2e}, "
          f"parseval rel err {par_err:.2e}, "
          f"convolution law rel err {law_err:.2e}")
