"""K-Bessel function of imaginary order, the closed form the rank-one
Whittaker functions are checked against."""

import math

import mpmath as mp
import numpy as np


def bessel_k_imag_order(nu: float, z: float) -> float:
    """K_{i nu}(z) for real nu and z > 0, via the symmetric cosh integral.

    The integrand is even and decays double-exponentially, so the
    trapezoid rule on a symmetric grid converges geometrically.  Under
    heavy cancellation the same integral is redone with mpmath.
    """
    if z <= 0:
        raise ValueError("need z > 0")
    lt = 42.0
    u_max = math.acosh(max(lt / z, 1.5)) + 1.0
    h = min(0.2, 2.0 * math.pi * 1.2 / (lt + 2.0 * abs(nu) + 10.0))
    prev = None
    mass = 1.0
    for attempt in range(5):
        m = int(math.ceil(u_max / h))
        u = np.arange(-m, m + 1) * h
        vals = np.exp(-z * np.cosh(u)) * np.cos(nu * u)
        total = 0.5 * float(vals.sum()) * h
        mass = 0.5 * float(np.abs(vals).sum()) * h
        if prev is not None and abs(total - prev) <= 1e-13 * max(abs(total), 1e-280):
            break
        prev = total
        h *= 0.5
    if abs(total) > 1e-9 * mass:
        return total
    with mp.workdps(40):
        val = mp.quad(lambda t: mp.exp(-z * mp.cosh(t)) * mp.cos(nu * t), [0, u_max])
    return float(val)
