"""Complex log-gamma via Stirling's series with upward recursion.

The principal branch of log Gamma is computed from the Bernoulli-number
asymptotic series (DLMF 5.11.1) after shifting the argument to
Re z >= 10 with the recursion log Gamma(z) = log Gamma(z+1) - log z.
For arguments off the real axis the recursion never crosses a branch
cut, so the result is the standard analytic continuation.  The
vectorized numpy path is what the contour quadratures use; the scalar
entry point delegates to it, and both raise PoleHit at the poles.
"""

from __future__ import annotations

import math

import numpy as np


class PoleHit(ArithmeticError):
    pass


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)

# B_{2k} / (2k (2k-1)) for k = 1..7
_STIRLING = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
)

_SHIFT_RE = 10.0


def _stirling(z):
    """Asymptotic series; valid for Re z >= ~10."""
    out = (z - 0.5) * np.log(z) - z + _HALF_LOG_2PI
    zi = 1.0 / z
    z2 = zi * zi
    term = zi
    for c in _STIRLING:
        out = out + c * term
        term = term * z2
    return out


def log_gamma_array(z):
    """Principal-branch log Gamma on a complex numpy array.

    Raises PoleHit when an entry is a pole (a nonpositive integer).  Only
    the entries on the real axis are looked at, so the check adds no
    full-size float temporary.  The work runs on a flat array whatever
    the input shape (numpy's scalar arithmetic rounds differently), so a
    value has the same bits on its own as inside a grid.
    """
    z = np.asarray(z, dtype=complex)
    axis = z[z.imag == 0.0].real
    poles = axis[(axis <= 0.0) & (axis == np.floor(axis))]
    if poles.size:
        raise PoleHit(f"log Gamma pole at {poles[0]:g}")
    work = z.flatten()
    acc = np.zeros_like(work)
    while True:
        mask = work.real < _SHIFT_RE
        if not mask.any():
            break
        acc[mask] -= np.log(work[mask])
        work[mask] += 1.0
    return (_stirling(work) + acc).reshape(z.shape)


def log_gamma_complex(z) -> complex:
    """Principal-branch log Gamma of a single complex argument.

    Raises PoleHit at the poles (nonpositive integers).
    """
    return complex(log_gamma_array(complex(z)))

