"""Complex log-gamma on numpy arrays, with PoleHit at the poles.

The principal branch of log Gamma comes from scipy.special.loggamma,
which implements Hare's algorithm ("Computing the principal branch of
log-Gamma", J. Algorithms 25, 1997): a Stirling series far from the
origin, a Taylor series near z = 1 and 2, recurrence in between and
reflection in the left half-plane, so its cost does not grow with |z|.
Its result is the analytic continuation from the upper half-plane,
with the branch cut on the negative real axis.  The vectorized entry
point is what the contour quadratures use; the scalar entry point
delegates to it, and both raise PoleHit at the poles.
"""

from __future__ import annotations

import numpy as np


class PoleHit(ArithmeticError):
    pass


def log_gamma_array(z):
    """Principal-branch log Gamma on a complex numpy array.

    Raises PoleHit when an entry is a pole (a nonpositive integer).  Only
    the entries on the real axis are looked at, so the check adds no
    full-size float temporary.  The work runs on a flat array whatever
    the input shape, so a value has the same bits on its own as inside a
    grid.
    """
    # imported here so that code which never evaluates a Gamma factor
    # does not need scipy.special
    from scipy.special import loggamma

    z = np.asarray(z, dtype=complex)
    axis = z[z.imag == 0.0].real
    poles = axis[(axis <= 0.0) & (axis == np.floor(axis))]
    if poles.size:
        raise PoleHit(f"log Gamma pole at {poles[0]:g}")
    return loggamma(z.reshape(-1)).reshape(z.shape)


def log_gamma_complex(z) -> complex:
    """Principal-branch log Gamma of a single complex argument.

    Raises PoleHit at the poles (nonpositive integers).
    """
    return complex(log_gamma_array(complex(z)))
