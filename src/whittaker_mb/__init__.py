"""Whittaker wave functions of the classical split real groups.

Exact Lusztig charts and Berenstein-Zelevinsky transforms for GL(n,R),
SO(n,n), SO(n+1,n) and Sp(2n,R); Gamma-product Mellin data; and two
independent numerical presentations of the wave function (Mellin-Barnes
contour integral and positive-cone pairing) that must agree.
"""

from .exact import (
    DivisionByZero,
    ExactMatrix,
    GaussDecomposition,
    SingularLeadingMinor,
    lu_gauss_decompose,
)
from .roots import (
    ChevalleyRealization,
    RootSystem,
    UnsupportedRank,
    Weight,
    build_realization,
    build_root_system,
    coroot_pairing,
    rho_of,
    w0_lift,
    weyl_lift,
)
from .charts import (
    LusztigChart,
    chart_from_values,
    chart_to_matrix,
    extract_coordinates,
    measure_jacobian_logdet,
    monomial_weight,
    mutate_a2,
    mutate_b2,
    mutate_g2,
)
from .bz import (
    BZResult,
    bz_closed_form,
    bz_inverse,
    bz_oracle,
    left_whittaker_value,
    random_positive_chart,
    right_whittaker_value,
    u_matrix_check,
)
from .mellin import (
    AffineForm,
    MBIntegrand,
    MellinSplit,
    assemble_mb_integrand,
    bump_gl3,
    cartan_exponent,
    int_identity,
    left_vector_mellin,
    mellin_of_whittaker,
    right_vector_mellin,
)

# The numerical layer loads on first use of one of its names (PEP 562), so
# that importing the package, or running the exact layer alone, does not
# pay for scipy.
_QUADRATURE = (
    "ContourSpec",
    "NotConverged",
    "QuadResult",
    "contour_base_point",
    "eval_cone",
    "eval_mb",
    "eval_mellin_transform",
    "log_gamma_complex",
)


def __getattr__(name):
    if name in _QUADRATURE:
        from . import quadrature

        return getattr(quadrature, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"
