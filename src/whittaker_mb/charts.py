"""Lusztig coordinate charts on the positive unipotent part.

A chart assigns one coordinate per positive root along the family's
fixed normal ordering; the chart matrix is the ordered product of
one-parameter subgroup elements exp(t_gamma * e_letter).  This module
provides the chart -> matrix map, the inverse (inductive peeling of the
first simple-root string off the first row), the three rank-two
transition maps between adjacent normal orderings, the invariant
monomials t^mu, and exact log-coordinate Jacobians.  Coordinates and
chart matrices are rational in every family: the so_odd realization uses
the basis with the middle vector scaled by sqrt(2) (see roots), in which
its short generator has integer entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import ExactMatrix, jacobian_exact
from .roots import (
    RootSystem,
    build_realization,
    build_root_system,
    coroot_pairing,
    _eps,
)


class ChartError(ValueError):
    pass


class NotInChartDomain(ChartError):
    pass


class ReconstructionMismatch(ChartError):
    """Internal convention bug: peeled coordinates fail to rebuild the input."""


class DegenerateDenominator(ChartError):
    pass


class ZeroBaseNegativeExponent(ChartError):
    pass


@dataclass
class LusztigChart:
    root_system: RootSystem
    coords: dict  # root label -> exact scalar

    def __post_init__(self):
        missing = [r for r in self.root_system.positive_roots if r not in self.coords]
        if missing:
            raise ChartError(f"missing coordinates {missing}")

    @property
    def in_positive_cone(self) -> bool:
        return all(v > 0 for v in self.coords.values())

    def values_in_order(self):
        return tuple(self.coords[r] for r in self.root_system.positive_roots)

    def __eq__(self, other):
        return (
            isinstance(other, LusztigChart)
            and self.root_system == other.root_system
            and all(
                self.coords[r] == other.coords[r]
                for r in self.root_system.positive_roots
            )
        )


def chart_from_values(family: str, n: int, values) -> LusztigChart:
    rs = build_root_system(family, n)
    vals = list(values)
    if len(vals) != rs.d:
        raise ChartError(f"expected {rs.d} coordinates, got {len(vals)}")
    return LusztigChart(rs, dict(zip(rs.positive_roots, vals)))


def constant_chart(family: str, n: int, value=Fraction(1)) -> LusztigChart:
    rs = build_root_system(family, n)
    return LusztigChart(rs, {r: value for r in rs.positive_roots})


def chart_to_matrix(chart: LusztigChart, negate: bool = False) -> ExactMatrix:
    """Ordered product of exp(coordinate * generator) along the family word."""
    rs = chart.root_system
    real = build_realization(rs.family, rs.n)
    m = ExactMatrix.identity(real.matrix_size)
    for letter, label in rs.word:
        c = chart.coords[label]
        if negate:
            c = -c
        m.apply_right_sparse(real.exp_terms(letter, c))
    return m


# ---------------------------------------------------------------------------
# inverse map: peel simple-root strings off the first row


def _ratio(num, den):
    if den == 0:
        raise NotInChartDomain("vanishing first-row entry")
    return num / den


def _string1_params(x: ExactMatrix, family: str, r: int) -> dict:
    """Coordinates of the last string (labels with first index 1) at rank r.

    Solves the triangular system formed by the first row of the chart
    matrix: the plain columns carry products of s-coordinates times the
    mixed sums t+s, the reflected columns carry pure t-products.
    """
    row = x.rows[0]
    out = {}
    if family == "gl":
        for m in range(r, 1, -1):
            out[("m", 1, m)] = _ratio(row[r + 1 - m], row[r - m])
        return out
    if family == "so_even":
        for j in range(2, r):
            out[("m", 1, j)] = -_ratio(row[2 * r + 1 - j], row[2 * r - j])
        p = Fraction(1)
        for j in range(2, r):
            u_j = _ratio(row[j - 1], p)
            s_j = u_j - out[("m", 1, j)]
            out[("p", 1, j)] = s_j
            p *= s_j
        a = _ratio(row[r - 1], p)
        b = _ratio(row[r], p)
        if _eps(r - 1) == 1:  # r odd: plain column r holds s, next holds t
            out[("p", 1, r)], out[("m", 1, r)] = a, b
        else:
            out[("m", 1, r)], out[("p", 1, r)] = a, b
        if row[r + 1] != -p * out[("p", 1, r)] * out[("m", 1, r)]:
            raise ReconstructionMismatch("first-row consistency check failed")
        return out
    # so_odd / sp share the string shape; so_odd has one more column: the
    # middle one holds p * t_1, the next -p * t_1^2 (checked below)
    for j in range(2, r + 1):
        col_hi = (2 * r + 3 - j) if family == "so_odd" else (2 * r + 2 - j)
        out[("m", 1, j)] = -_ratio(row[col_hi - 1], row[col_hi - 2])
    p = Fraction(1)
    for j in range(2, r + 1):
        u_j = _ratio(row[j - 1], p)
        s_j = u_j - out[("m", 1, j)]
        out[("p", 1, j)] = s_j
        p *= s_j
    t1 = _ratio(row[r], p)
    if family == "so_odd" and row[r + 1] != -p * t1 * t1:
        raise ReconstructionMismatch("first-row consistency check failed")
    out[("s", 1)] = t1
    return out


def _shift_label(label, k: int):
    if label[0] == "s":
        return ("s", label[1] + k)
    return (label[0], label[1] + k, label[2] + k)


def _submatrix(x: ExactMatrix, lo: int, hi: int) -> ExactMatrix:
    return ExactMatrix([row[lo:hi] for row in x.rows[lo:hi]])


def _border_trivial(x: ExactMatrix, family: str) -> bool:
    n = x.nrows
    idx = [0] if family == "gl" else [0, n - 1]
    for k in idx:
        if any(x.rows[k][j] != (1 if j == k else 0) for j in range(n)):
            return False
        if any(x.rows[i][k] != (1 if i == k else 0) for i in range(n)):
            return False
    return True


def extract_coordinates(x_bar: ExactMatrix, root_system: RootSystem) -> LusztigChart:
    """Chart coordinates of a unipotent chart matrix; exact inverse of
    chart_to_matrix, self-validated by rebuilding the input."""
    family, n = root_system.family, root_system.n
    real = build_realization(family, n)
    if x_bar.nrows != real.matrix_size:
        raise ChartError("matrix size does not match the realization")
    coords = {}
    work = x_bar.copy()
    lo = 0
    min_rank = 2 if family in ("gl", "so_even") else 1

    def current_block():
        hi = work.nrows if family == "gl" else work.nrows - lo
        return _submatrix(work, lo, hi) if lo else work

    r = n
    while r >= min_rank:
        sub = current_block()
        if sub.is_identity():
            rs_level = build_root_system(family, r)
            for label in rs_level.positive_roots:
                coords[_shift_label(label, n - r)] = Fraction(0)
            chart = LusztigChart(root_system, coords)
            _validate_roundtrip(chart, x_bar)
            return chart
        params = _string1_params(sub, family, r)
        for label, v in params.items():
            coords[_shift_label(label, n - r)] = v
        # multiply by the inverse of the peeled string, in place
        rs_level = build_root_system(family, r)
        string1 = [(lt, lb) for lt, lb in rs_level.word if lb[1] == 1]
        for letter, label in reversed(string1):
            work.apply_right_sparse(real.exp_terms(letter + (n - r), -params[label]))
        if not _border_trivial(current_block(), family):
            raise ReconstructionMismatch("peeled matrix has nontrivial border")
        lo += 1
        r -= 1
    chart = LusztigChart(root_system, coords)
    _validate_roundtrip(chart, x_bar)
    return chart


def _validate_roundtrip(chart: LusztigChart, x_bar: ExactMatrix) -> None:
    if chart_to_matrix(chart) != x_bar:
        raise ReconstructionMismatch("chart does not rebuild the input matrix")


# ---------------------------------------------------------------------------
# rank-two transition maps between adjacent normal orderings


def _exactify(values):
    return tuple(Fraction(v) if isinstance(v, int) else v for v in values)


def mutate_a2(triple):
    """(t_a, t_ab, t_b) -> coordinates in the reversed A2 ordering; involutive."""
    ta, tab, tb = _exactify(triple)
    s = ta + tb
    if s == 0:
        raise DegenerateDenominator("t_a + t_b = 0")
    return (ta * tab / s, s, tb * tab / s)


def mutate_b2(quad):
    """(t_a, t_ab, t_a2b, t_b) -> reversed B2 ordering; involutive."""
    ta, tab, ta2b, tb = _exactify(quad)
    pi1 = tb * ta2b + (tb + tab) * ta
    pi2 = tb * tb * ta2b + (tb + tab) ** 2 * ta
    if pi1 == 0 or pi2 == 0:
        raise DegenerateDenominator("B2 transition denominator vanishes")
    return (
        ta2b * tab * tab * ta / pi2,
        pi2 / pi1,
        pi1 * pi1 / pi2,
        tb * tab * ta2b / pi1,
    )


def mutate_g2(six):
    """(t_a, t_ab, t_2a3b, t_a2b, t_a3b, t_b) -> reversed G2 ordering; involutive."""
    ta, tab, t23, t12, t13, tb = _exactify(six)
    u = t12 + tab  # recurring short-root combination
    w = 3 * tb * t12 + 3 * t12 * t12 + 3 * t12 * tab + 2 * tb * tab
    pi1 = tb * t13 * t12**2 * t23 + tb * t13 * u**2 * ta + (tb + t12) * t23 * tab**2 * ta
    pi2 = (
        tb**2 * t13**2 * t12**3 * t23
        + tb**2 * t13**2 * u**3 * ta
        + (tb + t12) ** 2 * t23**2 * tab**3 * ta
        + tb * t13 * t23 * tab**2 * ta
        * (3 * tb * t12 + 2 * t12 * t12 + 2 * t12 * tab + 2 * tb * tab)
    )
    pi3 = (
        tb**3 * t13**2 * t12**3 * t23
        + tb**3 * t13**2 * u**3 * ta
        + (tb + t12) ** 3 * t23**2 * tab**3 * ta
        + tb**2 * t13 * t23 * tab**2 * ta * w
    )
    pi4 = (
        tb**2 * t13**2 * t12**3 * t23
        * (
            tb * t13 * t12**3 * t23
            + 2 * tb * t13 * u**3 * ta
            + w * t23 * tab**2 * ta
        )
        + ta**2 * (tb * t13 * u**2 + (tb + t12) * t23 * tab**2) ** 3
    )
    if pi1 == 0 or pi2 == 0 or pi3 == 0 or pi4 == 0:
        raise DegenerateDenominator("G2 transition denominator vanishes")
    return (
        ta * tab**3 * t23**2 * t12**3 * t13 / pi3,
        pi3 / pi2,
        pi2**3 / (pi3 * pi4),
        pi4 / (pi1 * pi2),
        pi1**3 / pi4,
        tb * t13 * t12**2 * t23 * tab / pi1,
    )


# invariant monomials of the three transition maps (fundamental-weight
# exponents attached to the two simple roots of the rank-two subsystem)
RANK2_MONOMIALS = {
    "a2": {"alpha": (1, 1, 0), "beta": (0, 1, 1)},
    "b2": {"alpha": (1, 2, 1, 0), "beta": (0, 1, 1, 1)},
    "g2": {"alpha": (1, 3, 2, 3, 1, 0), "beta": (0, 1, 1, 2, 1, 1)},
}

# index sets of equal-length roots, whose coordinate sums are invariant
RANK2_LENGTH_CLASSES = {
    "a2": ((0, 1, 2),),
    "b2": ((0, 2), (1, 3)),
    "g2": ((0, 2, 4), (1, 3, 5)),
}


def monomial_weight(chart: LusztigChart, mu) -> Fraction:
    """Invariant monomial t^mu = prod over positive roots of t_gamma^(mu, gamma-vee).

    Independent of the choice of normal ordering; exponents must be
    integers for the product to stay exact.
    """
    rs = chart.root_system
    out = Fraction(1)
    for label in rs.positive_roots:
        k = coroot_pairing(mu, label, rs.family)
        if k.denominator != 1:
            raise ChartError(f"non-integer exponent {k} for root {label}")
        k = int(k)
        if k == 0:
            continue
        t = chart.coords[label]
        if t == 0:
            if k < 0:
                raise ZeroBaseNegativeExponent(f"coordinate {label} is 0, exponent {k}")
            return Fraction(0)
        out *= t**k
    return out


def measure_jacobian_logdet(map_func, point):
    """|det| of the Jacobian of a rational map in log coordinates, exactly.

    The map is differentiated with exact dual numbers; the log-coordinate
    Jacobian is diag(1/f) . J . diag(x), so the result is
    |det J| * prod(x_j) / prod(f_i).
    """
    point = tuple(Fraction(v) for v in point)
    values = map_func(point)
    jac = jacobian_exact(lambda p: map_func(p), point)
    d = len(point)
    if len(values) != d:
        raise ChartError("map must be dimension-preserving")
    scaled = [
        [jac[i][j] * point[j] / values[i] for j in range(d)] for i in range(d)
    ]
    det = ExactMatrix(scaled).det()
    return abs(det)
