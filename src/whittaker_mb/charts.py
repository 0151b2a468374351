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

from .exact import ExactMatrix, IntRows, jet_forward
from .roots import RootSystem, build_realization, build_root_system, coroot_pairing, _eps, _min_rank


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
            and all(self.coords[r] == other.coords[r] for r in self.root_system.positive_roots)
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


def _word_rows(chart: LusztigChart, word, negate: bool = False) -> IntRows:
    """Integer product of exp(+-coordinate * generator) over the
    (letter, label) pairs of `word`, in order."""
    rs = chart.root_system
    real = build_realization(rs.family, rs.n)
    m = IntRows.identity(real.matrix_size)
    for letter, label in word:
        c = chart.coords[label]
        m.times(real.exp_terms(letter, -c if negate else c))
    return m


def chart_to_matrix(chart: LusztigChart, negate: bool = False) -> ExactMatrix:
    """Ordered product of exp(coordinate * generator) along the family word."""
    return _word_rows(chart, chart.root_system.word, negate).to_exact()


# ---------------------------------------------------------------------------
# inverse map: peel simple-root strings off the first row


def _ratio(num, den):
    if den == 0:
        raise NotInChartDomain("vanishing first-row entry")
    return Fraction(num, den)


def _string1_params(x: IntRows, lo: int, family: str, r: int) -> dict:
    """Coordinates of the last string (labels with first index 1) at rank r,
    from the first row of the diagonal block of x that starts at lo.

    Solves the triangular system formed by that row: the plain columns
    carry products p of s-coordinates times the mixed sums t+s, the
    reflected columns carry pure t-products.  Each coordinate is a ratio
    of two numerators of the row, or of one entry over p.
    """
    row, den = x.rows[lo][lo:], x.dens[lo]
    out = {}
    if family == "gl":
        for m in range(r, 1, -1):
            out[("m", 1, m)] = _ratio(row[r + 1 - m], row[r - m])
        return out
    # so_odd has one more column than so_even and sp: the middle one holds
    # p * t_1, the next -p * t_1^2 (checked below)
    top = r if family == "so_even" else r + 1
    shift = 2 * r + 2 if family == "so_odd" else 2 * r + 1
    for j in range(2, top):
        out[("m", 1, j)] = -_ratio(row[shift - j], row[shift - 1 - j])
    p = Fraction(1)

    def over_p(j):
        return _ratio(row[j] * p.denominator, den * p.numerator)

    for j in range(2, top):
        out[("p", 1, j)] = s_j = over_p(j - 1) - out[("m", 1, j)]
        p *= s_j
    if family == "sp":
        out[("s", 1)] = over_p(r)
        return out
    if family == "so_odd":
        a = b = out[("s", 1)] = over_p(r)
    else:
        a, b = over_p(r - 1), over_p(r)
        if _eps(r - 1) == 1:  # r odd: plain column r holds s, next holds t
            out[("p", 1, r)], out[("m", 1, r)] = a, b
        else:
            out[("m", 1, r)], out[("p", 1, r)] = a, b
    want = -p * a * b
    if row[r + 1] * want.denominator != want.numerator * den:
        raise ReconstructionMismatch("first-row consistency check failed")
    return out


def _shift_label(label, k: int):
    if label[0] == "s":
        return ("s", label[1] + k)
    return (label[0], label[1] + k, label[2] + k)


def _border_trivial(x: IntRows, lo: int, hi: int, family: str) -> bool:
    """Whether the first (and, outside gl, last) row and column of the
    diagonal block [lo, hi) of x are those of the identity."""
    for k in (lo,) if family == "gl" else (lo, hi - 1):
        if any(x.rows[k][j] != (x.dens[k] if j == k else 0) for j in range(lo, hi)):
            return False
        if any(x.rows[i][k] != (x.dens[i] if i == k else 0) for i in range(lo, hi)):
            return False
    return True


def extract_coordinates(x_bar, root_system: RootSystem) -> LusztigChart:
    """Chart coordinates of a unipotent chart matrix (an ExactMatrix or
    IntRows); exact inverse of chart_to_matrix, self-validated by
    rebuilding the input.

    The strings are peeled off a copy in IntRows: string parameters are
    ratios within one row, border and identity tests compare numerators
    with their row's denominator, and the integer chart product of the
    result is compared with the input by cross-multiplication.
    """
    family, n = root_system.family, root_system.n
    real = build_realization(family, n)
    x = x_bar if isinstance(x_bar, IntRows) else IntRows.from_exact(x_bar)
    size = real.matrix_size
    if len(x.rows) != size:
        raise ChartError("matrix size does not match the realization")
    coords = {}
    work = IntRows([list(row) for row in x.rows], list(x.dens))
    for lo, r in enumerate(range(n, _min_rank(family) - 1, -1)):
        hi = size if family == "gl" else size - lo
        rs_level = build_root_system(family, r)
        if work.is_identity(lo, hi):
            for label in rs_level.positive_roots:
                coords[_shift_label(label, n - r)] = Fraction(0)
            break
        params = _string1_params(work, lo, family, r)
        for label, v in params.items():
            coords[_shift_label(label, n - r)] = v
        # multiply by the inverse of the peeled string, in place
        string1 = [(lt, lb) for lt, lb in rs_level.word if lb[1] == 1]
        for letter, label in reversed(string1):
            work.times(real.exp_terms(letter + (n - r), -params[label]))
        if not _border_trivial(work, lo, hi, family):
            raise ReconstructionMismatch("peeled matrix has nontrivial border")
    chart = LusztigChart(root_system, coords)
    if _word_rows(chart, root_system.word) != x:
        raise ReconstructionMismatch("chart does not rebuild the input matrix")
    return chart


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

    One pass of integer jets (exact.jet_forward) gives each component
    f_i = n_i/q_i and its gradient G_i/q_i.  The log-coordinate Jacobian
    diag(1/f) . J . diag(x) has the entries G_ij x_j / n_i, free of the
    q_i; each is reduced once, and ExactMatrix.det eliminates without
    fractions.
    """
    point = tuple(Fraction(v) for v in point)
    out = jet_forward(map_func, point)
    if len(out) != len(point):
        raise ChartError("map must be dimension-preserving")
    zero = next((i for i, y in enumerate(out) if y.v == 0), None)
    if zero is not None:
        raise NotInChartDomain(f"component {zero} of the map vanishes")
    scaled = [
        [Fraction(g * x.numerator, y.v * x.denominator) for g, x in zip(y.g, point)]
        for y in out
    ]
    return abs(ExactMatrix(scaled).det())
