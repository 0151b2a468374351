"""Berenstein-Zelevinsky transforms and Cartan twists, with an exact oracle.

The transform sends a chart matrix X(t) to the unipotent Gauss factor of
X(-t) * w0bar; the twist is the diagonal factor.  Closed forms exist for
all four families and are implemented generically over any scalar type
supporting field arithmetic (exact rationals, dual numbers, numpy
arrays).  The oracle computes the same data by building X(-t) * w0bar
exactly and running the LDU decomposition; closed form and oracle must
agree exactly, which is the backbone correctness check of the package.

No dense matrix product or inverse is formed.  The lifts w0bar (and the
lift of the embedded rank-(n-1) subgroup) are signed permutation
matrices: their (column -> row, sign) maps are derived once per family
and rank from `w0_lift`, so multiplying by a lift only moves and negates
entries, and the inverse of a lift is its transpose.  The inverse of a
first-string matrix prod exp(c * e_letter) is applied as the factors
exp(-c * e_letter) in reverse order.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import ExactMatrix, SingularLeadingMinor, lu_gauss_decompose, signed_permutation
from .charts import (
    LusztigChart,
    chart_to_matrix,
    extract_coordinates,
    monomial_weight,
)
from .roots import _eps, build_realization, build_root_system, w0_lift, w0_lift_embedded


class OutsideBigCell(ValueError):
    pass


class StructureViolation(AssertionError):
    pass


@dataclass
class BZResult:
    image_chart: LusztigChart
    twist: list  # independent diagonal entries: n for gl, T_1..T_n otherwise


# ---------------------------------------------------------------------------
# closed forms, generic over the scalar type


def _u_so_even(c, n, i, j):
    if i == j:
        return 1
    if j < n:
        return c[("m", i, j)] + c[("p", i, j)]
    return c[("m", i, n)] if _eps(n - i) == -1 else c[("p", i, n)]


def _u_plain(c, i, j):
    if i == j:
        return 1
    return c[("m", i, j)] + c[("p", i, j)]


def _s(c, i, j):
    return 1 if i == j else c[("p", i, j)]


def _t(c, i, j):
    return 1 if i == j else c[("m", i, j)]


def bz_map_coords(family: str, n: int, c: dict) -> dict:
    """Closed-form image coordinates of the transform, by family.

    Input and output are dicts keyed by root labels; works for exact
    scalars, dual numbers and numpy arrays alike.  The same formulas with
    image coordinates as input give the inverse map (the transform is an
    involution).
    """
    img = {}
    if family == "gl":
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                m = n + i + 1 - j
                v = 1 / c[("m", i, m)]
                for k in range(1, i):
                    v = v * c[("m", k, m - 1)] / c[("m", k, m)]
                img[("m", i, j)] = v
        return img

    for i in range(1, n):
        for j in range(i + 1, n + 1):
            if family == "so_even":
                u_prev, u_cur = _u_so_even(c, n, i, j - 1), _u_so_even(c, n, i, j)
            else:
                u_prev, u_cur = _u_plain(c, i, j - 1), _u_plain(c, i, j)
            r = u_prev / (u_cur * _s(c, i, j - 1))
            base = r
            for k in range(1, i):
                base = base * _t(c, k, j - 1) / _s(c, k, j - 1)
            if family == "so_even" and j == n:
                e = _eps(n - i)
                p = base
                q = base
                for k in range(1, i):
                    rat = c[("m", k, n)] / c[("p", k, n)]
                    p = p * (rat if e == 1 else 1 / rat)
                for k in range(1, i + 1):
                    rat = _s(c, k, n) / _t(c, k, n)
                    q = q * (rat if e == 1 else 1 / rat)
            else:
                p = base
                q = base
                for k in range(1, i):
                    p = p * c[("p", k, j)] / c[("m", k, j)]
                for k in range(1, i + 1):
                    q = q * _s(c, k, j) / _t(c, k, j)
            img[("m", i, j)] = p
            img[("p", i, j)] = q

    if family == "so_even":
        return img

    sq = 2 if family == "sp" else 1
    for i in range(1, n + 1):
        u = _u_plain(c, i, n)
        v = u**sq / (c[("s", i)] * _s(c, i, n) ** sq)
        for k in range(1, i):
            v = v * (c[("m", k, n)] / c[("p", k, n)]) ** sq
        img[("s", i)] = v
    return img


def bz_twist_coords(family: str, n: int, c: dict) -> list:
    """Closed-form independent twist entries T_1..T_n (T_i for gl)."""
    out = []
    if family == "gl":
        for i in range(1, n + 1):
            v = 1
            for j in range(i + 1, n + 1):
                v = v * c[("m", i, j)]
            for k in range(1, i):
                v = v / c[("m", k, i)]
            out.append(v)
        return out
    for k in range(1, n + 1):
        if family == "so_even":
            v = 1
        elif family == "so_odd":
            v = c[("s", k)] ** 2
        else:
            v = c[("s", k)]
        for j in range(1, k):
            v = v * c[("p", j, k)] / c[("m", j, k)]
        for j in range(k + 1, n + 1):
            v = v * c[("p", k, j)] * c[("m", k, j)]
        out.append(v)
    return out


def bz_closed_form(chart: LusztigChart) -> BZResult:
    rs = chart.root_system
    img = bz_map_coords(rs.family, rs.n, chart.coords)
    twist = bz_twist_coords(rs.family, rs.n, chart.coords)
    return BZResult(LusztigChart(rs, img), twist)


def bz_inverse(family: str, image_chart: LusztigChart) -> LusztigChart:
    """Closed-form inverse; same shape as the forward map (involution)."""
    rs = image_chart.root_system
    back = bz_map_coords(family, rs.n, image_chart.coords)
    return LusztigChart(rs, back)


# ---------------------------------------------------------------------------
# exact oracle via Gauss decomposition


@lru_cache(maxsize=None)
def _lift_perm(family: str, n: int, embedded: bool = False) -> tuple:
    """Signed permutation map of w0bar (or of the embedded lift w0bar')."""
    lift = w0_lift_embedded(family, n) if embedded else w0_lift(family, n)
    return signed_permutation(lift)


def bz_oracle(chart: LusztigChart) -> BZResult:
    """Ground truth: LDU of X(-t) * w0bar, coordinates peeled off the U factor.

    X(-t) * w0bar is X(-t) with its columns permuted and negated by the
    signed permutation map of w0bar; no product is formed.
    """
    rs = chart.root_system
    m = chart_to_matrix(chart, negate=True)
    g = m.permute_columns(_lift_perm(rs.family, rs.n))
    try:
        dec = lu_gauss_decompose(g)
    except SingularLeadingMinor as exc:
        raise OutsideBigCell(str(exc)) from exc
    image = extract_coordinates(dec.upper, rs)
    diag = dec.diag_entries()
    family, n = rs.family, rs.n
    if family == "gl":
        return BZResult(image, diag)
    size = rs.matrix_size
    for k in range(n):
        if diag[size - 1 - k] * diag[k] != 1:
            raise StructureViolation(
                f"twist diagonal not hat-reciprocal at position {k + 1}"
            )
    if family == "so_odd" and diag[n] != 1:
        raise StructureViolation("middle twist entry differs from 1")
    return BZResult(image, diag[:n])


# ---------------------------------------------------------------------------
# first-string matrices and the block-diagonalization diagnostic


def _string1_word(rs):
    """(letter, label) pairs of the last simple-root string, in product order."""
    return [(letter, label) for letter, label in rs.word if label[1] == 1]


def string1_matrix(chart: LusztigChart, negate: bool = False) -> ExactMatrix:
    """Product of the one-parameter factors of the last simple-root string."""
    rs = chart.root_system
    real = build_realization(rs.family, rs.n)
    m = ExactMatrix.identity(real.matrix_size)
    for letter, label in _string1_word(rs):
        cval = chart.coords[label]
        if negate:
            cval = -cval
        m.apply_right_sparse(real.exp_terms(letter, cval))
    return m


def _times_string1_inverse(m: ExactMatrix, chart: LusztigChart) -> None:
    """In-place M <- M * string1_matrix(chart)^{-1}, as the factors
    exp(-c * e_letter) of the first string in reverse order."""
    rs = chart.root_system
    real = build_realization(rs.family, rs.n)
    for letter, label in reversed(_string1_word(rs)):
        m.apply_right_sparse(real.exp_terms(letter, -chart.coords[label]))


def u_matrix_check(chart: LusztigChart) -> dict:
    """Exact structure check of U = w0bar'^{-1} A(-t) w0bar A(p)^{-1}.

    A is the first-string factor, w0bar' the longest-element lift of the
    embedded rank-(n-1) subgroup.  U must be diagonal away from the first
    column (and, outside gl, the last row), with explicit diagonal
    entries built from the first-string coordinates.  Returns the
    diagnostic report; raises StructureViolation on any failed entry.

    Both lifts act as signed permutations (the inverse of w0bar' is its
    transpose), and A(p)^{-1} is applied as exp(-p * e_letter) over the
    first string in reverse order, so U is built without a dense product
    or a matrix inverse.
    """
    rs = chart.root_system
    family, n = rs.family, rs.n
    image = bz_closed_form(chart).image_chart
    u = (
        string1_matrix(chart, negate=True)
        .permute_columns(_lift_perm(family, n))
        .permute_rows(_lift_perm(family, n, embedded=True))
    )
    _times_string1_inverse(u, image)
    size = rs.matrix_size
    c = chart.coords
    expected = {}
    if family == "gl":
        top = Fraction(1)
        for j in range(2, n + 1):
            top *= c[("m", 1, j)]
        expected[(1, 1)] = top
        for i in range(2, n + 1):
            expected[(i, i)] = 1 / c[("m", 1, i)]
        free = {(i, 1) for i in range(2, n + 1)}
    else:
        top = c[("s", 1)] ** 2 if family == "so_odd" else Fraction(1)
        if family == "sp":
            top = c[("s", 1)]
        for j in range(2, n + 1):
            top *= c[("m", 1, j)] * c[("p", 1, j)]
        expected[(1, 1)] = top
        for k in range(2, n + 1):
            expected[(k, k)] = c[("p", 1, k)] / c[("m", 1, k)]
            expected[(size + 1 - k, size + 1 - k)] = c[("m", 1, k)] / c[("p", 1, k)]
        if family == "so_odd":
            expected[(n + 1, n + 1)] = Fraction(1)
        free = {(i, 1) for i in range(2, size + 1)}
        free |= {(size, j) for j in range(1, size + 1)}
        free.add((size, size))
    report = {"family": family, "n": n, "entries": {}, "ok": True}
    for i in range(1, size + 1):
        for j in range(1, size + 1):
            v = u[i - 1, j - 1]
            if (i, j) in expected:
                want = expected[(i, j)]
                if v != want:
                    raise StructureViolation(
                        f"U[{i},{j}] = {v!r}, expected {want!r}"
                    )
                report["entries"][f"U[{i},{j}]"] = str(want)
            elif i != j and (i, j) not in free:
                if v != 0:
                    raise StructureViolation(f"U[{i},{j}] = {v!r}, expected 0")
    return report


# ---------------------------------------------------------------------------
# Whittaker vector values on the positive cone


def right_whittaker_value(chart: LusztigChart) -> float:
    """exp(-sum of chart coordinates); chart-independent by the sum invariance."""
    import math

    return math.exp(-sum(float(v) for v in chart.coords.values()))


def left_whittaker_value(chart: LusztigChart, nu, form: str = "t") -> float:
    """Left vector value t^nu * exp(-sum of image coordinates).

    `form` chooses between the equivalent monomial presentations: "t"
    evaluates t^nu on the input chart, "p" evaluates p^(-nu) on the image
    chart; both must agree.
    """
    import math

    rs = chart.root_system
    image = bz_closed_form(chart).image_chart
    if form == "t":
        mono = monomial_weight(chart, nu)
    elif form == "p":
        mono = 1 / monomial_weight(image, nu)
    else:
        raise ValueError("form must be 't' or 'p'")
    return float(mono) * math.exp(-sum(float(v) for v in image.coords.values()))


# ---------------------------------------------------------------------------
# seeded random charts


def random_positive_chart(family: str, n: int, rng: random.Random) -> LusztigChart:
    """Random chart with coordinates p/q, p and q uniform integers in [1, 100].

    Bounded numerators keep exact-arithmetic bit sizes manageable across
    large verification sweeps.
    """
    rs = build_root_system(family, n)
    coords = {
        r: Fraction(rng.randint(1, 100), rng.randint(1, 100))
        for r in rs.positive_roots
    }
    return LusztigChart(rs, coords)
