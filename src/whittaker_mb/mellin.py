"""Gamma-product Mellin data for the Whittaker wave functions.

Everything "symbolic" here is a table of rational coefficients: a
Gamma-factor argument is an affine form in the contour variables with a
separate rational coefficient per i*lambda_k and a rational constant.
The module builds, per family and rank:

* the Mellin transforms of the right and left Whittaker vectors,
* the Cartan flow exponent (the multiplier picked up by the right
  vector's Mellin transform under the torus action),
* the final Mellin-Barnes integrand of the wave function, in the
  telescoped variables, together with its contour constraint set,
* the split of that integrand into outer Mellin variables (one per
  torus direction) and inner Barnes variables, which expresses the
  Mellin transform of the wave function itself,
* the closed three-Gamma integral identity and the rank-three
  Gamma-product (Bump) formula that the split reduces to.

The integrand and the split depend only on the family and rank: each is
an immutable value (frozen, with tuple fields), built once per process by
its cached builder, and the split holds its inner integrand as a field.
Code that needs a changed integrand makes one with dataclasses.replace.

Contour variables are keyed ('g', i, j), ('d', i, j) and ('g1', k),
matching the t/s/t_k chart coordinates; outer Mellin variables are
keyed ('s', j).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction

from .roots import _eps, build_root_system, cartan_scaling_exponent


class DomainViolation(ValueError):
    pass


def _var_name(v) -> str:
    return "_".join(str(p) for p in v)


def _var_from_name(s: str):
    parts = s.split("_")
    return (parts[0],) + tuple(int(p) for p in parts[1:])


class AffineForm:
    """Affine form  sum_v a_v gamma_v + i sum_k b_k lambda_k + c  with rational data."""

    __slots__ = ("gamma", "ilam", "const")

    def __init__(self, gamma=None, ilam=None, const=0):
        self.gamma = {k: Fraction(v) for k, v in (gamma or {}).items() if v != 0}
        self.ilam = {k: Fraction(v) for k, v in (ilam or {}).items() if v != 0}
        self.const = Fraction(const)

    @classmethod
    def var(cls, v, coef=1):
        return cls({v: coef})

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = AffineForm(const=other)
        g = dict(self.gamma)
        for k, v in other.gamma.items():
            g[k] = g.get(k, Fraction(0)) + v
        l = dict(self.ilam)
        for k, v in other.ilam.items():
            l[k] = l.get(k, Fraction(0)) + v
        return AffineForm(g, l, self.const + other.const)

    __radd__ = __add__

    def __neg__(self):
        return AffineForm(
            {k: -v for k, v in self.gamma.items()},
            {k: -v for k, v in self.ilam.items()},
            -self.const,
        )

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = AffineForm(const=other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "AffineForm":
        c = Fraction(c)
        return AffineForm(
            {k: c * v for k, v in self.gamma.items()},
            {k: c * v for k, v in self.ilam.items()},
            c * self.const,
        )

    def conj_flip(self) -> "AffineForm":
        """f(gamma) -> conj(f(-conj(gamma))) at real lambda: negate all
        gamma and i*lambda coefficients, keep the constant."""
        return AffineForm(
            {k: -v for k, v in self.gamma.items()},
            {k: -v for k, v in self.ilam.items()},
            self.const,
        )

    def subs(self, mapping) -> "AffineForm":
        """Substitute variables by affine forms (absent keys stay put)."""
        out = AffineForm(ilam=self.ilam, const=self.const)
        for k, v in self.gamma.items():
            if k in mapping:
                out = out + mapping[k].scale(v)
            else:
                out = out + AffineForm({k: v})
        return out

    def eval(self, values, lam=()) -> complex:
        """Numeric value given per-variable complex values and real lambda."""
        acc = complex(self.const)
        for k, v in self.gamma.items():
            acc += float(v) * values[k]
        for k, v in self.ilam.items():
            acc += 1j * float(v) * lam[k - 1]
        return acc

    def is_zero(self) -> bool:
        return not self.gamma and not self.ilam and self.const == 0

    def key(self):
        return (
            tuple(sorted(self.gamma.items())),
            tuple(sorted(self.ilam.items())),
            self.const,
        )

    def __eq__(self, other):
        return isinstance(other, AffineForm) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        parts = []
        for k, v in sorted(self.gamma.items()):
            parts.append(f"{v}*{_var_name(k)}")
        for k, v in sorted(self.ilam.items()):
            parts.append(f"{v}*i*lam{k}")
        if self.const or not parts:
            parts.append(str(self.const))
        return " + ".join(parts)

    def to_json(self):
        return {
            "gamma": {_var_name(k): str(v) for k, v in sorted(self.gamma.items())},
            "ilam": {str(k): str(v) for k, v in sorted(self.ilam.items())},
            "const": str(self.const),
        }

    @classmethod
    def from_json(cls, d):
        return cls(
            {_var_from_name(k): Fraction(v) for k, v in d["gamma"].items()},
            {int(k): Fraction(v) for k, v in d["ilam"].items()},
            Fraction(d["const"]),
        )


def _zero() -> AffineForm:
    return AffineForm()


class _VarTable:
    """Zero-convention access to indexed variables: out-of-range labels
    evaluate to the zero form."""

    def __init__(self, n: int, singles: bool):
        self.n = n
        self.singles = singles

    def g(self, i, j):
        if 1 <= i < j <= self.n:
            return AffineForm.var(("g", i, j))
        return _zero()

    def d(self, i, j):
        if 1 <= i < j <= self.n:
            return AffineForm.var(("d", i, j))
        return _zero()

    def g1(self, k):
        if self.singles and 1 <= k <= self.n:
            return AffineForm.var(("g1", k))
        return _zero()


def variables_of(family: str, n: int):
    """Ordered contour variables of the wave-function integrand."""
    out = []
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            out.append(("g", i, j))
    if family != "gl":
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                out.append(("d", i, j))
    if family in ("so_odd", "sp"):
        for k in range(1, n + 1):
            out.append(("g1", k))
    return out


# ---------------------------------------------------------------------------
# Mellin transforms of the Whittaker vectors


def right_vector_mellin(family: str, n: int):
    """One plain Gamma factor per chart coordinate: the transform of
    exp(-sum t_gamma) is the product of Gamma(gamma_v)."""
    return [AffineForm.var(v) for v in variables_of(family, n)]


def phi_psi_theta(family: str, n: int):
    """Exponent forms of the left vector after passing to image coordinates.

    Returns (phi, psi, theta, phi_single): phi/psi/theta keyed by pairs
    (i, j) with i < j <= n, phi_single keyed by k for the single-index
    image coordinates (so_odd and sp only).
    """
    v = _VarTable(n, family in ("so_odd", "sp"))
    phi, psi, theta, phi_single = {}, {}, {}, {}
    if family == "gl":
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                f = _zero()
                for k in range(i, n + 1):
                    f = f + v.g(k, k + n + 1 - j)
                for k in range(i + 1, n + 1):
                    f = f - v.g(k, k + n - j)
                phi[(i, j)] = f
        return phi, psi, theta, phi_single

    for i in range(1, n):
        for j in range(i + 1, n):
            tail = _zero()
            for k in range(i + 1, n):
                tail = tail + v.g(k, j + 1) + v.d(k, j + 1) - v.g(k, j) - v.d(k, j)
            phi[(i, j)] = -v.d(i, j) + tail
            psi[(i, j)] = v.d(i, j) - tail - v.g(i, j + 1) - v.d(i, j + 1)
            theta[(i, j)] = -v.d(i, j) - v.g(i, j) + v.d(i, j + 1) + v.g(i, j + 1)

    if family == "so_even":
        for i in range(1, n):
            alt = _zero()
            for k in range(1, n - i):
                sgn = -1 if k % 2 else 1
                alt = alt + (v.g(i + k, n) - v.d(i + k, n)).scale(sgn)
            if _eps(n - i) == 1:
                phi[(i, n)] = -v.d(i, n) + alt
                psi[(i, n)] = -v.g(i, n) - alt
            else:
                phi[(i, n)] = -v.g(i, n) - alt
                psi[(i, n)] = -v.d(i, n) + alt
            theta[(i, n)] = _zero()
        return phi, psi, theta, phi_single

    w = 2 if family == "sp" else 1
    for i in range(1, n):
        tail = _zero()
        for k in range(i + 1, n):
            tail = tail + v.g(k, n) + v.d(k, n) - v.g1(k).scale(w)
        tail = tail - v.g1(n).scale(w)
        phi[(i, n)] = -v.d(i, n) - tail
        psi[(i, n)] = v.d(i, n) - v.g1(i).scale(w) + tail
        theta[(i, n)] = v.g1(i).scale(w) - v.d(i, n) - v.g(i, n)
    for k in range(1, n + 1):
        phi_single[k] = -v.g1(k)
    return phi, psi, theta, phi_single


def _lam(k, coef=1) -> AffineForm:
    """Shifted weight slot nu'_k, stored as the coefficient of i*lambda_k."""
    return AffineForm(ilam={k: coef})


def left_vector_mellin(family: str, n: int):
    """Gamma-argument lists (numerators, denominators) of the left vector's
    Mellin transform, in the unitary parametrization nu' = i*lambda."""
    v = _VarTable(n, family in ("so_odd", "sp"))
    phi, psi, _, phi_single = phi_psi_theta(family, n)
    num, den = [], []
    if family == "gl":
        for (i, j), f in sorted(phi.items()):
            num.append(-f + _lam(j) - _lam(i))
        return num, den
    if family == "so_even":
        for i in range(1, n - 1):
            num.append(-v.g(i, i + 1) - v.d(i, i + 1) - _lam(i, 2))
            den.append(-v.g(i, n) - v.d(i, n) - _lam(i, 2))
    elif family == "so_odd":
        num.append(-v.g1(n) - _lam(n, 2))
        for i in range(1, n):
            num.append(-v.g(i, i + 1) - v.d(i, i + 1) - _lam(i, 2))
    else:
        num.append(-v.g1(n) - _lam(n))
        for i in range(1, n):
            num.append(-v.g(i, i + 1) - v.d(i, i + 1) - _lam(i, 2))
            num.append(-v.g1(i) - _lam(i))
            den.append(-v.g1(i).scale(2) - _lam(i, 2))
    for (i, j) in sorted(phi):
        num.append(phi[(i, j)] - _lam(i) + _lam(j))
        num.append(psi[(i, j)] - _lam(i) - _lam(j))
    return num, den


def cartan_exponent(family: str, n: int):
    """x-coefficient rows of the multiplier exp(H(x, gamma)) produced by the
    torus action on the right vector's Mellin transform.

    The row of a variable is minus the scaling exponent of its chart
    coordinate, so the map is derived from the same source as the cone
    route's coordinate scaling.
    """
    rows = {}
    for var in variables_of(family, n):
        kind = var[0]
        if kind == "g":
            label = ("m", var[1], var[2])
        elif kind == "d":
            label = ("p", var[1], var[2])
        else:
            label = ("s", var[1])
        row = cartan_scaling_exponent(family, n, label)
        rows[var] = [-c for c in row]
    return rows


# ---------------------------------------------------------------------------
# the wave-function integrand in telescoped variables


@dataclass(frozen=True, eq=False)
class MBIntegrand:
    family: str
    n: int
    variables: tuple
    num: tuple
    den: tuple
    exponent: dict  # var -> x-coefficient row (tuple of length n)
    constraints: tuple = ()

    @property
    def dimension(self) -> int:
        return len(self.variables)

    def to_json(self):
        return {
            "family": self.family,
            "n": self.n,
            "variables": [_var_name(v) for v in self.variables],
            "num": [f.to_json() for f in self.num],
            "den": [f.to_json() for f in self.den],
            "exponent": {
                _var_name(v): [str(c) for c in row]
                for v, row in sorted(self.exponent.items())
                if any(c != 0 for c in row)
            },
            "constraints": [f.to_json() for f in self.constraints],
        }

    @classmethod
    def from_json(cls, d):
        variables = tuple(_var_from_name(s) for s in d["variables"])
        exponent = {v: (Fraction(0),) * d["n"] for v in variables}
        for k, row in d["exponent"].items():
            exponent[_var_from_name(k)] = tuple(Fraction(c) for c in row)
        return cls(
            d["family"],
            d["n"],
            variables,
            tuple(AffineForm.from_json(f) for f in d["num"]),
            tuple(AffineForm.from_json(f) for f in d["den"]),
            exponent,
            tuple(AffineForm.from_json(f) for f in d["constraints"]),
        )

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=1, sort_keys=True)


def _xi_eta(family: str, n: int, v: _VarTable):
    """Mixed-argument forms of the telescoped integrand."""
    xi, eta = {}, {}
    for i in range(1, n):
        for j in range(i + 1, n):
            xi[(i, j)] = -v.g(i + 1, j + 1) - v.d(i + 1, j + 1) + v.g(i + 1, j) + v.d(i, j)
            eta[(i, j)] = v.g(i, j + 1) + v.d(i, j + 1) - v.g(i + 1, j) - v.d(i, j)
        if family == "so_even":
            xi[(i, n)] = v.g(i, n) - v.d(i + 1, n)
            eta[(i, n)] = v.d(i, n) - v.g(i + 1, n)
        else:
            w = 2 if family == "sp" else 1
            xi[(i, n)] = v.g(i + 1, n) + v.d(i, n) - v.g1(i + 1).scale(w)
            eta[(i, n)] = -v.g(i + 1, n) - v.d(i, n) + v.g1(i).scale(w)
    return xi, eta


def _constraints(num, variables) -> tuple:
    """Contour constraints Re f > 0: the distinct variable part, with its
    constant, of each numerator argument that involves one of `variables`
    (in numerator order)."""
    out = []
    for f in num:
        if any(v in variables for v in f.gamma):
            cf = AffineForm(f.gamma, const=f.const)
            if cf not in out:
                out.append(cf)
    return tuple(out)


@functools.cache
def assemble_mb_integrand(family: str, n: int) -> MBIntegrand:
    """The wave-function integrand: Gamma-argument lists, torus exponent
    and contour constraints, in the telescoped contour variables.

    The wave function is  e^{-i(x,lambda)} (2 pi i)^{-d} times the
    integral of exp(H(x,gamma)) prod Gamma(num) / prod Gamma(den) over
    the shifted imaginary plane.

    Built once per (family, n) and process: every call returns the same
    immutable integrand.
    """
    rs = build_root_system(family, n)
    v = _VarTable(n, family in ("so_odd", "sp"))
    num, den = [], []
    exponent = {var: [Fraction(0)] * n for var in variables_of(family, n)}

    if family == "gl":
        for k in range(1, n):
            for l in range(k + 1, n + 1):
                num.append(v.g(k, l) - v.g(k + 1, l) + _lam(k) - _lam(n + k - l + 1))
                num.append(v.g(k, l) - v.g(k + 1, l + 1))
        for m in range(2, n + 1):
            row = exponent[("g", 1, m)]
            row[n + 2 - m - 1] += 1
            row[n + 1 - m - 1] -= 1
    else:
        xi, eta = _xi_eta(family, n, v)
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                num.append(xi[(i, j)] + _lam(i) - _lam(j))
                num.append(eta[(i, j)] + _lam(i) + _lam(j))
                num.append(v.g(i, j) - v.g(i + 1, j))
                num.append(v.d(i, j) - v.d(i + 1, j))
        if family == "so_even":
            for k in range(1, n - 1):
                num.append(v.g(k, k + 1) + v.d(k, k + 1) + _lam(k, 2))
                den.append(
                    v.g(k, n) + v.d(k, n) - v.g(k + 1, n) - v.d(k + 1, n) + _lam(k, 2)
                )
        else:
            for k in range(1, n):
                num.append(v.g(k, k + 1) + v.d(k, k + 1) + _lam(k, 2))
            if family == "so_odd":
                num.append(v.g1(n) + _lam(n, 2))
                for k in range(1, n + 1):
                    num.append(v.g1(k) - v.g1(k + 1))
            else:
                for k in range(1, n + 1):
                    num.append(v.g1(k) - v.g1(k + 1) + _lam(k))
                    num.append(v.g1(k) - v.g1(k + 1))
                for k in range(1, n):
                    den.append(v.g1(k).scale(2) - v.g1(k + 1).scale(2) + _lam(k, 2))
        for j in range(2, n + 1):
            for var in (("g", 1, j), ("d", 1, j)):
                row = exponent[var]
                if family == "so_even" and j == n:
                    if var[0] == "g":
                        row[n - 1] += 1
                        row[n - 2] -= 1
                    else:
                        row[n - 1] -= 1
                        row[n - 2] -= 1
                else:
                    row[j - 1] += 1
                    row[j - 2] -= 1
        if family == "so_odd":
            exponent[("g1", 1)][n - 1] -= 1
        elif family == "sp":
            exponent[("g1", 1)][n - 1] -= 2

    num = tuple(f for f in num if not (f.gamma == {} and f.ilam == {}))
    variables = tuple(variables_of(family, n))
    assert len(variables) == rs.d
    # then each variable's own form, Re g > 0, where no numerator gave it
    constraints = _constraints(num + tuple(map(AffineForm.var, variables)), variables)
    exponent = {var: tuple(row) for var, row in exponent.items()}
    return MBIntegrand(family, n, variables, num, tuple(den), exponent, constraints)


def tilde_substitution(family: str, n: int):
    """Original contour variables expressed in the telescoped ones."""
    v = _VarTable(n, family in ("so_odd", "sp"))
    sub = {}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            if family == "gl":
                sub[("g", i, j)] = v.g(i, j) - v.g(i + 1, j + 1)
                continue
            if family == "so_even" and j == n:
                if _eps(n - i) == 1:
                    sub[("g", i, n)] = v.d(i, n) - v.d(i + 1, n)
                    sub[("d", i, n)] = v.g(i, n) - v.g(i + 1, n)
                else:
                    sub[("g", i, n)] = v.g(i, n) - v.g(i + 1, n)
                    sub[("d", i, n)] = v.d(i, n) - v.d(i + 1, n)
                continue
            sub[("g", i, j)] = v.g(i, j) - v.g(i + 1, j)
            sub[("d", i, j)] = v.d(i, j) - v.d(i + 1, j)
    if family in ("so_odd", "sp"):
        for k in range(1, n + 1):
            sub[("g1", k)] = v.g1(k) - v.g1(k + 1)
    return sub


def assemble_from_vectors(family: str, n: int) -> MBIntegrand:
    """Independent route to the same integrand: pair the two vector
    transforms through the Plancherel formula, then telescope.

    Numerators are the right-vector Gammas plus the conjugate-flipped
    left-vector Gammas; the exponent map is the torus multiplier.  Must
    equal assemble_mb_integrand up to ordering (tested, not assumed).
    """
    lnum, lden = left_vector_mellin(family, n)
    num = right_vector_mellin(family, n) + [f.conj_flip() for f in lnum]
    den = [f.conj_flip() for f in lden]
    sub = tilde_substitution(family, n)
    num = [f.subs(sub) for f in num]
    den = [f.subs(sub) for f in den]
    rows = cartan_exponent(family, n)
    exponent = {var: [Fraction(0)] * n for var in variables_of(family, n)}
    for var, row in rows.items():
        expanded = sub[var]
        for w, coef in expanded.gamma.items():
            tgt = exponent[w]
            for k in range(n):
                tgt[k] += coef * row[k]
    num = tuple(f for f in num if not (f.gamma == {} and f.ilam == {}))
    exponent = {var: tuple(row) for var, row in exponent.items()}
    return MBIntegrand(family, n, tuple(variables_of(family, n)), num, tuple(den), exponent)


# ---------------------------------------------------------------------------
# outer/inner split: the Mellin transform of the wave function


@dataclass(frozen=True)
class MellinSplit:
    """Wave function as an iterated inverse Mellin transform.

    Psi(x) = phase(x, lambda) * (2 pi i)^{-N} Int prod_j z_j^{-s_j} M(s) ds,
    M(s) = jacobian * (2 pi i)^{-(d-N)} Int prod Gamma(num)/prod Gamma(den)
    over the inner variables, with the outer symbols ('s', j) held fixed:
    `inner` is that integrand, its constraints those of the inner
    variables.
    """

    family: str
    n: int
    outer_vars: tuple  # ('s', j)
    shifts: tuple  # AffineForm (pure ilam): s_j = (contour combination) + i c_j
    z_rows: tuple  # log z_j as x-coefficient rows
    jacobian: Fraction
    residual_row: tuple | None  # extra phase exp(-i (res_lam . lambda)(res_row . x))
    residual_lam: tuple | None
    inner: MBIntegrand

    def phase(self, x, lam) -> complex:
        import math

        if self.residual_row is None:
            return 1.0 + 0j
        a = sum(float(c) * xi for c, xi in zip(self.residual_row, x))
        b = sum(float(c) * li for c, li in zip(self.residual_lam, lam))
        return complex(math.cos(a * b), -math.sin(a * b))


def _solve_exact(a_rows, rhs):
    """Solve the square exact linear system A x = rhs over Fractions."""
    n = len(a_rows)
    m = [list(map(Fraction, row)) + [Fraction(r)] for row, r in zip(a_rows, rhs)]
    for k in range(n):
        piv = next(i for i in range(k, n) if m[i][k] != 0)
        m[k], m[piv] = m[piv], m[k]
        p = m[k][k]
        m[k] = [v / p for v in m[k]]
        for i in range(n):
            if i != k and m[i][k] != 0:
                f = m[i][k]
                m[i] = [vi - f * vk for vi, vk in zip(m[i], m[k])]
    return [m[i][n] for i in range(n)]


@functools.cache
def mellin_of_whittaker(family: str, n: int) -> MellinSplit:
    """Split the wave-function integrand into outer Mellin variables tied to
    the torus directions and inner Barnes variables.

    Built once per (family, n) and process, like assemble_mb_integrand:
    every call returns the same immutable split.
    """
    mb = assemble_mb_integrand(family, n)
    z_rows = []
    for k in range(1, n):
        row = [Fraction(0)] * n
        row[k - 1], row[k] = Fraction(1), Fraction(-1)
        z_rows.append(row)
    if family == "gl":
        basis = z_rows + [[Fraction(1)] * n]  # determinant direction
    else:
        row = [Fraction(0)] * n
        if family == "so_even":
            row[n - 2] = Fraction(1)
        row[n - 1] = Fraction(1)
        z_rows.append(row)
        basis = z_rows
    nb, n_outer = len(basis), len(z_rows)
    bt = [[basis[j][k] for j in range(nb)] for k in range(nb)]

    # outer combinations G_j: H = sum_j G_j (z_row_j . x)
    outer_combo = [AffineForm() for _ in range(nb)]
    for var, row in mb.exponent.items():
        if all(c == 0 for c in row):
            continue
        q = _solve_exact(bt, [row[k] if k < n else Fraction(0) for k in range(nb)])
        for j in range(nb):
            if q[j] != 0:
                outer_combo[j] = outer_combo[j] + AffineForm({var: q[j]})

    # lambda shifts: lambda . x = sum_j c_j(lambda) (z_row_j . x) (+ residual)
    shifts = [AffineForm() for _ in z_rows]
    residual_lam = None
    for k in range(1, n + 1):
        rhs = [Fraction(1) if m == k - 1 else Fraction(0) for m in range(nb)]
        sol = _solve_exact(bt, rhs)
        for j in range(n_outer):
            if sol[j] != 0:
                shifts[j] = shifts[j] + AffineForm(ilam={k: sol[j]})
        if family == "gl" and sol[nb - 1] != 0:
            if residual_lam is None:
                residual_lam = [Fraction(0)] * n
            residual_lam[k - 1] = sol[nb - 1]
    residual_row = (Fraction(1),) * n if family == "gl" else None
    outer_combo = outer_combo[:n_outer]

    # pivots: solve each G_j for one contour variable in terms of s_j
    mapping = {}
    jac = Fraction(1)
    for j in range(n_outer):
        combo = outer_combo[j]
        if not combo.gamma:
            raise DomainViolation(f"torus direction {j + 1} carries no variable")
        pivot = sorted(combo.gamma, key=lambda v: (v[0] != "g", v))[0]
        cp = combo.gamma[pivot]
        # s_j = -G_j + i c_j  =>  pivot = (-s_j + i c_j - rest)/cp
        rest = AffineForm({k: v for k, v in combo.gamma.items() if k != pivot})
        expr = (AffineForm.var(("s", j + 1), -1) + shifts[j] - rest).scale(
            Fraction(1) / cp
        )
        mapping[pivot] = expr
        jac *= abs(Fraction(1) / cp)
    inner_variables = tuple(v for v in mb.variables if v not in mapping)
    num = tuple(f.subs(mapping) for f in mb.num)
    den = tuple(f.subs(mapping) for f in mb.den)
    return MellinSplit(
        family,
        n,
        tuple(("s", j + 1) for j in range(n_outer)),
        tuple(shifts),
        tuple(map(tuple, z_rows)),
        jac,
        residual_row,
        None if residual_lam is None else tuple(residual_lam),
        MBIntegrand(family, n, inner_variables, num, den, {}, _constraints(num, inner_variables)),
    )


# ---------------------------------------------------------------------------
# closed Gamma-product values


def int_identity(a, b, c) -> complex:
    """Value of the two-variable cone integral with a mixed-sum power:
    Gamma(a) Gamma(b) Gamma(a+b+c) / Gamma(a+b)."""
    a, b, c = complex(a), complex(b), complex(c)
    if a.real <= 0 or b.real <= 0 or (a + b + c).real <= 0:
        raise DomainViolation("need Re a > 0, Re b > 0, Re(a+b+c) > 0")
    import numpy as np

    from .gammafn import log_gamma_complex

    return complex(
        np.exp(
            log_gamma_complex(a)
            + log_gamma_complex(b)
            + log_gamma_complex(a + b + c)
            - log_gamma_complex(a + b)
        )
    )


def bump_gl3(lam, s1, s2) -> complex:
    """Rank-three Gamma-product Mellin transform (Bump's formula)."""
    import numpy as np

    from .gammafn import log_gamma_complex

    if len(lam) != 3:
        raise DomainViolation("rank-three formula needs three spectral values")
    mean = sum(lam) / 3.0
    big = [l - mean for l in lam]
    acc = -log_gamma_complex(complex(s1) + complex(s2))
    for L in big:
        acc += log_gamma_complex(complex(s1) - 1j * L)
        acc += log_gamma_complex(complex(s2) + 1j * L)
    return complex(np.exp(acc))
