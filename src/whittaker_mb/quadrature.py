"""Numerical evaluation: contour feasibility, Mellin-Barnes quadrature,
positive-cone quadrature, and the first Barnes lemma check.

One Mellin-Barnes engine (_integrate) integrates every Gamma-product
integrand over the shifted imaginary plane with a tensor trapezoid
rule: the wave function (eval_mb), its Mellin transform at fixed outer
variables (eval_mellin_transform) and the first Barnes lemma check
(barnes_first_lemma_quad) are thin front ends that each hand it an
MBIntegrand.  It plans the contour (plan_contour), contracts the sum,
estimates the error and refines, in the one attempt loop (_attempts)
that serves the cone route too: the budget, the tol test, the check
that a sum stayed in floating-point range and NotConverged are the
same for both.  Gamma decay makes the trapezoid
rule converge geometrically (Trefethen and Weideman, SIAM Rev. 56, 2014);
per-axis truncation comes from the Gamma-decay envelope (spectral
shifts and the imaginary parts of fixed symbols translate the profile,
so they add to the truncation), and the error estimate extrapolates
three dyadic grid levels, never below the rounding level of the terms,
and adds the boundary-shell mass.  Without a torus weight, an attempt
that meets tol must meet the strip bound of the same theorem as well
(_strip_bound).

The contour's base point comes from one LP per constraint structure: the
largest minimum slack up to a cap and, at that slack, the smallest L1
norm, as one objective whose weight on the norm is too small to trade
any slack.  Its rows depend only on the constraint forms, the variables
and the names of the fixed symbols, so they are built once per process
for each such structure, and a call computes only the right-hand side
from the real parts of the fixed symbols.  An active set that was optimal
with positive multipliers stays optimal wherever its vertex is feasible,
so the LP tries the structure's stored sets and calls scipy's HiGHS
(imported on first use) only when none is feasible.  The sets HiGHS finds
for the eval_mb structures and the Mellin splits of one to four inner
variables ship in _lp_seeds, so eval and 200 gl 3, sp 2 or so_odd 2
Mellin transforms at s in [0.4, 2]^n need no HiGHS solve at all; gl 4
and so_even 3, whose optimum is a face at some s, call it on 20 to 40%
of them.  Every point is solved again from a canonical choice of its
tight rows, so the base point depends only on the structure and the real
parts of s, whatever ran before.

The tensor sum is never formed as a dense grid.  Each Gamma factor
depends on a few contour variables, so the factors sharing a support of
two or more axes make one table, those on one axis fold into that axis'
weight vector, and the sum contracts the tables with the weight vectors
along a greedy numpy.einsum_path plan (the greedy order of opt_einsum,
Smith and Gray, JOSS 3, 2018).  Paths are planned once per support
structure: the path of a contraction depends only on the supports of
its operands and the axes it keeps, planned with a nominal length on
every grid axis and cached.  The coarser grid levels contract the same
tables sliced.  One selector contraction of the moduli, with each
axis' weight as [w, w * ends] columns, gives the mass and the
boundary-shell mass of every axis at once.  Both routes lay their sums
out this way, shared tables plus one operand per axis (_axis_plans),
and run them through one helper (_strided_sums).  Before any table is
built, the plan's flop count and its largest table or intermediate,
counted with the true axis lengths, are held against MAX_FLOPS and
MAX_ENTRIES, and a plan over them raises DimensionTooLarge.  Both
routes do this from the panel counts, before any node vector is built.

Every axis of the contour grid has the same step, and the coefficients
of the contour variables in a factor are small integers (or rationals),
so the factor's argument on the grid takes only the values of one line
of lattice points: log Gamma runs once on that line, and the table is
gathered from it by an integer index table.  When all the factors of a
table share one lattice direction, exp runs on the line too.

The positive-cone sum is a contraction as well: each image coordinate
in its exponent S depends on a few log coordinates and its phase is
linear, so exp(-S - i phase) is a product of small tables and per-axis
vectors.  Each axis' vector is that axis' own operand, as [Re, Im]
columns of its phase in the sums and as [w, w * ends] columns in the
selector, so the tables stay real.  Each attempt sums on its grid and
on the grids of every second and fourth node, and estimates its error
by the rule of the contour engine; the selector gives its mass and
face masses.  Its first box already reaches beyond
the box where S has risen by log(10/tol) + 6, and only an attempt that
misses tol contracts the mass on every grid hyperplane, to which the
box of the next attempt is trimmed.  The cone route is limited to
dimension 4.  Contractions follow a path fixed by the structure and the
panel counts, whatever ran before, so results are reproducible bit for
bit at fixed panel counts.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import _lp_seeds
from .bz import bz_map_coords
from .gammafn import PoleHit, log_gamma_array, log_gamma_complex
from .mellin import AffineForm, MBIntegrand, MellinSplit
from .roots import Weight, build_root_system, cartan_scaling_exponent, coroot_pairing

__all__ = [
    "ContourSpec",
    "QuadResult",
    "Infeasible",
    "DimensionTooLarge",
    "NotConverged",
    "PoleHit",
    "log_gamma_complex",
    "log_gamma_array",
    "contour_base_point",
    "plan_contour",
    "eval_mb",
    "eval_mellin_transform",
    "eval_cone",
    "barnes_first_lemma_quad",
]


class Infeasible(ValueError):
    pass


class DimensionTooLarge(ValueError):
    pass


class NotConverged(ArithmeticError):
    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


@dataclass
class ContourSpec:
    """Contour grid of a Mellin-Barnes sum: axis k runs over the nodes
    base_point[k] + i step j, |j| <= (panels[k] - 1) / 2, whose reach
    covers the half-width truncation[k].  One step serves every axis, so
    the argument of each Gamma factor runs over one line of points."""

    base_point: list  # real shift per axis
    truncation: list  # per-axis half-width T_j
    panels: list  # per-axis node counts
    step: float  # grid step shared by every axis

    @property
    def total_nodes(self) -> int:
        out = 1
        for p in self.panels:
            out *= p
        return out


@dataclass
class QuadResult:
    value: complex
    est_error: float
    evaluations: int
    wall_time: float
    converged: bool = True


# ---------------------------------------------------------------------------
# contour feasibility


def constraint_slacks(constraints, point, fixed=None):
    out = []
    for f in constraints:
        acc = float(f.const)
        for v, a in f.gamma.items():
            if fixed and v in fixed:
                acc += float(a) * complex(fixed[v]).real
            else:
                acc += float(a) * point[v]
        out.append(acc)
    return out


# The slack a base point needs on every constraint, and the slack above
# which the LP stops seeking more.
_MARGIN = 0.125
_CAP = 1.0
# Weight of the L1 norm against the slack in the LP's objective: small
# enough that the optimal slack is the largest one (a test checks it on
# every shipped structure).
_NORM_WEIGHT = 1e-3
# Active-set reuse: a stored set's vertex is accepted when no row is violated
# by more than _FEASIBLE (1 + |h_i|), a row is tight where its slack is at
# most _TIGHT (1 + |h_i|), and a set is stored when all its multipliers
# exceed _TIGHT.
_FEASIBLE = 1e-12
_TIGHT = 1e-9


def contour_base_point(constraints, variables=None, fixed=None):
    """Strictly feasible real base point for Re(form) > 0 constraints.

    One LP gives the point whose minimum slack is largest, up to _CAP
    (large real shifts inflate the Gamma factors), and among those the
    one of smallest L1 norm (_BasePointLP).  Raises Infeasible when that
    slack falls below _MARGIN.

    The LP's rows depend only on the constraint forms, the variables and
    the names of the fixed symbols, so they are built once per process
    for each such structure (_lp_model); a call only computes the
    right-hand side from the real parts of `fixed`.  The LP starts from
    the optimal active sets shipped for its rows (_lp_seeds) and reuses
    the ones it finds; HiGHS runs only where none is feasible.  Every
    point is solved again from a canonical choice of its tight rows, so
    the base point depends only on the structure and the real parts of
    `fixed`, never on the calls before it or on the seeds.  Every call
    returns a new dict.
    """
    if variables is None:
        seen = []
        for f in constraints:
            for v in f.gamma:
                if (fixed is None or v not in fixed) and v not in seen:
                    seen.append(v)
        variables = seen
    names = tuple(sorted(fixed or ()))
    model = _lp_model(tuple(constraints), tuple(variables), names)
    point = model([complex(fixed[v]).real for v in names])
    return dict(zip(variables, point))


class _BasePointLP:
    """The LP of contour_base_point for one constraint structure; calling
    it with the real parts of the fixed symbols (in the order of
    `fixed_names`) gives the base point as a tuple in the order of
    `variables`.

    In z = (x, t, delta) it minimizes _NORM_WEIGHT sum t - delta over
    G z <= h, whose rows say a_i . x + c_i >= delta for each constraint,
    |x_k| <= t_k, |x_k| <= bound and delta <= _CAP.  Only the c_i part of
    h changes between calls.  An active set S (as many independent rows
    of G as unknowns) whose multipliers -G_S^-T cost are all positive was
    optimal once, and its vertex G_S^-1 h_S is then the unique optimum for
    every h that makes it feasible (Bertsimas and Tsitsiklis, Introduction
    to Linear Optimization, 1997, section 5.1).  The LP starts from the
    sets that _lp_seeds lists under the digest of its rows and cost, each
    checked again here (_basis), so a seed that does not fit is dropped
    and costs at most a HiGHS call.  A call tries the stored sets, then
    HiGHS, storing the set of its optimum when that is unique.  Either way
    the result is the vertex of the canonical active set of the point's
    tight rows (the first independent ones in row order), so its bits do
    not depend on which sets were stored before.
    """

    def __init__(self, constraints, variables, fixed_names):
        d, m = len(variables), len(constraints)
        idx = {v: k for k, v in enumerate(variables)}
        pos = {v: k for k, v in enumerate(fixed_names)}
        self.d = d
        # per constraint: its constant and its (position, coefficient) on fixed symbols
        self.rhs_terms = []
        a = np.zeros((m, d))
        for i, f in enumerate(constraints):
            terms = []
            for v, c in f.gamma.items():
                if v in pos:
                    terms.append((pos[v], float(c)))
                elif v in idx:
                    a[i, idx[v]] = float(c)
            self.rhs_terms.append((float(f.const), terms))
        eye, zero, col = np.eye(d), np.zeros((d, d)), np.zeros((d, 1))
        self.g = np.block([
            [-a, np.zeros((m, d)), np.ones((m, 1))],
            [eye, -eye, col],
            [-eye, -eye, col],
            [eye, zero, col],
            [-eye, zero, col],
            [np.zeros((1, 2 * d)), np.ones((1, 1))],
        ])
        bound = max(10.0, 4.0 * d)
        self.h = np.concatenate((np.zeros(m + 2 * d), np.full(2 * d, bound), [_CAP]))
        self.cost = np.concatenate((np.zeros(d), np.full(d, _NORM_WEIGHT), [-1.0]))
        self.digest = hashlib.sha256(
            self.g.astype("<f8").tobytes() + self.cost.astype("<f8").tobytes()
        ).hexdigest()[:16]
        self.bases = {}  # tight rows -> (rows, G_S^-1, positive) or None
        self.stored = []  # (rows, G_S^-1) of optimal sets with positive multipliers
        for seed in _lp_seeds.SEEDS.get(self.digest, ()):
            basis = self._basis(seed)
            if basis is not None and basis[2] and tuple(basis[0].tolist()) == seed:
                self.stored.append(basis[:2])

    def __call__(self, fixed_re):
        h = self.h.copy()
        for i, (c, terms) in enumerate(self.rhs_terms):
            for k, a in terms:
                c += a * fixed_re[k]
            h[i] = c
        if self.d == 0:
            if self.rhs_terms and h[: len(self.rhs_terms)].min() < _MARGIN:
                raise Infeasible("constant constraints violated")
            return ()
        z = self._optimum(h)
        delta = float(z[-1])
        if delta < _MARGIN:
            raise Infeasible(f"best margin {delta:.4g} below requested {_MARGIN:.4g}")
        return tuple(float(v) for v in z[: self.d])

    def _optimum(self, h):
        scale = 1.0 + np.abs(h)
        for rows, inv in self.stored:
            z = inv @ h[rows]
            slack = h - self.g @ z
            if (slack >= -_FEASIBLE * scale).all():
                return self._canonical(z, h, slack, scale)[0]
        from scipy.optimize import linprog

        res = linprog(self.cost, A_ub=self.g, b_ub=h, bounds=(None, None), method="highs")
        if not res.success:
            raise Infeasible(f"base-point LP failed: {res.message}")
        z, basis = self._canonical(res.x, h, h - self.g @ res.x, scale)
        if basis is not None and basis[2]:
            if not any(np.array_equal(basis[0], r) for r, _ in self.stored):
                self.stored.append(basis[:2])
        return z

    def _canonical(self, z, h, slack, scale):
        """The vertex of the canonical active set of z's tight rows, and
        that set; z itself and None where fewer than n tight rows are
        independent."""
        tight = tuple(np.flatnonzero(slack <= _TIGHT * scale).tolist())
        if tight not in self.bases:
            self.bases[tight] = self._basis(tight)
        basis = self.bases[tight]
        if basis is None:
            return z, None
        return basis[1] @ h[basis[0]], basis

    def _basis(self, tight):
        n = len(self.cost)
        rows = []
        for i in tight:
            if np.linalg.matrix_rank(self.g[rows + [i]]) > len(rows):
                rows.append(i)
                if len(rows) == n:
                    break
        if len(rows) < n:
            return None
        rows = np.array(rows)
        inv = np.linalg.inv(self.g[rows])
        return rows, inv, bool((inv.T @ self.cost < -_TIGHT).all())


# The LP model of one constraint structure, built once per process.
_lp_model = functools.lru_cache(maxsize=64)(_BasePointLP)


# ---------------------------------------------------------------------------
# tensor trapezoid engine for Gamma-product contour integrals

# Budget of one contour sum: the flops of its contraction plans and the
# entries of its largest table or intermediate (16 bytes each).  A refinement
# attempt over budget is not run.
MAX_FLOPS = 2e10
MAX_ENTRIES = 2**22
# Relative accuracy of log_gamma_array, and so of each term of a contour
# sum: an extrapolated error below it times the sum of the moduli of the
# terms is rounding noise, not a measurement.
_ROUNDING = 1e-14
_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _axis_rates(num, den, variables):
    rates = []
    for v in variables:
        r = 0.0
        for f in num:
            r += abs(float(f.gamma.get(v, 0)))
        for f in den:
            r -= abs(float(f.gamma.get(v, 0)))
        rates.append(0.5 * math.pi * r)
    return rates


def _form_offset(f, lam, fixed):
    acc = complex(f.const)
    for k, b in f.ilam.items():
        acc += 1j * float(b) * lam[k - 1]
    if fixed:
        for v, a in f.gamma.items():
            if v in fixed:
                acc += float(a) * complex(fixed[v])
    return acc


def _shaped(arr, axis, ndim):
    """View of the 1-D `arr` along `axis` of an `ndim`-dimensional grid."""
    shape = [1] * ndim
    shape[axis] = arr.size
    return arr.reshape(shape)


# Contraction paths are planned with this length on every axis longer than
# two, so one path serves every grid of a support structure; the column
# axes of the selector and of the cone's [Re, Im] phases keep their length 2.
_NOMINAL_SIZE = 32


@functools.lru_cache(maxsize=256)
def _greedy_path(subs, shapes, limit):
    """numpy's greedy einsum_path for the einsum `subs` on operands of the
    given `shapes`, with at most `limit` entries per intermediate."""
    operands = [np.broadcast_to(0.0, shape) for shape in shapes]
    return tuple(np.einsum_path(subs, *operands, optimize=("greedy", limit))[0])


def _plan(supports, sizes, output=()):
    """Greedy pairwise order (numpy.einsum_path) for contracting operands
    that run over the axis tuples `supports`, keeping the axes `output`.

    The path is planned once per support structure, with every axis longer
    than two at _NOMINAL_SIZE, and cached; its flops and largest entry are
    counted with the true `sizes`.  Returns the einsum subscripts, the
    path, its flop count and the entry count of its largest operand or
    intermediate.
    """
    subs = ",".join("".join(_LETTERS[a] for a in s) for s in supports)
    subs += "->" + "".join(_LETTERS[a] for a in output)
    shapes = tuple(tuple(_NOMINAL_SIZE if sizes[a] > 2 else sizes[a] for a in s) for s in supports)
    path = _greedy_path(subs, shapes, MAX_ENTRIES)
    live = [set(s) for s in supports]
    flops = 0.0
    largest = max(math.prod(sizes[a] for a in s) for s in supports)
    for step in path[1:]:
        picked = [live.pop(i) for i in sorted(step, reverse=True)]
        union = set().union(*picked)
        kept = union & set(output).union(*live)
        flops += math.prod(sizes[a] for a in union) * len(picked)
        largest = max(largest, math.prod(sizes[a] for a in kept))
        live.append(kept)
    return subs, path, flops, largest


def _budgeted_plans(what, jobs):
    """_plan for each (supports, sizes, output) of `jobs`.  Raises
    DimensionTooLarge when their flops, or the largest entry of one,
    counted with the true sizes, are over the budget."""
    plans = [_plan(*job) for job in jobs]
    flops = sum(p[2] for p in plans)
    largest = max(p[3] for p in plans)
    if flops > MAX_FLOPS or largest > MAX_ENTRIES:
        raise DimensionTooLarge(
            f"{what} contraction of {flops:.2g} flops with {largest:.2g}-entry "
            "tables exceeds the budget"
        )
    return plans


def _axis_plans(what, shared, sizes, outputs):
    """_budgeted_plans of contracting the tables over the supports `shared`
    with one operand per axis k of a grid of sizes[k] nodes, one plan per
    entry of `outputs`: for None, a pair of columns on axes k and d + k,
    which are kept (the selector, the cone's [Re, Im] phases); for a
    tuple of grid axes, a vector on axis k, and those axes are kept."""
    d = len(sizes)
    columns = (shared + [(k, d + k) for k in range(d)], [*sizes] + [2] * d, tuple(range(d, 2 * d)))
    vectors = shared + [(k,) for k in range(d)]
    return _budgeted_plans(
        what, [columns if out is None else (vectors, sizes, out) for out in outputs]
    )


def _support_lines(forms, support, variables, base, lam, fixed, halves, step):
    """log Gamma of the (sign, f) in `forms`, all on the axes `support`, on
    their grid: one (line, index) pair per direction, the grid table of a
    direction being line[index] and the support's log table their sum.

    On the grid z_k = base_k + i step j_k, |j_k| <= halves[k], the argument
    of f is c0 + i step q m: the coefficients of f are the rational q
    times a primitive integer vector p whose first entry is positive, and
    m = sum_k p_k j_k is an integer.  So log Gamma runs once per factor on
    the line of every m between the extremes, the lines of the factors
    with the same p are summed, and each sum is placed on the grid by one
    integer index table.  PoleHit is raised when the argument at a node is
    a pole, never for a line point that no node reaches.
    """
    lines, indices = {}, {}

    def index(p):
        # position m + reach on the line of each node, summed axis by axis
        if p not in indices:
            idx = 0
            for pos, (b, k) in enumerate(zip(p, support)):
                j = np.arange(-halves[k], halves[k] + 1)
                idx = idx + _shaped(b * j + abs(b) * halves[k], pos, len(support))
            indices[p] = idx
        return indices[p]

    for sign, f in forms:
        coefs = [f.gamma[variables[k]] for k in support]
        lcm = math.lcm(*(a.denominator for a in coefs))
        ints = [int(a * lcm) for a in coefs]
        g = math.gcd(*ints) if ints[0] > 0 else -math.gcd(*ints)
        p = tuple(b // g for b in ints)
        c0 = _form_offset(f, lam, fixed)
        for a, k in zip(coefs, support):
            c0 += float(a) * base[variables[k]]
        reach = sum(abs(b) * halves[k] for b, k in zip(p, support))
        line = c0 + 1j * (step * g / lcm) * np.arange(-reach, reach + 1)
        try:
            values = log_gamma_array(line)
        except PoleHit:
            reached = np.zeros(line.size, dtype=bool)
            reached[index(p)] = True
            values = np.zeros(line.size, dtype=complex)
            values[reached] = log_gamma_array(line[reached])
        lines[p] = lines.get(p, 0.0) + sign * values
    return [(values, index(p)) for p, values in lines.items()]


def _support_tables(lines):
    """The table exp(log) and its moduli exp(Re log) of a support whose log
    table is the sum of line[index] over the (line, index) pairs `lines`.
    With one direction, exp runs on the line and both are gathered from
    it, which gives the same bits as exp of the gathered table."""
    if len(lines) == 1:
        ((line, idx),) = lines
        return np.exp(line)[idx], np.exp(line.real)[idx]
    log = lines[0][0][lines[0][1]]
    for line, idx in lines[1:]:
        log = log + line[idx]
    return np.exp(log), np.exp(log.real)


def _face_columns(weight):
    """The [w, w * ends] columns of the axis weight w: contracted in place
    of w, column 0 keeps the whole axis and column 1 only its two end
    nodes."""
    cols = np.zeros((weight.size, 2))
    cols[:, 0] = weight
    cols[0, 1], cols[-1, 1] = weight[0], weight[-1]
    return cols


def _strided_sums(plans, tables, axis_ops, moduli, selectors):
    """The contractions of a tensor trapezoid sum along the `plans` of
    _axis_plans: `tables` with one operand per axis (`axis_ops`) on the
    grid and, sliced, on its grids of every second and fourth node; and
    `moduli` with the [w, w * ends] `selectors` (_face_columns).  Returns
    the three sums, the mass and the per-axis face masses."""
    (subs, path, *_), (sel_subs, sel_path, *_) = plans
    sums = []
    for stride in (1, 2, 4):
        sliced = [t[(slice(None, None, stride),) * t.ndim] for t in tables]
        sums.append(np.einsum(subs, *sliced, *(op[::stride] for op in axis_ops), optimize=path))
    # the selector's (2,) * d output: the mass at 0, axis k's face mass at the k-th unit vector
    selected = np.einsum(sel_subs, *moduli, *selectors, optimize=sel_path)
    d = selected.ndim
    faces = [float(selected[tuple(int(j == k) for j in range(d))]) for k in range(d)]
    return sums, float(selected[(0,) * d]), faces


def _extrapolated(fine, coarse, coarse4, mass):
    """Discretization error of the sum `fine` on a grid of step h, from the
    sums `coarse` and `coarse4` on its grids of every second and fourth
    node: geometric-convergence extrapolation from the three dyadic
    levels, err(h) ~ err(2h) * [err(2h)/err(4h)], capped by the raw
    difference and never below the rounding level of the terms,
    _ROUNDING times `mass`, the sum of their moduli."""
    disc2 = abs(fine - coarse)
    disc4 = abs(fine - coarse4)
    if disc4 > disc2 > 0:
        return max(min(disc2, 4.0 * disc2 * disc2 / disc4), _ROUNDING * mass)
    return disc2


def _contour_sum(num, den, variables, base, lam, hx, halves, fixed=None, *, step):
    """Trapezoid sum of prod Gamma(num)/prod Gamma(den) * exp(sum z_v hx_v)
    over the tensor grid z_k = base_k + i step j, |j| <= halves[k],
    contracted factor by factor.

    Each factor's table is gathered from its log Gamma on one line
    (_support_lines).  Factors that share a support of two or more axes
    make one table, exp'd on the line when they all share one direction
    and on the gathered log table otherwise; those on one axis are added
    to the log of that axis' weight vector exp(z_k hx_k) before exp, and
    each weight vector is its axis' own operand, the layout _cone_sum
    shares (_axis_plans, _strided_sums).  The sums on the grids of every
    second and every fourth node contract the same operands sliced.  One
    more contraction takes the moduli with each weight vector's moduli w
    as [w, w * ends] columns (_face_columns): it gives the mass and the
    mass on each axis' pair of boundary faces.
    Returns (fine, coarse, coarse4, face_abs, n_evals, mass), n_evals
    being the node count of the dense grid and mass the sum of the
    moduli of all terms.  Raises DimensionTooLarge, before any node vector
    is built, when the plans exceed the budget.
    """
    d = len(variables)
    axes = {v: k for k, v in enumerate(variables)}
    const = 0j
    groups = {}
    for sign, forms in ((1.0, num), (-1.0, den)):
        for f in forms:
            support = tuple(sorted(axes[v] for v in f.gamma if v in axes))
            if support:
                groups.setdefault(support, []).append((sign, f))
            else:
                const += sign * complex(log_gamma_array(_form_offset(f, lam, fixed)))
    if d == 0:
        val = complex(np.exp(const))
        return val, val, val, [0.0], 1, abs(val)

    sizes = [2 * m + 1 for m in halves]
    shared = [s for s in groups if len(s) > 1]
    plans = _axis_plans("contour", shared, sizes, [(), None])

    nodes = [np.arange(-m, m + 1) * step for m in halves]
    grid = (variables, base, lam, fixed, halves, step)
    tables, moduli = [], []
    for s in shared:
        table, modulus = _support_tables(_support_lines(groups[s], s, *grid))
        tables.append(table)
        moduli.append(modulus)
    weights, selectors = [], []
    for k, v in enumerate(variables):
        weight = (base[v] + 1j * nodes[k]) * hx.get(v, 0.0)
        if (k,) in groups:
            ((line, idx),) = _support_lines(groups[(k,)], (k,), *grid)
            weight = weight + line[idx]
        weights.append(np.exp(weight))
        selectors.append(_face_columns(np.exp(weight.real)))

    scale = complex(np.exp(const)) * step**d
    sums, mass, faces = _strided_sums(plans, tables, weights, moduli, selectors)
    fine, coarse, coarse4 = (complex(s) * stride**d * scale for s, stride in zip(sums, (1, 2, 4)))
    face_abs = [face * abs(scale) for face in faces]
    return fine, coarse, coarse4, face_abs, math.prod(sizes), mass * abs(scale)


def _torus_slopes(integrand: MBIntegrand, x):
    """Coefficient hx_v of each variable in the torus weight exp(sum z_v hx_v)."""
    if x is None:
        return {}
    rows = integrand.exponent
    return {
        v: sum(float(c) * xi for c, xi in zip(rows[v], x))
        for v in integrand.variables
        if rows.get(v)
    }


def plan_contour(integrand: MBIntegrand, lam, tol, x=None, base=None, fixed=None) -> ContourSpec:
    """Choose shifts, truncations, the common step and panel counts for
    the integrand.

    The step comes from the strip width and the torus phase; each axis
    would take ceil(T_k / h) nodes a side at it, rounded up to even, and
    the finest of the resulting per-axis steps is the one step of every
    axis (_common_step), so that every Gamma factor's argument runs over
    one line.  `fixed` holds the complex values of symbols that are not
    integrated; their imaginary parts shift the decay profile like the
    spectral parameters do.  Raises DimensionTooLarge where one axis alone
    is over the contraction budget (_half_panels).
    """
    variables = integrand.variables
    if base is None:
        base = contour_base_point(integrand.constraints, variables=variables, fixed=fixed)
    rates = _axis_rates(integrand.num, integrand.den, variables)
    if any(r <= 0 for r in rates):
        raise NotConverged("integrand does not decay along some contour axis")
    slack = min(constraint_slacks(integrand.constraints, base, fixed), default=1.0)
    lt = math.log(10.0 / tol)
    lammax = max((abs(l) for l in lam), default=0.0)
    smax = max((abs(complex(v).imag) for v in (fixed or {}).values()), default=0.0)
    # spectral shifts translate the Gamma decay profile, so they add to
    # the truncation instead of scaling with the decay rate
    ts = [1.3 * (lt + 6.0) / r + 1.0 + 2.2 * (lammax + smax) for r in rates]
    hx_mag = max((abs(v) for v in _torus_slopes(integrand, x).values()), default=0.0)
    # Aliasing error decays double-exponentially in 1/h for these
    # integrands (the conjugate function is exponential-type), so the
    # step is set by a fixed budget plus the oscillation of the torus
    # phase; the coarse/fine comparison of _integrate guards the choice.
    strip = min(max(slack * 0.8, 0.05), 1.0)
    lbud = 11.0 + 0.8 * max(0.0, math.log10(1.0 / tol) - 6.0)
    h = 2.0 * math.pi * strip / (lbud + strip * hx_mag)
    h = min(0.3, max(0.02, h))
    step, panels = _common_step(h, ts)
    return ContourSpec([base[v] for v in variables], ts, panels, step)


def _half_panels(t, h):
    """Nodes on each side of the centre for half-width t at step h: ceil(t / h),
    rounded up to even so that the grids of every second and fourth node
    end on the faces.  Raises DimensionTooLarge where the axis would take
    more than MAX_ENTRIES nodes: every contraction has its weight vector
    as an operand, so no plan of such a grid is within the budget."""
    m = t / h
    if not 2.0 * m + 1.0 <= MAX_ENTRIES:  # NaN too
        raise DimensionTooLarge(
            f"a grid axis of {2.0 * m + 1.0:.3g} nodes exceeds the budget of {MAX_ENTRIES} entries"
        )
    m = int(math.ceil(m))
    return m + m % 2


def _common_step(h, truncation):
    """The grid step shared by every axis, and each axis' panel count.

    With its own step, axis k would take m_k = _half_panels(T_k, h) nodes
    a side, at step T_k / m_k; the common step is the smallest of these,
    so no axis is coarser, and each axis then takes enough nodes to reach
    T_k at that step, so none is shorter.  Where every axis had the same
    step, nothing changes.
    """
    step = min((t / _half_panels(t, h) for t in truncation), default=h)
    # the slack keeps the rounding of t / (t / m) from adding two nodes
    return step, [2 * _half_panels(t, step * (1.0 + 1e-12)) + 1 for t in truncation]


@np.errstate(over="ignore", invalid="ignore")  # out-of-range sums end typed in _attempts
def _integrate(
    integrand: MBIntegrand, lam, tol, scale, attempts, x=None, fixed=None, base=None, phase=1.0
):
    """phase * scale * Int prod Gamma(num)/prod Gamma(den) exp(sum z_v hx_v) dy
    over the shifted imaginary plane, on up to `attempts` grids (_attempts),
    each the _refine_spec of the last.  The real `scale` multiplies the
    error estimate too, the unit-modulus `phase` only the value.

    Without a torus weight (x None: a Mellin transform, the Barnes lemma)
    an attempt whose estimate meets tol is held to the strip bound as
    well (_strip_bound).  The three-level estimate can miss there: the
    base point sits about as far from the pole lines on either side,
    whose aliases can cancel on the grid of every second node and not on
    the grid itself, and the extrapolation then trusts the cancelled
    level.
    With a torus weight the bound is loose and not used: on sp 2 evals it
    reads 20 to 400 times the tolerance their honest estimates met, and
    eval_mb is checked against the cone route.
    """
    t0 = time.perf_counter()
    variables = integrand.variables
    spec = plan_contour(integrand, lam, tol, x=x, base=base, fixed=fixed)
    base = dict(zip(variables, spec.base_point))
    rates = _axis_rates(integrand.num, integrand.den, variables)
    hx = _torus_slopes(integrand, x)

    def attempt(spec):
        h = spec.step
        halves = [p // 2 for p in spec.panels]
        fine, coarse, coarse4, face_abs, evals, mass = _contour_sum(
            integrand.num, integrand.den, variables, base, lam, hx, halves, fixed, step=h
        )
        tail = 0.0
        for k in range(len(variables)):
            tail += 3.0 * face_abs[k] / max(rates[k] * h, 1e-9) * h
        err = scale * (_extrapolated(fine, coarse, coarse4, mass) + tail)
        if x is None and err <= tol * abs(scale * fine):
            err = max(err, abs(scale) * _strip_bound(integrand, base, lam, halves, fixed, h))
        return phase * scale * fine, err, evals, lambda: _refine_spec(spec)

    return _attempts(attempt, spec, attempts, tol, t0, "estimated error {err:.3g} above tolerance")


# Share of the distance to the nearest pole line by which _strip_bound
# shifts the contour, and the shift on a side without one.
_STRIP_SHARE = 0.9
_STRIP_FREE = 2.0


def _strip_bound(integrand: MBIntegrand, base, lam, halves, fixed, step):
    """Bound on the discretization error of the trapezoid sum at `step`,
    with halves[k] (even) nodes a side on axis k, of a Gamma-product
    integrand without torus weight (Trefethen and Weideman, SIAM Rev. 56,
    2014, Thm 5.1, one side at a time).

    On each axis and side, the contour may move by the distance a to the
    nearest pole line with the other axes held (_STRIP_FREE where no
    constraint limits that side); moved by _STRIP_SHARE a, the integrand
    has the mass M, and the aliases from that side are at most
    M / (exp(2 pi a / step) - 1).  M is summed on the grid of every
    second node, which the estimate already uses, so a bound costs 2^-d
    of an attempt's table per axis and side.
    """
    variables = integrand.variables
    slacks = constraint_slacks(integrand.constraints, base, fixed)
    coarse = [m // 2 for m in halves]
    total = 0.0
    for v in variables:
        for side in (1.0, -1.0):
            reach = _STRIP_FREE
            for f, slack in zip(integrand.constraints, slacks):
                c = side * float(f.gamma.get(v, 0))
                if c < 0:
                    reach = min(reach, slack / -c)
            a = _STRIP_SHARE * reach
            moved = dict(base)
            moved[v] += side * a
            mass = _contour_sum(
                integrand.num, integrand.den, variables, moved, lam, {}, coarse, fixed, step=2 * step
            )[5]
            total += mass / math.expm1(2.0 * math.pi * a / step)
    return total


def _attempts(attempt, grid, tries, tol, t0, message):
    """Up to `tries` attempts of a tensor trapezoid route (_integrate,
    eval_cone), the first on `grid`: the loop of both routes.

    attempt(grid) sums on one grid and returns (value, err, evals,
    refine); refine() gives the next grid and is called only when another
    attempt follows.  The first attempt with err <= tol |value|, or with
    value exactly 0, is the result.  A first attempt over the contraction
    budget raises DimensionTooLarge; a later one, or a refine() over it,
    ends the attempts.  So does an attempt whose sums leave the floating-
    point range: its value or err is not finite, or its arithmetic raises
    OverflowError (which abs() of a complex NaN can raise as well).  If
    none meets tol, NotConverged carries the last finite result, or None
    where there is none, and `message` formatted with its err.
    evaluations sums over the finite attempts, and wall_time runs from t0
    to the end of the attempt.
    """
    evals_total, last = 0, None
    for k in range(tries):
        try:
            if k:
                grid = refine()
            value, err, evals, refine = attempt(grid)
            finite = math.isfinite(abs(value)) and math.isfinite(err)
        except DimensionTooLarge:
            if k == 0:
                raise
            break  # keep the last result
        except OverflowError:
            finite = False
        if not finite:
            message = f"attempt {k + 1} summed out of floating-point range"
            break
        evals_total += evals
        if err <= tol * max(abs(value), 1e-300) or value == 0:
            return QuadResult(value, err, evals_total, time.perf_counter() - t0)
        last = QuadResult(value, err, evals_total, time.perf_counter() - t0, converged=False)
    if last is None:  # the first attempt left the range
        raise NotConverged(message, None)
    raise NotConverged(message.format(err=last.est_error), last)


def _refine_spec(spec: ContourSpec) -> ContourSpec:
    """Push the truncation out by 2 and shrink the step by 0.7 (_common_step)."""
    trunc = [t + 2.0 for t in spec.truncation]
    step, panels = _common_step(0.7 * spec.step, trunc)
    return ContourSpec(spec.base_point, trunc, panels, step)


def eval_mb(
    integrand: MBIntegrand,
    x,
    lam,
    tol: float = 1e-6,
    base_point=None,
    max_refine: int = 2,
) -> QuadResult:
    """Wave-function value by Mellin-Barnes contour quadrature.

    Includes the e^{-i(lambda, x)} prefactor and the (2 pi i)^{-d}
    normalization.  `base_point` overrides the feasibility shift (used by
    the contour-independence checks); must satisfy the constraint set.
    Raises DimensionTooLarge for d > 4; the budget rules are _attempts'.
    """
    d = integrand.dimension
    if d > 4:
        raise DimensionTooLarge(f"tensor quadrature limited to d <= 4, got {d}")
    base = None
    if base_point is not None:
        pairs = base_point if isinstance(base_point, dict) else zip(integrand.variables, base_point)
        base = dict(pairs)
        if min(constraint_slacks(integrand.constraints, base)) <= 0:
            raise Infeasible("provided base point violates the constraint set")
    pref = complex(math.cos(-_dotf(lam, x)), math.sin(-_dotf(lam, x)))
    return _integrate(
        integrand, lam, tol, (2.0 * math.pi) ** (-d), max_refine + 1, x=x, base=base, phase=pref
    )


def _dotf(a, b):
    return sum(float(u) * float(v) for u, v in zip(a, b))


# ---------------------------------------------------------------------------
# Mellin transform of the wave function: integrate the inner variables


def eval_mellin_transform(split: MellinSplit, s_values, lam, tol: float = 1e-7) -> QuadResult:
    """Value of M(s) at fixed outer Mellin variables.

    The inner integral runs through the eval_mb engine with the outer
    symbols held fixed: Infeasible when no inner contour separates the
    poles at this s, PoleHit when a Gamma factor free of inner variables
    sits on a pole, and the contraction budget of _attempts.
    """
    fixed = {("s", j + 1): complex(s_values[j]) for j in range(len(split.outer_vars))}
    scale = (2.0 * math.pi) ** (-split.inner.dimension) * float(split.jacobian)
    return _integrate(split.inner, lam, tol, scale, 4, fixed=fixed)


# ---------------------------------------------------------------------------
# positive-cone quadrature of the defining matrix element


def _cone_phase_coeffs(family, n, lam):
    mu = Weight(enumerate(lam, 1))
    return {
        label: float(coroot_pairing(mu, label, family))
        for label in build_root_system(family, n).positive_roots
    }


def _cone_exponent(family, n, x):
    rs = build_root_system(family, n)
    out = {}
    for label in rs.positive_roots:
        row = cartan_scaling_exponent(family, n, label)
        try:
            out[label] = math.exp(sum(float(c) * xi for c, xi in zip(row, x)))
        except OverflowError:  # the cone sums then leave the range (_attempts)
            out[label] = math.inf
    return out


def _cone_action(family, n, coords, efac):
    """The re-exponent S(u) = sum of image coordinates + sum t_gamma E_gamma."""
    s = 0.0
    for val in bz_map_coords(family, n, coords).values():
        s = s + val
    for label, val in coords.items():
        s = s + val * efac[label]
    return s


# Box search of the cone's tensor rule: the probe values of each log
# coordinate around the minimum of S, and the step and reach of the march
# out of it.  Each attempt's box reaches _WIDEN beyond the march box per
# side, and widens by _WIDEN more when its faces carry mass.  Trimming:
# after an attempt passes the face check but misses tol, each end of each
# axis may drop hyperplanes carrying up to TRIM_SHARE * tol * |value| /
# (2 d) of mass before the next, finer attempt.
_PROBE = np.linspace(-4.0, 3.0, 8)
_MARCH_STEP = 0.5
_MARCH_REACH = 80.0
_WIDEN = 1.5
TRIM_SHARE = 0.01


@np.errstate(over="ignore", invalid="ignore")  # out-of-range sums end typed in _attempts
def eval_cone(
    family: str,
    n: int,
    lam,
    x,
    tol: float = 1e-6,
) -> QuadResult:
    """Wave-function value as the positive-cone pairing of the two vectors.

    In logarithmic coordinates u = log t the integrand is
    exp(-S(u) - i phase(u)) with S the sum of image and rescaled chart
    coordinates and phase(u) linear.  _cone_box finds a box around the
    minimum of S outside which S has risen by log(10/tol) + 6 along
    every sign-pattern direction; the first attempt runs on that box
    widened by _WIDEN per side.  A tensor trapezoid rule sums the
    integrand over the box as a contraction of small tables (see
    _cone_sum), whose axes take a multiple of 4 panels, so that the sums
    on the grids of every second and fourth node, from the same tables,
    cover the same box.  The route is limited to d <= 4: beyond that
    DimensionTooLarge is raised before any work.

    Each attempt is checked first: if the mass on the boundary faces
    exceeds 0.1 tol |value|, the next attempt runs on the box widened by
    _WIDEN per side at the same step, and this attempt's est_error is
    |value| plus the face and trimmed mass.  An attempt that passes is
    estimated on its own, by the rule of the Mellin-Barnes engine
    (_extrapolated on the sums at strides 1, 2 and 4), plus the face mass
    and the mass trimmed off so far.  If that misses tol, the next
    attempt, whose step is 0.65 times shorter, runs on the box trimmed to
    the mass this attempt measured: from each end of each axis,
    hyperplanes go while their cumulative mass stays within TRIM_SHARE
    tol |value| / (2 d), and the innermost of them stays as the new face
    (_cone_trim).  At most five attempts run, in the loop and under the
    budget of the Mellin-Barnes engine (_attempts).
    """
    t0 = time.perf_counter()
    rs = build_root_system(family, n)
    labels = list(rs.positive_roots)
    d = len(labels)
    if d > 4:
        raise DimensionTooLarge(f"cone quadrature limited to d <= 4, got {d}")
    efac = _cone_exponent(family, n, x)
    phase = _cone_phase_coeffs(family, n, lam)
    lt = math.log(10.0 / tol) + 6.0
    s_center, bounds = _cone_box(family, n, labels, efac, lt)
    bounds = [(lo - _WIDEN, hi + _WIDEN) for lo, hi in bounds]

    pref = complex(math.cos(-_dotf(lam, x)), math.sin(-_dotf(lam, x)))
    nu_mag = max((abs(v) for v in phase.values()), default=0.0)
    h = min(0.34, 2.0 * math.pi / (12.0 + 2.0 * nu_mag))
    scale = math.exp(-s_center)

    def attempt(grid):
        bounds, h, dropped = grid
        # a multiple of 4 panels: the grids of every 2nd and 4th node end on both faces
        panels = [2 * _half_panels((hi - lo) / 2, h) for lo, hi in bounds]
        layout = _cone_layout(family, n, labels, [m + 1 for m in panels])
        nodes = [np.linspace(lo, lo + m * h, m + 1) for (lo, _), m in zip(bounds, panels)]
        fine, coarse, coarse4, faces, evals, mass, marginals = _cone_sum(
            family, n, labels, efac, phase, nodes, s_center, layout
        )
        value = pref * fine * scale
        face = sum(faces) * scale
        if face > 0.1 * tol * abs(value):
            # boundary carries mass: the value itself is the bound; widen the box
            widened = [(lo - _WIDEN, hi + _WIDEN) for lo, hi in bounds]
            return value, abs(value) + face + dropped, evals, lambda: (widened, h, dropped)

        def trim():
            kept, cut = _cone_trim(nodes, marginals(), TRIM_SHARE * tol * abs(fine) / (2 * d))
            return kept, h * 0.65, dropped + cut * scale

        err = _extrapolated(fine, coarse, coarse4, mass) * scale + face + dropped
        return value, err, evals, trim

    message = "cone quadrature not converged (err {err:.3g})"
    return _attempts(attempt, (bounds, h, 0.0), 5, tol, t0, message)


def _cone_box(family, n, labels, efac, lt):
    """S at its approximate minimum, and the per-axis bounds of the box
    outside which S exceeds that minimum by `lt`.

    Two sweeps over the axes move each coordinate of the centre to the
    first minimum of S over the _PROBE values, evaluated as one (8, d)
    array per axis.  Then every nonzero sign pattern in {-1, 0, 1}^d
    marches out of the centre in _MARCH_STEP steps until S has risen by
    `lt`, or up to _MARCH_REACH; all directions still marching at a step
    are one array.  The reach of every direction, plus 1, widens the box,
    so slow cross-directions cannot hide beyond the truncation.
    """
    d = len(labels)

    def action(u):
        coords = {lab: np.exp(u[:, k]) for k, lab in enumerate(labels)}
        return _cone_action(family, n, coords, efac)

    center = np.zeros(d)
    for sweep in range(2):
        for k in range(d):
            trial = np.tile(center, (_PROBE.size, 1))
            trial[:, k] = _PROBE
            center[k] = _PROBE[np.argmin(action(trial))]
    s_center = float(action(center[None, :])[0])
    dirs = np.array([v for v in itertools.product((-1.0, 0.0, 1.0), repeat=d) if any(v)])
    reach = np.full(len(dirs), _MARCH_REACH)
    active = np.arange(len(dirs))
    t = 0.0
    while active.size and t < _MARCH_REACH:
        t += _MARCH_STEP
        hit = action(center + t * dirs[active]) - s_center >= lt
        reach[active[hit]] = t
        active = active[~hit]
    ends = center + reach[:, None] * dirs
    hi_b = np.maximum(center + 1.0, np.where(dirs > 0, ends + 1.0, -np.inf).max(axis=0))
    lo_b = np.minimum(center - 1.0, np.where(dirs < 0, ends - 1.0, np.inf).min(axis=0))
    return s_center, [(float(lo), float(hi)) for lo, hi in zip(lo_b, hi_b)]


def _cone_trim(nodes, marginals, limit):
    """Bounds of the grid box without its negligible end hyperplanes, and
    the mass of those hyperplanes.

    From each end of each axis, hyperplanes go while their cumulative mass
    (marginals[k][i], as the marginals of _cone_sum give them) stays
    within `limit`; the innermost hyperplane within the limit stays as the
    new face, so the new face carries at most `limit` as well.
    """
    bounds, dropped = [], 0.0
    for nd, marg in zip(nodes, marginals):
        cuts = []
        for cum in (np.cumsum(marg), np.cumsum(marg[::-1])):
            cut = max(int(np.searchsorted(cum, limit, side="right")) - 1, 0)
            if cut:
                dropped += float(cum[cut - 1])
            cuts.append(cut)
        bounds.append((float(nd[cuts[0]]), float(nd[nd.size - 1 - cuts[1]])))
    return bounds, dropped


def _cone_layout(family, n, labels, sizes):
    """The supports of the cone sums on a grid of sizes[k] nodes on axis k,
    and their plans: the axes each image coordinate runs over (a dict),
    the distinct supports of two or more axes, one table each, and the
    _axis_plans of the sums and of the selector, which contract those
    tables with per-axis columns and so share one plan (see _cone_sum).
    Raises DimensionTooLarge when the plan exceeds the budget."""
    d = len(labels)
    # the axes each image coordinate runs over, from a grid of two nodes per axis
    probe = {lab: _shaped(np.ones(2), k, d) for k, lab in enumerate(labels)}
    supports = {
        key: tuple(k for k, size in enumerate(np.shape(val)) if size == 2)
        for key, val in bz_map_coords(family, n, probe).items()
    }
    shared = list(dict.fromkeys(s for s in supports.values() if len(s) > 1))
    (plan,) = _axis_plans("cone", shared, sizes, [None])
    return supports, shared, (plan, plan)


def _cone_sum(family, n, labels, efac, phase, nodes, s_shift, layout):
    """Trapezoid sums of exp(-(S - s_shift) - i phase) over the tensor grid
    and over its grids of every second and fourth node, with the mass of
    the weight and its mass on the boundary faces, contracted factor by
    factor, on the `layout` (_cone_layout) of the grid.

    Each image coordinate depends on a few log coordinates, and each
    E_gamma t_gamma term and phase term on one, so the weight is a product
    of small tables: the image coordinates sharing a support of two or
    more axes are summed into one table, and the other terms into one
    vector v_k per axis.  Each table and vector is shifted by its minimum
    before exp (the shifts make one scalar).  As in _contour_sum, each
    axis' vector is that axis' own operand (_strided_sums): the sums
    contract the tables with the columns v_k [Re, Im] of the axis' phase,
    so that no table is cast to complex, and the coarser grids contract
    the same tables and columns sliced; the selector contracts them with
    the [v_k, v_k * ends] columns (_face_columns), for the mass and the
    face mass of every axis.  Returns (fine, coarse, coarse4, faces,
    n_evals, mass, marginals): the sums at strides 1, 2 and 4, each times
    its voxel, faces[k] the weight on the first and last hyperplane of
    axis k times the voxel, n_evals the node count of the dense grid, and
    marginals a function that contracts the same tables and vectors once
    per axis, with that axis kept: marginals()[k][i] is the weight on the
    hyperplane u_k = nodes[k][i] times the voxel.  Its plans are held
    against the budget when it is called.
    """
    d = len(labels)
    sizes = [nd.size for nd in nodes]
    voxel = math.prod(float(nd[1] - nd[0]) if nd.size > 1 else 1.0 for nd in nodes)
    supports, shared, plans = layout

    coords = {lab: np.exp(_shaped(nd, k, d)) for k, (lab, nd) in enumerate(zip(labels, nodes))}
    vecs = [coords[lab].reshape(-1) * efac[lab] for lab in labels]
    img = bz_map_coords(family, n, coords)
    tables = {}
    shift = -s_shift
    # bz_map_coords may return an array under two keys or return an input,
    # so the sums add only into arrays they own; each term is dropped once
    # added, which keeps one term alive at a time
    for key, support in supports.items():
        if len(support) > 1:
            shape = [sizes[a] for a in support]
            if support in tables:
                tables[support] += img.pop(key).reshape(shape)
            else:
                tables[support] = img.pop(key).reshape(shape).copy()
        elif support:
            vecs[support[0]] += img.pop(key).reshape(-1)
        else:
            shift += float(img.pop(key))
    for t in [*tables.values(), *vecs]:
        low = float(t.min())
        shift += low
        np.subtract(low, t, out=t)
        np.exp(t, out=t)
    factors = [tables[s] for s in shared]
    scale = math.exp(-shift) * voxel

    waves = [np.exp(-1j * phase[lab] * nd) for lab, nd in zip(labels, nodes)]
    phased = [np.stack([v * w.real, v * w.imag], axis=1) for v, w in zip(vecs, waves)]
    parts, mass, faces = _strided_sums(plans, factors, phased, factors, map(_face_columns, vecs))
    sums = []
    for part, stride in zip(parts, (1, 2, 4)):
        for _ in range(d):  # sum_w part[w] * i^|w|
            part = part @ np.array([1.0, 1j])
        sums.append(complex(part) * stride**d * scale)

    def marginals():
        plans = _axis_plans("cone", shared, sizes, [(k,) for k in range(d)])
        return [np.einsum(p[0], *factors, *vecs, optimize=p[1]) * scale for p in plans]

    return (*sums, [face * scale for face in faces], math.prod(sizes), mass * scale, marginals)


# ---------------------------------------------------------------------------
# first Barnes lemma


def barnes_first_lemma_quad(a, b, c, d, tol: float = 1e-9) -> complex:
    """Numeric left side of the first Barnes lemma:
    (1/2 pi i) Int Gamma(a+s) Gamma(b+s) Gamma(c-s) Gamma(d-s) ds.

    One contour variable s with a, b, c, d held fixed, through the
    eval_mb engine.  The contour needs a margin of 1/8 to both pole
    families, so the strip between -min(Re a, Re b) and min(Re c, Re d)
    must be at least 1/4 wide (Infeasible otherwise); NotConverged
    carries the last result when `tol` is not met.
    """
    s = ("s", 1)
    fixed = {(name,): complex(v) for name, v in zip("abcd", (a, b, c, d))}
    signs = zip("abcd", (1, 1, -1, -1))
    forms = tuple(AffineForm({(name,): 1, s: sign}) for name, sign in signs)
    integrand = MBIntegrand("barnes", 0, (s,), forms, (), {}, forms)
    return _integrate(integrand, (), tol, 1.0 / (2.0 * math.pi), 4, fixed=fixed).value
