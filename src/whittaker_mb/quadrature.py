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
Smith and Gray, JOSS 3, 2018).  The coarser grid levels contract the
same tables sliced.  One selector contraction of the moduli, with each
axis' weight as [w, w * ends] columns, gives the mass and the
boundary-shell mass of every axis at once.  Both routes lay their sums
out this way, shared tables plus one operand per axis (_axis_plans),
and run them through one helper (_strided_sums).  Before any table is
built, the plan's flop count and its largest table or intermediate,
counted with the true axis lengths, are held against MAX_FLOPS and
MAX_ENTRIES, and a plan over them raises DimensionTooLarge.  Both
routes do this from the panel counts, before any node vector is built.

Each contour structure is compiled once per process, on first use: the
key is the integrand object itself, which compares by identity, with the
names of its fixed symbols (_contour_program).  _integrate looks the
program up once per call and hands it to its attempts and to the strip
bound.  The program holds what depends on the structure alone: the float
coefficients of every factor and its offset terms in the order they are
added, each variable's row of the torus exponent, the lattice direction
of each factor, the groups of factors that share a support, and the
contraction plans, each planned once with a nominal length on every grid
axis.  A contraction
is lowered once into the steps numpy's einsum runs for its path (a
single-operand np.einsum per operand, reshapes and transposes, and
np.matmul or np.multiply per pair), keyed by the order of the axis
lengths, the one thing besides the path that fixes those steps
(_Contraction, _lowered); so it equals np.einsum(..., optimize=path) bit
for bit, and the number of lowered forms is bounded by the structures,
not by the grids.  A call computes only values.  The caches are bounded.

Every axis of the contour grid has the same step, and the coefficients
of the contour variables in a factor are small integers (or rationals),
so the factor's argument on the grid takes only the values of one line
of lattice points: log Gamma runs on those lines, one log_gamma_array
call for all the factors of a sum (and for all the shifted contours of
a strip bound), and each table is gathered from its lines by an integer
index table.  When all the factors of a table share one lattice
direction, exp runs on the line too.

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


def _shaped(arr, axis, ndim):
    """View of the 1-D `arr` along `axis` of an `ndim`-dimensional grid."""
    shape = [1] * ndim
    shape[axis] = arr.size
    return arr.reshape(shape)


# Contraction paths are planned with this length on every grid axis, so one
# path serves every grid of a support structure; the column axes of the
# selector and of the cone's [Re, Im] phases keep their length 2.
_NOMINAL_SIZE = 32


class _Contraction:
    """The contraction of operands over the axis tuples `supports` that
    keeps the axes `output`, along numpy's greedy einsum_path for operands
    of the given `shapes` (the greedy order of opt_einsum, Smith and Gray,
    JOSS 3, 2018).

    Calling it with the operands gives np.einsum(subs, *operands,
    optimize=path) bit for bit: it runs the steps numpy runs for that call
    (each pair through matmul or multiply, as numpy's bmm_einsum does),
    lowered once per order of the axis sizes (_lowered), the one thing
    besides the path that fixes them.  cost(sizes) counts its flops and
    its largest operand or intermediate with sizes[a] entries on axis a.
    """

    def __init__(self, supports, output, shapes):
        self.supports, self.output = supports, output
        self.subs = ",".join("".join(_LETTERS[a] for a in s) for s in supports)
        self.subs += "->" + "".join(_LETTERS[a] for a in output)
        operands = [np.broadcast_to(0.0, shape) for shape in shapes]
        self.path = tuple(np.einsum_path(self.subs, *operands, optimize=("greedy", MAX_ENTRIES))[0])
        # the axes each step runs over and keeps, with its operand count
        self.counted = []
        live = [set(s) for s in supports]
        for step in self.path[1:]:
            picked = [live.pop(i) for i in sorted(step, reverse=True)]
            union = set().union(*picked)
            kept = union & set(output).union(*live)
            self.counted.append((tuple(union), tuple(kept), len(picked)))
            live.append(kept)
        # the axes, and where each one's length is read: (operand, dimension)
        where = {}
        for i, s in enumerate(supports):
            for j, a in enumerate(s):
                where.setdefault(a, (i, j))
        self.axes = sorted(where)
        self.where = [where[a] for a in self.axes]

    def cost(self, sizes):
        flops = 0.0
        largest = max(math.prod(sizes[a] for a in s) for s in self.supports)
        for union, kept, count in self.counted:
            flops += math.prod(sizes[a] for a in union) * count
            largest = max(largest, math.prod(sizes[a] for a in kept))
        return flops, largest

    def __call__(self, *operands):
        sizes = [operands[i].shape[j] for i, j in self.where]
        order = tuple(sorted(range(len(sizes)), key=sizes.__getitem__))
        ones = tuple(r for r, n in enumerate(sizes) if n == 1) if 1 in sizes else ()
        ops = list(operands)
        for picks, step in _lowered(self, order, ones):
            taken = [ops.pop(i) for i in picks]
            ops.append(step(*taken))
        return ops[0]


@functools.lru_cache(maxsize=1024)
def _lowered(contraction, order, ones):
    """The steps of np.einsum(subs, *operands, optimize=path) for the
    _Contraction `contraction` on operands whose axes, by increasing
    length (ties by axis), are the positions `order` in its axis list, and
    have length 1 at the positions `ones`: for each step, the positions it
    takes from the operand list (the result goes to its end) and the
    function of those operands.

    Each intermediate lists its axes by increasing length, as einsum_path
    does, and the last one has the output's; a pair contracts through
    _pair_step, any other count through one plain np.einsum.
    """
    axes = contraction.axes
    rank = {_LETTERS[axes[r]]: k for k, r in enumerate(order)}
    ones = {_LETTERS[axes[r]] for r in ones}
    path = contraction.path
    inputs, output = contraction.subs.split("->")
    terms = inputs.split(",")
    steps = []
    for num, picks in enumerate(path[1:], 2):
        picks = tuple(sorted(picks, reverse=True))
        picked = [terms.pop(i) for i in picks]
        if num == len(path):
            result = output
        else:
            kept = set("".join(picked)) & set(output + "".join(terms))
            result = "".join(sorted(kept, key=rank.__getitem__))
        terms.append(result)
        eq = ",".join(picked) + "->" + result
        steps.append((picks, _pair_step(eq, ones) if len(picked) == 2 else functools.partial(np.einsum, eq)))
    return tuple(steps)


def _fused(shape, groups):
    """`shape` with each run of `groups` consecutive axes fused into one."""
    out, start = [], 0
    for n in groups:
        out.append(math.prod(shape[start : start + n]))
        start += n
    return tuple(out)


def _pair_step(eq, ones):
    """The two-operand einsum `eq` (axes in `ones` of length 1) as numpy's
    bmm_einsum runs it: each operand has its own axes summed and is
    transposed by one single-operand einsum, then the contraction is one
    matmul over the fused batch, kept and contracted axes, reshaped and
    transposed to the result; without a contracted axis it is one
    broadcast multiply."""
    lhs, out = eq.split("->")
    a_term, b_term = lhs.split(",")
    singles, left, right = set(), {}, {}
    for ix in a_term:
        if ix in ones:
            singles.add(ix)
        else:
            left[ix] = True
    for ix in b_term:
        if ix in ones:
            if ix not in left:
                singles.add(ix)
        else:
            singles.discard(ix)
            right[ix] = True
    bat, con, a_keep = [], [], []
    for ix in left:
        if right.pop(ix, False):
            (bat if ix in out else con).append(ix)
        elif ix in out:
            a_keep.append(ix)
    b_keep = [ix for ix in right if ix in out]

    def prepare(term, desired):
        return None if term == desired else f"{term}->{desired}"

    if not con:
        eq_a = prepare(a_term, "".join(ix for ix in out if ix in a_term))
        eq_b = prepare(b_term, "".join(ix for ix in out if ix in b_term))
        in_a = [ix in a_term for ix in out]
        in_b = [ix in b_term for ix in out]

        def multiply(a, b):
            if eq_a is not None:
                a = np.einsum(eq_a, a)
            shape = iter(a.shape)
            a = a.reshape([next(shape) if m else 1 for m in in_a])
            if eq_b is not None:
                b = np.einsum(eq_b, b)
            shape = iter(b.shape)
            b = b.reshape([next(shape) if m else 1 for m in in_b])
            return np.multiply(a, b)

        return multiply

    singles = [ix for ix in out if ix in singles]
    eq_a = prepare(a_term, "".join(bat + a_keep + con))
    eq_b = prepare(b_term, "".join(bat + con + b_keep))
    groups = (bat, a_keep, con) if bat else (a_keep, con)
    fuse_a = [len(g) for g in groups] if any(len(g) != 1 for g in groups) else None
    groups = (bat, con, b_keep) if bat else (con, b_keep)
    fuse_b = [len(g) for g in groups] if any(len(g) != 1 for g in groups) else None
    groups = (bat, a_keep, b_keep) if bat else (a_keep, b_keep)
    unfuse = singles or any(len(g) != 1 for g in groups)
    produced = "".join(singles + bat + a_keep + b_keep)
    perm = None if produced == out else tuple(produced.index(ix) for ix in out)
    nb, nk, nc = len(bat), len(a_keep), len(con)

    def contract(a, b):
        if eq_a is not None:
            a = np.einsum(eq_a, a)
        if eq_b is not None:
            b = np.einsum(eq_b, b)
        shape_a, shape_b = a.shape, b.shape
        if fuse_a is not None:
            a = a.reshape(_fused(shape_a, fuse_a))
        if fuse_b is not None:
            b = b.reshape(_fused(shape_b, fuse_b))
        ab = np.matmul(a, b)
        if unfuse:
            ab = ab.reshape((1,) * len(singles) + shape_a[: nb + nk] + shape_b[nb + nc :])
        if perm is not None:
            ab = ab.transpose(perm)
        return ab

    return contract


@functools.lru_cache(maxsize=256)
def _axis_plans(shared, d, outputs):
    """The contractions of the tables over the supports `shared` with one
    operand per axis k < d, one for each entry of `outputs`: for None, a
    pair of columns on axes k and d + k, which are kept (the selector, the
    cone's [Re, Im] phases); for a tuple of grid axes, a vector on axis k,
    and those axes are kept.  Planned once per structure, with
    _NOMINAL_SIZE nodes on every grid axis."""
    plans = []
    for out in outputs:
        if out is None:
            supports = shared + tuple((k, d + k) for k in range(d))
            out = tuple(range(d, 2 * d))
        else:
            supports = shared + tuple((k,) for k in range(d))
        shapes = [tuple(_NOMINAL_SIZE if a < d else 2 for a in s) for s in supports]
        plans.append(_Contraction(supports, out, shapes))
    return tuple(plans)


def _budgeted_plans(what, plans, sizes):
    """The `plans` of _axis_plans, for a grid of sizes[k] nodes on axis k.
    Raises DimensionTooLarge when their flops, or the largest entry of
    one, counted with these sizes, are over the budget."""
    costs = [plan.cost([*sizes] + [2] * len(sizes)) for plan in plans]
    flops = sum(c[0] for c in costs)
    largest = max(c[1] for c in costs)
    if flops > MAX_FLOPS or largest > MAX_ENTRIES:
        raise DimensionTooLarge(
            f"{what} contraction of {flops:.2g} flops with {largest:.2g}-entry "
            "tables exceeds the budget"
        )
    return plans


def _support_tables(lines):
    """The table exp(log) and its moduli exp(Re log) of a support whose log
    table is the sum of line[index] over the (line, index) pairs `lines`.
    With one direction, exp runs on the line and both are gathered from
    it, which gives the same bits as exp of the gathered table."""
    if len(lines) == 1:
        ((line, idx),) = lines
        return np.exp(line)[idx], np.exp(line.real)[idx]
    log = _gathered_log(lines)
    return np.exp(log), np.exp(log.real)


def _support_moduli(lines):
    """The moduli of _support_tables alone."""
    if len(lines) == 1:
        ((line, idx),) = lines
        return np.exp(line.real)[idx]
    return np.exp(_gathered_log(lines).real)


def _gathered_log(lines):
    log = lines[0][0][lines[0][1]]
    for line, idx in lines[1:]:
        log = log + line[idx]
    return log


def _face_columns(weight):
    """The [w, w * ends] columns of the axis weight w: contracted in place
    of w, column 0 keeps the whole axis and column 1 only its two end
    nodes."""
    cols = np.zeros((weight.size, 2))
    cols[:, 0] = weight
    cols[0, 1], cols[-1, 1] = weight[0], weight[-1]
    return cols


def _strided_sums(plans, tables, axis_ops, moduli, selectors):
    """The contractions of a tensor trapezoid sum, the `plans` of
    _axis_plans: `tables` with one operand per axis (`axis_ops`) on the
    grid and, sliced, on its grids of every second and fourth node; and
    `moduli` with the [w, w * ends] `selectors` (_face_columns).  Returns
    the three sums, the mass and the per-axis face masses."""
    contract, select = plans
    sums = []
    for stride in (1, 2, 4):
        sliced = [t[(slice(None, None, stride),) * t.ndim] for t in tables]
        sums.append(contract(*sliced, *(op[::stride] for op in axis_ops)))
    mass, faces = _selected(select(*moduli, *selectors))
    return sums, mass, faces


def _selected(selected):
    """The mass and the per-axis face masses in the selector's (2,) * d
    output: the mass at 0, axis k's face mass at the k-th unit vector."""
    d = selected.ndim
    faces = [float(selected[tuple(int(j == k) for j in range(d))]) for k in range(d)]
    return float(selected[(0,) * d]), faces


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


def _offset_terms(f, fixed_names):
    """The constant of the form f, its i b_k lambda_k terms and its terms
    in fixed symbols, as floats in the order _offset adds them."""
    ilam = tuple((k - 1, 1j * float(b)) for k, b in f.ilam.items())
    fixed = tuple((v, float(a)) for v, a in f.gamma.items() if v in fixed_names)
    return complex(f.const), ilam, fixed


def _offset(terms, lam, fixed):
    """The value of a form (_offset_terms) with every contour variable 0."""
    acc, ilam, fixed_terms = terms
    for k, b in ilam:
        acc += b * lam[k]
    for v, a in fixed_terms:
        acc += a * complex(fixed[v])
    return acc


class _Factor:
    """A Gamma factor of a _ContourProgram that depends on contour
    variables: its sign (+1 numerator, -1 denominator), its support (the
    axes of those variables), its offset terms, its (coefficient,
    variable) pairs on the support, and its lattice direction: its
    coefficients are g / lcm times the primitive integer vector p, whose
    first entry is positive."""

    __slots__ = ("sign", "support", "terms", "base", "p", "g", "lcm")

    def __init__(self, sign, f, support, variables, fixed_names):
        coefs = [f.gamma[variables[k]] for k in support]
        self.lcm = math.lcm(*(a.denominator for a in coefs))
        ints = [int(a * self.lcm) for a in coefs]
        self.g = math.gcd(*ints) if ints[0] > 0 else -math.gcd(*ints)
        self.p = tuple(b // self.g for b in ints)
        self.sign, self.support = sign, support
        self.terms = _offset_terms(f, fixed_names)
        self.base = tuple((float(a), variables[k]) for a, k in zip(coefs, support))


class _ContourProgram:
    """The contour sums of one integrand with the symbols `fixed_names`
    held fixed, compiled once per process (_contour_program): a call
    computes only values.

    The program holds what depends on the structure alone: the decay rate
    of each axis, the constraints, the torus rows and the Gamma factors
    with their coefficients as floats, each factor's offset terms in the
    order they are added, its lattice direction, the groups of factors
    that share a support and the contractions of the sums and the
    selector (_axis_plans).  Their flops and largest entry are held against the
    budget at each call's grid, before any node vector is built.

    On the grid z_k = base_k + i step j_k, |j_k| <= halves[k], the argument
    of a factor is c0 + i step (g / lcm) m with m = sum_k p_k j_k an
    integer, so log Gamma runs on the line of every m between the
    extremes.  One log_gamma_array call takes the factors free of contour
    variables and the lines of every factor, for one or several base
    points, concatenated; the lines of the factors of a support with the
    same direction are summed, and each sum is placed on the grid by one
    integer index table.  PoleHit is raised when the argument at a node is
    a pole, never for a line point that no node reaches, and for the first
    such node in the order of the base points, the constant factors, the
    shared supports and the axes.
    """

    def __init__(self, integrand, fixed_names):
        variables = integrand.variables
        axes = {v: k for k, v in enumerate(variables)}
        self.variables, self.d = variables, len(variables)
        self.rates = _axis_rates(integrand.num, integrand.den, variables)
        # per constraint: its constant and (variable, coefficient, fixed?) terms
        self.constraints = [
            (float(f.const), tuple((v, float(a), v in fixed_names) for v, a in f.gamma.items()))
            for f in integrand.constraints
        ]
        # each constraint's coefficient on each contour variable
        self.slopes = [[float(f.gamma.get(v, 0)) for v in variables] for f in integrand.constraints]
        # the x-coefficient row of each variable in the torus exponent
        rows = integrand.exponent
        self.torus = [(v, [float(c) for c in rows[v]]) for v in variables if rows.get(v)]
        self.consts, groups = [], {}
        for sign, forms in ((1.0, integrand.num), (-1.0, integrand.den)):
            for f in forms:
                support = tuple(sorted(axes[v] for v in f.gamma if v in axes))
                if support:
                    groups.setdefault(support, []).append(
                        _Factor(sign, f, support, variables, fixed_names)
                    )
                else:
                    self.consts.append((sign, _offset_terms(f, fixed_names)))
        self.shared = tuple(s for s in groups if len(s) > 1)
        # the factors by support: the shared ones, then one per axis
        supports = [*self.shared, *((k,) for k in range(self.d) if (k,) in groups)]
        self.factors = [f for s in supports for f in groups[s]]
        self.plans = _axis_plans(self.shared, self.d, ((), None)) if self.d else ()

    def torus_slopes(self, x):
        """Coefficient hx_v of each variable in the torus weight exp(sum z_v hx_v)."""
        if x is None:
            return {}
        return {v: sum(c * xi for c, xi in zip(row, x)) for v, row in self.torus}

    def slacks(self, base, fixed):
        """constraint_slacks at the base point `base` (a dict)."""
        out = []
        for acc, terms in self.constraints:
            for v, a, held in terms:
                acc += a * (complex(fixed[v]).real if held else base[v])
            out.append(acc)
        return out

    def _logs(self, bases, lam, fixed, halves, step):
        """The log of the constant factors' product, and for each base
        point of `bases` a dict: support -> its (line, index) pairs, one
        per direction (see the class)."""
        consts = [_offset(terms, lam, fixed) for _, terms in self.consts]
        z = [np.array(consts, dtype=complex)]
        reaches = [sum(abs(b) * halves[k] for b, k in zip(f.p, f.support)) for f in self.factors]
        lengths = [2 * r + 1 for r in reaches]
        if self.factors:
            offsets = [_offset(f.terms, lam, fixed) for f in self.factors]
            c0 = []
            for base in bases:
                for off, f in zip(offsets, self.factors):
                    for a, v in f.base:
                        off += a * base[v]
                    c0.append(off)
            # c0 + i step (g / lcm) m on every line, for each base point
            slopes = [1j * (step * f.g / f.lcm) for f in self.factors]
            m = np.concatenate([np.arange(-r, r + 1) for r in reaches])
            lines = np.repeat(c0, lengths * len(bases)) + np.tile(np.repeat(slopes, lengths) * m, len(bases))
            z.append(lines)
        z = np.concatenate(z)
        indices = {}

        def index(support, p):
            # position m + reach on the line of each node, summed axis by axis
            if (support, p) not in indices:
                idx = 0
                for pos, (b, k) in enumerate(zip(p, support)):
                    j = np.arange(-halves[k], halves[k] + 1)
                    idx = idx + _shaped(b * j + abs(b) * halves[k], pos, len(support))
                indices[support, p] = idx
            return indices[support, p]

        try:
            values = log_gamma_array(z)
        except PoleHit:
            reached = np.zeros(z.size, dtype=bool)
            reached[: len(consts)] = True
            start = len(consts)
            for _ in bases:
                for f, n in zip(self.factors, lengths):
                    reached[start + index(f.support, f.p)] = True
                    start += n
            values = np.zeros(z.size, dtype=complex)
            values[reached] = log_gamma_array(z[reached])
        const = 0j
        for (sign, _), value in zip(self.consts, values):
            const += sign * complex(value)
        out, start = [], len(consts)
        for _ in bases:
            logs = {}
            for f, n in zip(self.factors, lengths):
                lines = logs.setdefault(f.support, {})
                lines[f.p] = lines.get(f.p, 0.0) + f.sign * values[start : start + n]
                start += n
            out.append({s: [(v, index(s, p)) for p, v in lines.items()] for s, lines in logs.items()})
        return const, out

    def _weights(self, base, hx, logs, halves, step):
        """The log of each axis' weight vector: z_k hx_k on the axis plus
        the log of the factors on that axis alone."""
        out = []
        for k, v in enumerate(self.variables):
            weight = (base[v] + 1j * (np.arange(-halves[k], halves[k] + 1) * step)) * hx.get(v, 0.0)
            if (k,) in logs:
                ((line, idx),) = logs[(k,)]
                weight = weight + line[idx]
            out.append(weight)
        return out

    def sums(self, base, lam, hx, halves, fixed, step):
        """Trapezoid sum of prod Gamma(num)/prod Gamma(den) * exp(sum z_v hx_v)
        over the tensor grid z_k = base_k + i step j, |j| <= halves[k],
        contracted factor by factor: one table per shared support
        (_support_tables) and, as each axis' own operand, its weight vector
        exp(z_k hx_k) times the factors on that axis alone, the layout
        _cone_sum shares (_axis_plans, _strided_sums).  The grids of every
        second and fourth node contract the same operands sliced, and one
        selector contraction of the moduli, each weight's as [w, w * ends]
        columns (_face_columns), gives the mass and each axis' face mass.
        Returns (fine, coarse, coarse4, face_abs, n_evals, mass), n_evals
        being the node count of the dense grid and mass the sum of the
        moduli of all terms.  Raises DimensionTooLarge, before any node
        vector is built, when the plans exceed the budget.
        """
        if not self.d:
            val = complex(np.exp(self._logs([base], lam, fixed, halves, step)[0]))
            return val, val, val, [0.0], 1, abs(val)
        sizes = [2 * m + 1 for m in halves]
        plans = _budgeted_plans("contour", self.plans, sizes)
        const, (logs,) = self._logs([base], lam, fixed, halves, step)
        tables, moduli = [], []
        for s in self.shared:
            table, modulus = _support_tables(logs[s])
            tables.append(table)
            moduli.append(modulus)
        weights, selectors = [], []
        for weight in self._weights(base, hx, logs, halves, step):
            weights.append(np.exp(weight))
            selectors.append(_face_columns(np.exp(weight.real)))
        scale = complex(np.exp(const)) * step**self.d
        sums, mass, faces = _strided_sums(plans, tables, weights, moduli, selectors)
        fine, coarse, coarse4 = (complex(s) * stride**self.d * scale for s, stride in zip(sums, (1, 2, 4)))
        face_abs = [face * abs(scale) for face in faces]
        return fine, coarse, coarse4, face_abs, math.prod(sizes), mass * abs(scale)

    def masses(self, bases, lam, fixed, halves, step):
        """The mass of sums without torus weight at each point of
        `bases`: one log_gamma_array call for all of them, and the
        selector contraction alone."""
        sizes = [2 * m + 1 for m in halves]
        _, select = _budgeted_plans("contour", self.plans, sizes)
        const, logs = self._logs(bases, lam, fixed, halves, step)
        scale = abs(complex(np.exp(const)) * step**self.d)
        out = []
        for base, at in zip(bases, logs):
            moduli = [_support_moduli(at[s]) for s in self.shared]
            weights = self._weights(base, {}, at, halves, step)
            selectors = [_face_columns(np.exp(weight.real)) for weight in weights]
            out.append(_selected(select(*moduli, *selectors))[0] * scale)
        return out


@functools.lru_cache(maxsize=64)
def _compiled(integrand, fixed_names):
    return _ContourProgram(integrand, fixed_names)


def _contour_program(integrand, fixed):
    """The _ContourProgram of `integrand` with the symbols of `fixed` held
    fixed, compiled on first use and kept for the 64 latest integrands.
    The key is the integrand object itself, which compares by identity
    (each shipped integrand is one frozen object per process) and which
    the cache entry keeps alive; a dataclasses.replace copy gets its own
    program."""
    return _compiled(integrand, tuple(sorted(fixed or ())))


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
    program = _contour_program(integrand, fixed)
    rates = program.rates
    if any(r <= 0 for r in rates):
        raise NotConverged("integrand does not decay along some contour axis")
    slack = min(program.slacks(base, fixed), default=1.0)
    lt = math.log(10.0 / tol)
    lammax = max((abs(l) for l in lam), default=0.0)
    smax = max((abs(complex(v).imag) for v in (fixed or {}).values()), default=0.0)
    # spectral shifts translate the Gamma decay profile, so they add to
    # the truncation instead of scaling with the decay rate
    ts = [1.3 * (lt + 6.0) / r + 1.0 + 2.2 * (lammax + smax) for r in rates]
    hx_mag = max((abs(v) for v in program.torus_slopes(x).values()), default=0.0)
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
    more than MAX_ENTRIES nodes, or h is 0: every contraction has its
    weight vector as an operand, so no plan of such a grid is within the
    budget."""
    m = t / h if h > 0 else math.inf
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
    spec = plan_contour(integrand, lam, tol, x=x, base=base, fixed=fixed)
    program = _contour_program(integrand, fixed)
    base = dict(zip(program.variables, spec.base_point))
    hx = program.torus_slopes(x)

    def attempt(spec):
        h = spec.step
        halves = [p // 2 for p in spec.panels]
        fine, coarse, coarse4, face_abs, evals, mass = program.sums(base, lam, hx, halves, fixed, h)
        tail = 0.0
        for k in range(program.d):
            tail += 3.0 * face_abs[k] / max(program.rates[k] * h, 1e-9) * h
        err = scale * (_extrapolated(fine, coarse, coarse4, mass) + tail)
        if x is None and err <= tol * abs(scale * fine):
            err = max(err, abs(scale) * _strip_bound(program, base, lam, halves, fixed, h))
        return phase * scale * fine, err, evals, lambda: _refine_spec(spec)

    return _attempts(attempt, spec, attempts, tol, "estimated error {err:.3g} above tolerance")


# Share of the distance to the nearest pole line by which _strip_bound
# shifts the contour, and the shift on a side without one.
_STRIP_SHARE = 0.9
_STRIP_FREE = 2.0


def _strip_bound(program, base, lam, halves, fixed, step):
    """Bound on the discretization error of the trapezoid sum at `step`,
    with halves[k] (even) nodes a side on axis k, of a Gamma-product
    integrand without torus weight (Trefethen and Weideman, SIAM Rev. 56,
    2014, Thm 5.1, one side at a time), on its _ContourProgram.

    On each axis and side, the contour may move by the distance a to the
    nearest pole line with the other axes held (_STRIP_FREE where no
    constraint limits that side); moved by _STRIP_SHARE a, the integrand
    has the mass M, and the aliases from that side are at most
    M / (exp(2 pi a / step) - 1).  M is summed on the grid of every
    second node, which the estimate already uses, so a bound costs 2^-d
    of an attempt's table per axis and side; the 2d masses take one
    log_gamma_array call and one selector contraction each
    (_ContourProgram.masses).
    """
    slacks = program.slacks(base, fixed)
    moved, shares = [], []
    for k, v in enumerate(program.variables):
        for side in (1.0, -1.0):
            reach = _STRIP_FREE
            for slopes, slack in zip(program.slopes, slacks):
                c = side * slopes[k]
                if c < 0:
                    reach = min(reach, slack / -c)
            a = _STRIP_SHARE * reach
            point = dict(base)
            point[v] += side * a
            moved.append(point)
            shares.append(a)
    if not moved:
        return 0.0
    masses = program.masses(moved, lam, fixed, [m // 2 for m in halves], 2 * step)
    total = 0.0
    for mass, a in zip(masses, shares):
        total += mass / math.expm1(2.0 * math.pi * a / step)
    return total


def _attempts(attempt, grid, tries, tol, message):
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
    evaluations sums over the finite attempts.
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
            return QuadResult(value, err, evals_total)
        last = QuadResult(value, err, evals_total, converged=False)
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
    Raises DimensionTooLarge for d > 4 or a phase (lambda, x) beyond the
    float range (_phase); the budget rules are _attempts'.
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
    pref = _phase(lam, x)
    return _integrate(
        integrand, lam, tol, (2.0 * math.pi) ** (-d), max_refine + 1, x=x, base=base, phase=pref
    )


def _phase(lam, x):
    """The prefactor e^{-i(lambda, x)}; DimensionTooLarge (over the budget, as
    for any lambda too large to resolve) when (lambda, x) leaves the float range."""
    dot = sum(float(u) * float(v) for u, v in zip(lam, x))
    if not math.isfinite(dot):
        raise DimensionTooLarge(
            f"the phase (lambda, x) = {dot} is outside the floating-point range"
        )
    return complex(math.cos(-dot), math.sin(-dot))


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


@functools.lru_cache(maxsize=64)
def _cone_rows(family, n):
    """Per positive root, its coroot row (the integer coefficients of
    lambda in the pairing (lambda, gamma^vee)) and its Cartan scaling
    exponent as a float row, made once per family and rank."""
    units = [Weight({i: 1}) for i in range(1, n + 1)]
    return {
        label: (
            tuple(int(coroot_pairing(unit, label, family)) for unit in units),
            tuple(float(c) for c in cartan_scaling_exponent(family, n, label)),
        )
        for label in build_root_system(family, n).positive_roots
    }


def _cone_phase_coeffs(family, n, lam):
    # the coroot coefficients are 0, +-1 and 2, so each product is exact and
    # fsum rounds the exact pairing once (+ 0.0: an exact zero has no sign)
    lam = [float(v) for v in lam]
    out = {}
    for label, (row, _) in _cone_rows(family, n).items():
        try:
            val = math.fsum(c * v for c, v in zip(row, lam) if c) + 0.0
        except OverflowError:
            val = math.inf
        # beyond the float range its grid step is 0, over the budget (_half_panels)
        out[label] = val if math.isfinite(val) else math.inf
    return out


def _cone_exponent(family, n, x):
    out = {}
    for label, (_, row) in _cone_rows(family, n).items():
        try:
            out[label] = math.exp(sum(c * xi for c, xi in zip(row, x)))
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
# out of it, whose first call takes _MARCH_BLOCK steps and each next call
# twice as many.  Each attempt's box reaches _WIDEN beyond the march box
# per side, and widens by _WIDEN more when its faces carry mass.
# Trimming: after an attempt passes the face check but misses tol, each
# end of each axis may drop hyperplanes carrying up to
# TRIM_SHARE * tol * |value| / (2 d) of mass before the next, finer
# attempt.  Table entries more than -_EXP_FLOOR e-folds below a table's
# largest weight are taken at that floor: far under the rule's rounding
# level, and out of the range where exp underflows and runs several times
# slower.
_PROBE = np.linspace(-4.0, 3.0, 8)
_MARCH_STEP = 0.5
_MARCH_REACH = 80.0
_MARCH_BLOCK = 16
_WIDEN = 1.5
TRIM_SHARE = 0.01
_EXP_FLOOR = -700.0


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
    cover the same box.  The route is limited to d <= 4: beyond that, or
    for a phase (lambda, x) beyond the float range (_phase),
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
    rs = build_root_system(family, n)
    labels = list(rs.positive_roots)
    d = len(labels)
    if d > 4:
        raise DimensionTooLarge(f"cone quadrature limited to d <= 4, got {d}")
    pref = _phase(lam, x)
    efac = _cone_exponent(family, n, x)
    phase = _cone_phase_coeffs(family, n, lam)
    lt = math.log(10.0 / tol) + 6.0
    s_center, bounds = _cone_box(family, n, labels, efac, lt)
    bounds = [(lo - _WIDEN, hi + _WIDEN) for lo, hi in bounds]

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
    return _attempts(attempt, (bounds, h, 0.0), 5, tol, message)


def _cone_box(family, n, labels, efac, lt):
    """S at its approximate minimum, and the per-axis bounds of the box
    outside which S exceeds that minimum by `lt`.

    Two sweeps over the axes move each coordinate of the centre in turn
    to the first minimum of S over the _PROBE values.  Their 2 d steps
    run two per array call: the 8 probes of a step and, for each of their
    outcomes, the 8 probes of the next step, 72 points; the minimum of S
    is the chosen row of the last call.  Then every nonzero sign pattern
    in {-1, 0, 1}^d marches out of the centre in _MARCH_STEP steps until
    S has risen by `lt`, or up to _MARCH_REACH.  Each call evaluates all
    directions still marching over a block of steps (_MARCH_BLOCK, then
    twice the last block), and a direction's reach is its first step
    over `lt`.  The reach of every direction, plus 1, widens the box, so
    slow cross-directions cannot hide beyond the truncation.  Where S is
    not finite at its minimum (an E_gamma factor beyond the floating-point
    range), NotConverged without a result is raised before the march.
    """
    d = len(labels)
    size = _PROBE.size

    def action(u):
        coords = {lab: np.exp(u[..., k]) for k, lab in enumerate(labels)}
        return _cone_action(family, n, coords, efac)

    center = np.zeros(d)
    for step in range(0, 2 * d, 2):
        k, k_next = step % d, (step + 1) % d
        # trial[j, 0]: probe j of this step; trial[j, 1 + m]: probe m of the
        # next step after probe j won this one
        trial = np.tile(center, (size, size + 1, 1))
        trial[:, :, k] = _PROBE[:, None]
        trial[:, 1:, k_next] = _PROBE
        s = action(trial)
        j = int(np.argmin(s[:, 0]))
        m = int(np.argmin(s[j, 1:]))
        center[k], center[k_next] = _PROBE[j], _PROBE[m]
    s_center = float(s[j, 1 + m])
    if not math.isfinite(s_center):  # no step of the march would cross lt
        raise NotConverged(f"cone exponent S = {s_center} is outside the floating-point range")
    dirs = _march_dirs(d)
    reach = np.full(len(dirs), _MARCH_REACH)
    active = np.arange(len(dirs))
    steps = _MARCH_STEP * np.arange(1, round(_MARCH_REACH / _MARCH_STEP) + 1)
    start, block = 0, _MARCH_BLOCK
    while active.size and start < steps.size:
        t = steps[start : start + block]
        hit = action(center + t[:, None, None] * dirs[active]) - s_center >= lt
        crossed = hit.any(axis=0)
        reach[active[crossed]] = t[hit.argmax(axis=0)[crossed]]
        active = active[~crossed]
        start, block = start + block, 2 * block
    ends = center + reach[:, None] * dirs
    hi_b = np.maximum(center + 1.0, np.where(dirs > 0, ends + 1.0, -np.inf).max(axis=0))
    lo_b = np.minimum(center - 1.0, np.where(dirs < 0, ends - 1.0, np.inf).min(axis=0))
    return s_center, [(float(lo), float(hi)) for lo, hi in zip(lo_b, hi_b)]


@functools.lru_cache(maxsize=8)
def _march_dirs(d):
    """Every nonzero sign pattern in {-1, 0, 1}^d, one row each (read-only)."""
    dirs = np.array([v for v in itertools.product((-1.0, 0.0, 1.0), repeat=d) if any(v)])
    dirs.flags.writeable = False
    return dirs


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
    The supports and the plan are made once per family and rank
    (_cone_supports, _axis_plans); the plan is held against the budget at
    `sizes`, and DimensionTooLarge raised when it is over."""
    supports, shared = _cone_supports(family, n, tuple(labels))
    (plan,) = _budgeted_plans("cone", _axis_plans(shared, len(labels), (None,)), sizes)
    return supports, shared, (plan, plan)


@functools.lru_cache(maxsize=64)
def _cone_supports(family, n, labels):
    """The axes each image coordinate runs over, from a grid of two nodes
    per axis, and the distinct supports of two or more axes."""
    d = len(labels)
    probe = {lab: _shaped(np.ones(2), k, d) for k, lab in enumerate(labels)}
    supports = {
        key: tuple(k for k, size in enumerate(np.shape(val)) if size == 2)
        for key, val in bz_map_coords(family, n, probe).items()
    }
    return supports, tuple(dict.fromkeys(s for s in supports.values() if len(s) > 1))


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
    (the shifts make one scalar), into a new array, and floored at
    _EXP_FLOOR before exp runs on it in place, so that every weight is a
    normal float and exp never underflows.  As in _ContourProgram.sums, each
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
    # so nothing writes into the arrays it returns: a table is its first
    # term, and each further term and the shift make a new array; each term
    # is dropped once added, which keeps one term alive at a time
    for key, support in supports.items():
        term = img.pop(key)
        if len(support) > 1:
            term = term.reshape([sizes[a] for a in support])
            tables[support] = tables[support] + term if support in tables else term
        elif support:
            vecs[support[0]] += term.reshape(-1)
        else:
            shift += float(term)
    weights = []
    for t in [*tables.values(), *vecs]:
        low = float(t.min())
        shift += low
        t = np.subtract(low, t)
        np.maximum(t, _EXP_FLOOR, out=t)
        weights.append(np.exp(t, out=t))
    tables = dict(zip(tables, weights))
    vecs = weights[len(tables) :]
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
        plans = _axis_plans(shared, d, tuple((k,) for k in range(d)))
        return [plan(*factors, *vecs) * scale for plan in _budgeted_plans("cone", plans, sizes)]

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
