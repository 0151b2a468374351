"""Numerical evaluation: contour feasibility, Mellin-Barnes quadrature,
positive-cone quadrature, and the classical special-function oracles.

One Mellin-Barnes engine (_integrate) integrates every Gamma-product
integrand over the shifted imaginary plane with a tensor trapezoid
rule: the wave function (eval_mb), its Mellin transform at fixed outer
variables (eval_mellin_transform) and the first Barnes lemma check
(barnes_first_lemma_quad) are thin front ends that each hand it an
MBIntegrand.  It plans the contour (plan_contour), contracts the sum,
estimates the error and refines.  Gamma decay makes the trapezoid rule
converge geometrically (Trefethen and Weideman, SIAM Rev. 56, 2014);
per-axis truncation comes from the Gamma-decay envelope (spectral
shifts and the imaginary parts of fixed symbols translate the profile,
so they add to the truncation), and the error estimate extrapolates
three dyadic grid levels, never below the rounding level of the terms,
and adds the boundary-shell mass.

The tensor sum is never formed as a dense grid.  Each Gamma factor
depends on a few contour variables, so the factors sharing a support
make one table, and the sum contracts these tables with one weight
vector per axis along a greedy numpy.einsum_path plan (the greedy order
of opt_einsum, Smith and Gray, JOSS 3, 2018).  The coarser grid
levels contract the same tables sliced, and the boundary-shell mass
contracts their moduli.  Before any table is built, the plan's flop
count and its largest table or intermediate are held against MAX_FLOPS
and MAX_ENTRIES: a first attempt over budget raises DimensionTooLarge,
and a refinement over budget ends the refinement with NotConverged and
the last result.  The positive-cone sum likewise never forms the
complex integrand: its phase is linear, so it contracts the real weight
exp(-S) with one phase vector per axis.  Contractions follow a fixed
plan, so results are reproducible bit for bit at fixed panel counts.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .bz import bz_map_coords
from .gammafn import PoleHit, log_gamma_array, log_gamma_complex
from .mellin import AffineForm, MBIntegrand, MellinSplit
from .roots import build_root_system, cartan_scaling_exponent

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
    "bessel_k_imag_order",
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
    base_point: list  # real shift per axis
    truncation: list  # per-axis half-width T_j
    panels: list  # per-axis node counts

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


def contour_base_point(constraints, variables=None, fixed=None, margin=0.125, cap=1.0):
    """Strictly feasible real base point for Re(form) > 0 constraints.

    Phase one maximizes the minimum slack (capped, since large real
    shifts inflate the Gamma factors), phase two picks the minimum-norm
    point at that slack; both phases are deterministic given the
    constraint order.  Raises Infeasible when the best margin falls
    below the requested one.
    """
    if variables is None:
        seen = []
        for f in constraints:
            for v in f.gamma:
                if (fixed is None or v not in fixed) and v not in seen:
                    seen.append(v)
        variables = seen
    d = len(variables)
    idx = {v: k for k, v in enumerate(variables)}
    if d == 0:
        slacks = constraint_slacks(constraints, {}, fixed)
        if slacks and min(slacks) < margin:
            raise Infeasible("constant constraints violated")
        return {}
    rows, rhs = [], []
    for f in constraints:
        row = [0.0] * d
        c = float(f.const)
        for v, a in f.gamma.items():
            if fixed and v in fixed:
                c += float(a) * complex(fixed[v]).real
            elif v in idx:
                row[idx[v]] = -float(a)
        rows.append(row)
        rhs.append(c)
    bound = max(10.0, 4.0 * d)
    res = linprog(
        [0.0] * d + [-1.0],
        A_ub=[row + [1.0] for row in rows],
        b_ub=rhs,
        bounds=[(-bound, bound)] * d + [(None, cap)],
        method="highs",
    )
    if not res.success:
        raise Infeasible(f"feasibility LP failed: {res.message}")
    delta = res.x[d]
    if delta < margin:
        raise Infeasible(f"best margin {delta:.4g} below requested {margin:.4g}")
    # phase two: smallest L1-norm point achieving slack delta
    target = 0.999 * delta
    rows2 = [row + [0.0] * d for row in rows]
    rhs2 = [c - target for c in rhs]
    for k in range(d):
        pos = [0.0] * (2 * d)
        pos[k], pos[d + k] = 1.0, -1.0
        rows2.append(pos)
        rhs2.append(0.0)
        neg = [0.0] * (2 * d)
        neg[k], neg[d + k] = -1.0, -1.0
        rows2.append(neg)
        rhs2.append(0.0)
    res2 = linprog(
        [0.0] * d + [1.0] * d,
        A_ub=rows2,
        b_ub=rhs2,
        bounds=[(-bound, bound)] * d + [(0.0, bound)] * d,
        method="highs",
    )
    x = res2.x[:d] if res2.success else res.x[:d]
    return {v: float(x[idx[v]]) for v in variables}


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


def _plan(supports, sizes, output=()):
    """Greedy pairwise order (numpy.einsum_path) for contracting operands
    that run over the axis tuples `supports`, keeping the axes `output`.

    Returns the einsum subscripts, the path, its flop count and the entry
    count of its largest operand or intermediate.
    """
    subs = ",".join("".join(_LETTERS[a] for a in s) for s in supports)
    subs += "->" + "".join(_LETTERS[a] for a in output)
    shapes = [np.broadcast_to(0.0, [sizes[a] for a in s]) for s in supports]
    path = np.einsum_path(subs, *shapes, optimize=("greedy", MAX_ENTRIES))[0]
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


def _contour_sum(num, den, variables, base, lam, hx, nodes, fixed=None):
    """Trapezoid sum of prod Gamma(num)/prod Gamma(den) * exp(sum z_v hx_v)
    over the tensor grid, contracted factor by factor.

    Factors that share a support are summed in log space into one table;
    the per-axis weights are vectors.  The sums on the grids of every
    second and every fourth node contract the same tables sliced, and the
    mass on each pair of boundary faces contracts the moduli with that axis
    kept.  Returns (fine, coarse, coarse4, face_abs, n_evals, mass),
    n_evals being the node count of the dense grid and mass the sum of
    the moduli of all terms.  Raises DimensionTooLarge, before any table
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

    sizes = [nd.size for nd in nodes]
    supports = list(groups) + [(k,) for k in range(d)]
    plans = [_plan(supports, sizes)] + [_plan(supports, sizes, (k,)) for k in range(d)]
    flops = sum(p[2] for p in plans)
    largest = max(p[3] for p in plans)
    if flops > MAX_FLOPS or largest > MAX_ENTRIES:
        raise DimensionTooLarge(
            f"contour contraction of {flops:.2g} flops with {largest:.2g}-entry "
            "tables exceeds the budget"
        )

    zs = [base[v] + 1j * nodes[k] for k, v in enumerate(variables)]
    tables, moduli = [], []
    for support, forms in groups.items():
        logt = 0j
        for sign, f in forms:
            arg = _form_offset(f, lam, fixed)
            for pos, k in enumerate(support):
                arg = arg + float(f.gamma[variables[k]]) * _shaped(zs[k], pos, len(support))
            logt = logt + sign * log_gamma_array(arg)
        tables.append(np.exp(logt))
        moduli.append(np.exp(logt.real))
    for k, v in enumerate(variables):
        w = np.exp(zs[k] * hx.get(v, 0.0)) * (nodes[k][1] - nodes[k][0] if sizes[k] > 1 else 1.0)
        tables.append(w)
        moduli.append(np.abs(w))

    scale = complex(np.exp(const))
    subs, path = plans[0][:2]

    def contract(step):
        sliced = [t[(slice(None, None, step),) * t.ndim] for t in tables]
        return complex(np.einsum(subs, *sliced, optimize=path)) * step**d * scale

    face_abs = []
    for k in range(d):
        edges = np.einsum(plans[k + 1][0], *moduli, optimize=plans[k + 1][1])
        face_abs.append(float(edges[0] + edges[-1]) * abs(scale))
    mass = float(edges.sum()) * abs(scale)
    return contract(1), contract(2), contract(4), face_abs, math.prod(sizes), mass


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
    """Choose shifts, truncations and panel counts for the integrand.

    `fixed` holds the complex values of symbols that are not integrated;
    their imaginary parts shift the decay profile like the spectral
    parameters do.
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
    panels = []
    for t in ts:
        m = int(math.ceil(t / h))
        m += m % 2
        panels.append(2 * m + 1)
    return ContourSpec([base[v] for v in variables], ts, panels)


def _integrate(
    integrand: MBIntegrand, lam, tol, scale, attempts, x=None, fixed=None, base=None, phase=1.0
):
    """phase * scale * Int prod Gamma(num)/prod Gamma(den) exp(sum z_v hx_v) dy
    over the shifted imaginary plane: plan, contract, estimate, refine.

    The real `scale` multiplies the error estimate too, the unit-modulus
    `phase` only the value.  At most `attempts` grids are tried.  A first
    attempt over the contraction budget raises DimensionTooLarge; a later
    one ends the refinement; NotConverged carries the last result.
    """
    t0 = time.perf_counter()
    variables = integrand.variables
    spec = plan_contour(integrand, lam, tol, x=x, base=base, fixed=fixed)
    base = dict(zip(variables, spec.base_point))
    rates = _axis_rates(integrand.num, integrand.den, variables)
    hx = _torus_slopes(integrand, x)
    value = err = None
    evals_total = 0
    for attempt in range(attempts):
        nodes = []
        for t, p in zip(spec.truncation, spec.panels):
            m = (p - 1) // 2
            nodes.append(np.arange(-m, m + 1) * (t / m if m else 1.0))
        try:
            fine, coarse, coarse4, face_abs, evals, mass = _contour_sum(
                integrand.num, integrand.den, variables, base, lam, hx, nodes, fixed
            )
        except DimensionTooLarge:
            if attempt == 0:
                raise
            break  # keep the best value computed so far
        tail = 0.0
        for k in range(len(variables)):
            h_k = nodes[k][1] - nodes[k][0] if nodes[k].size > 1 else 1.0
            tail += 3.0 * face_abs[k] / max(rates[k] * h_k, 1e-9) * h_k
        # geometric-convergence extrapolation from three dyadic levels:
        # err(h) ~ err(2h) * [err(2h)/err(4h)], capped by the raw difference
        # and never below the rounding level of the terms
        disc2 = abs(fine - coarse)
        disc4 = abs(fine - coarse4)
        disc = disc2
        if disc4 > disc2 > 0:
            disc = max(min(disc2, 4.0 * disc2 * disc2 / disc4), _ROUNDING * mass)
        evals_total += evals
        value = phase * scale * fine
        err = scale * (disc + tail)
        if err <= tol * max(abs(value), 1e-300) or abs(value) == 0.0:
            return QuadResult(value, err, evals_total, time.perf_counter() - t0)
        spec = _refine_spec(spec)
    result = QuadResult(value, err, evals_total, time.perf_counter() - t0, converged=False)
    raise NotConverged(f"estimated error {err:.3g} above tolerance", result)


def _refine_spec(spec: ContourSpec) -> ContourSpec:
    """Push the truncation out and shrink the step by 0.7."""
    trunc = [t + 2.0 for t in spec.truncation]
    panels = []
    for t_old, t_new, p in zip(spec.truncation, trunc, spec.panels):
        h_new = 0.7 * t_old / ((p - 1) // 2)
        m = int(math.ceil(t_new / h_new))
        m += m % 2
        panels.append(2 * m + 1)
    return ContourSpec(spec.base_point, trunc, panels)


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
    Raises DimensionTooLarge for d > 4 or when the first attempt's
    contraction is over budget; a refinement over budget ends the
    refinement (NotConverged with the last result).
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
    sits on a pole, and the same contraction budget (DimensionTooLarge
    when the first attempt is over it, NotConverged with the last result
    when a refinement is).
    """
    fixed = {("s", j + 1): complex(s_values[j]) for j in range(len(split.outer_vars))}
    variables = split.inner_vars
    constraints = []
    for f in split.num:
        cf = AffineForm(f.gamma, const=f.const)
        if any(v in variables for v in f.gamma) and cf not in constraints:
            constraints.append(cf)
    inner = MBIntegrand(split.family, split.n, variables, split.num, split.den, {}, constraints)
    scale = (2.0 * math.pi) ** (-len(variables)) * float(split.jacobian)
    return _integrate(inner, lam, tol, scale, 4, fixed=fixed)


# ---------------------------------------------------------------------------
# positive-cone quadrature of the defining matrix element


def _cone_phase_coeffs(family, n, lam):
    rs = build_root_system(family, n)
    out = {}
    for label in rs.positive_roots:
        kind = label[0]
        if kind == "m":
            v = lam[label[1] - 1] - lam[label[2] - 1]
        elif kind == "p":
            v = lam[label[1] - 1] + lam[label[2] - 1]
        elif family == "so_odd":
            v = 2.0 * lam[label[1] - 1]
        else:
            v = lam[label[1] - 1]
        out[label] = float(v)
    return out


def _cone_exponent(family, n, x):
    rs = build_root_system(family, n)
    out = {}
    for label in rs.positive_roots:
        row = cartan_scaling_exponent(family, n, label)
        out[label] = math.exp(sum(float(c) * xi for c, xi in zip(row, x)))
    return out


def _cone_action(family, n, coords, efac, out):
    """Add the re-exponent S(u) = sum of image coordinates + sum t_gamma E_gamma
    into `out` (zeros of the broadcast shape) and return it.

    In place, because a fresh full-size array per term and per grid slice
    costs more than the additions themselves.
    """
    for val in bz_map_coords(family, n, coords).values():
        out += val
    for label, val in coords.items():
        out += val * efac[label]
    return out


def eval_cone(
    family: str,
    n: int,
    lam,
    x,
    tol: float = 1e-6,
    seed: int = 0,
    force_qmc: bool = False,
) -> QuadResult:
    """Wave-function value as the positive-cone pairing of the two vectors.

    In logarithmic coordinates u = log t the integrand is
    exp(-S(u) - i phase(u)) with S the sum of image and rescaled chart
    coordinates and phase(u) linear.  For d <= 4 a tensor trapezoid rule
    sums it slice by slice: each slice holds the real weight exp(-S),
    contracted with one phase vector per axis (see _cone_sum).  Beyond
    that (d <= 8) it uses scrambled Sobol sampling.
    """
    t0 = time.perf_counter()
    rs = build_root_system(family, n)
    labels = list(rs.positive_roots)
    d = len(labels)
    if d > 8:
        raise DimensionTooLarge(f"cone quadrature limited to d <= 8, got {d}")
    efac = _cone_exponent(family, n, x)
    phase = _cone_phase_coeffs(family, n, lam)
    lt = math.log(10.0 / tol) + 6.0

    def action(uvals):
        coords = {lab: np.exp(uvals[k]) for k, lab in enumerate(labels)}
        return _cone_action(family, n, coords, efac, np.zeros(()))

    # locate the minimum of S coarsely, then march out per axis
    probe = np.linspace(-4.0, 3.0, 8)
    center = [0.0] * d
    s_center = float(action(np.array(center)))
    for sweep in range(2):
        for k in range(d):
            best, best_s = center[k], None
            for val in probe:
                trial = list(center)
                trial[k] = float(val)
                s = float(action(np.array(trial)))
                if best_s is None or s < best_s:
                    best, best_s = float(val), s
            center[k] = best
        s_center = float(action(np.array(center)))
    # march outward along axes and diagonal sign patterns; the reach of
    # every direction widens the box, so slow cross-directions cannot
    # hide beyond the truncation
    if d <= 4:
        dirs = [
            v
            for v in itertools.product((-1.0, 0.0, 1.0), repeat=d)
            if any(c != 0 for c in v)
        ]
    else:
        rng_dirs = np.random.default_rng(12345)
        dirs = [tuple(v) for v in np.eye(d)] + [tuple(-v) for v in np.eye(d)]
        dirs += [
            tuple(rng_dirs.choice((-1.0, 0.0, 1.0), size=d))
            for _ in range(48)
        ]
        dirs = [v for v in dirs if any(c != 0 for c in v)]
    lo_b = [center[k] - 1.0 for k in range(d)]
    hi_b = [center[k] + 1.0 for k in range(d)]
    for v in dirs:
        t = 0.0
        while t < 80.0:
            t += 0.5
            trial = [center[k] + t * v[k] for k in range(d)]
            if float(action(np.array(trial))) - s_center >= lt:
                break
        for k in range(d):
            if v[k] > 0:
                hi_b[k] = max(hi_b[k], center[k] + t * v[k] + 1.0)
            elif v[k] < 0:
                lo_b[k] = min(lo_b[k], center[k] - t * (-v[k]) - 1.0)
    bounds = list(zip(lo_b, hi_b))

    pref = complex(math.cos(-_dotf(lam, x)), math.sin(-_dotf(lam, x)))

    if d > 4 or force_qmc:
        return _cone_qmc(family, n, labels, efac, phase, bounds, pref, tol, seed, t0)

    nu_mag = max((abs(v) for v in phase.values()), default=0.0)
    h = min(0.34, 2.0 * math.pi / (12.0 + 2.0 * nu_mag))
    evals_total = 0
    prev = None
    diff_prev = None
    value = err = None
    for attempt in range(5):
        nodes = []
        for k in range(d):
            lo, hi = bounds[k]
            m = int(math.ceil((hi - lo) / h))
            nodes.append(np.linspace(lo, lo + m * h, m + 1))
        total, face_mass, evals = _cone_sum(family, n, labels, efac, phase, nodes, s_center)
        evals_total += evals
        value = pref * total * math.exp(-s_center)
        face = face_mass * math.exp(-s_center)
        if face > 0.1 * tol * abs(value):
            # boundary carries mass: widen the box and retry
            bounds = [(lo - 1.5, hi + 1.5) for lo, hi in bounds]
            prev = diff_prev = None
            continue
        if prev is not None:
            diff = abs(value - prev)
            err = diff
            if diff_prev is not None and diff_prev > diff > 0:
                err = min(diff, 4.0 * diff * diff / diff_prev)
            err += face
            if err <= tol * max(abs(value), 1e-300):
                return QuadResult(value, err, evals_total, time.perf_counter() - t0)
            diff_prev = diff
        prev = value
        h *= 0.65
    result = QuadResult(value, err, evals_total, time.perf_counter() - t0, converged=False)
    raise NotConverged(f"cone quadrature not converged (err {err:.3g})", result)


def _cone_sum(family, n, labels, efac, phase, nodes, s_shift):
    """Trapezoid sum of exp(-(S - s_shift) - i phase) over the tensor grid;
    also returns the absolute mass sitting on the boundary faces.

    The phase is linear in u, so exp(-i phase) is a product of one vector
    per axis and |integrand| = exp(-(S - s_shift)).  Each slice of the
    first axis holds only that real weight: the phase vectors contract it,
    and the face masses are plain sums of it.
    """
    d = len(labels)
    hs = [float(nd[1] - nd[0]) if nd.size > 1 else 1.0 for nd in nodes]
    voxel = math.prod(hs)
    waves = [np.exp(-1j * phase[lab] * nd) for lab, nd in zip(labels, nodes)]

    buf = np.empty([nd.size for nd in (nodes if d == 1 else nodes[1:])])

    def weight(coords):
        buf.fill(0.0)
        _cone_action(family, n, coords, efac, buf)
        np.subtract(s_shift, buf, out=buf)
        return np.exp(buf, out=buf)

    def contract(w, vecs):
        acc = w @ vecs[-1].real + 1j * (w @ vecs[-1].imag)
        for vec in reversed(vecs[:-1]):
            acc = acc @ vec
        return complex(acc)

    if d == 1:
        w = weight({labels[0]: np.exp(nodes[0])})
        return contract(w, waves) * voxel, float(w[0] + w[-1]) * voxel, w.size

    total = 0j
    face_mass = 0.0
    n0 = nodes[0].size
    inner = {lab: np.exp(_shaped(nodes[k], k - 1, d - 1)) for k, lab in enumerate(labels) if k}
    for i0 in range(n0):
        w = weight({labels[0]: math.exp(nodes[0][i0]), **inner})
        total += waves[0][i0] * contract(w, waves[1:])
        if i0 == 0 or i0 == n0 - 1:
            face_mass += float(w.sum())
        for k in range(d - 1):
            face_mass += float(w.take(0, axis=k).sum()) + float(w.take(-1, axis=k).sum())
    return total * voxel, face_mass * voxel, n0 * w.size


def _cone_qmc(family, n, labels, efac, phase, bounds, pref, tol, seed, t0):
    from scipy.stats import qmc

    d = len(labels)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    vol = float(np.prod(hi - lo))
    reps = 8
    m = 13  # 8192 points per replicate
    vals = []
    evals = 0
    for r in range(reps):
        sob = qmc.Sobol(d, scramble=True, seed=seed + r)
        pts = lo + sob.random_base2(m) * (hi - lo)
        coords = {lab: np.exp(pts[:, k]) for k, lab in enumerate(labels)}
        s = _cone_action(family, n, coords, efac, np.zeros(pts.shape[0]))
        ph = np.zeros(pts.shape[0])
        for k, lab in enumerate(labels):
            ph = ph + phase[lab] * pts[:, k]
        arr = np.exp(-s - 1j * ph)
        vals.append(complex(arr.mean()) * vol)
        evals += pts.shape[0]
    vals = np.array(vals)
    value = pref * complex(vals.mean())
    err = float(np.abs(vals - vals.mean()).std()) * 3.0 / math.sqrt(reps)
    return QuadResult(value, err, evals, time.perf_counter() - t0, converged=True)


# ---------------------------------------------------------------------------
# oracles


def bessel_k_imag_order(nu: float, z: float) -> float:
    """K_{i nu}(z) for real nu and z > 0, via the symmetric cosh integral.

    The integrand is even and decays double-exponentially, so the
    trapezoid rule on a symmetric grid converges geometrically.
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
    # heavy cancellation: redo the same integral in extended precision
    import mpmath as mp

    with mp.workdps(40):
        val = mp.quad(lambda t: mp.exp(-z * mp.cosh(t)) * mp.cos(nu * t), [0, u_max])
    return float(val)


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
    forms = [AffineForm({(name,): 1, s: sign}) for name, sign in zip("abcd", (1, 1, -1, -1))]
    integrand = MBIntegrand("barnes", 0, [s], forms, [], {}, forms)
    return _integrate(integrand, (), tol, 1.0 / (2.0 * math.pi), 4, fixed=fixed).value
