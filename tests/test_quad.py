import cmath
import math
import random

import mpmath
import numpy as np
import pytest

from whittaker_mb.mellin import AffineForm, assemble_mb_integrand, mellin_of_whittaker
from whittaker_mb.gammafn import PoleHit, abs_gamma_envelope, log_gamma_array
from whittaker_mb.quadrature import (
    _cone_action,
    _cone_exponent,
    _cone_phase_coeffs,
    _cone_sum,
    _contour_sum,
    DimensionTooLarge,
    Infeasible,
    NotConverged,
    barnes_first_lemma_quad,
    bessel_k_imag_order,
    contour_base_point,
    constraint_slacks,
    eval_cone,
    eval_mb,
    eval_mellin_transform,
    log_gamma_complex,
    plan_contour,
)
from whittaker_mb.roots import build_root_system


def closed_gl2(lam, x):
    nu = lam[0] - lam[1]
    u = math.exp(x[0] - x[1])
    phase = cmath.exp(-1j * (lam[0] * x[0] + lam[1] * x[1]))
    return phase * 2 * complex(u) ** (0.5j * nu) * complex(mpmath.besselk(1j * nu, 2 * math.sqrt(u)))


class TestLogGamma:
    def test_integer_values(self):
        assert log_gamma_complex(1) == pytest.approx(0.0, abs=1e-14)
        assert log_gamma_complex(5) == pytest.approx(math.log(24), rel=1e-14)

    def test_half(self):
        assert log_gamma_complex(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)

    def test_pole(self):
        with pytest.raises(PoleHit):
            log_gamma_complex(-3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_array_pole_is_typed(self):
        with pytest.raises(PoleHit):
            log_gamma_array(np.array([[0.5, 1.0 + 2.0j], [-2.0, 3.0]]))
        with pytest.raises(PoleHit):
            log_gamma_array(0.0)
        # next to the poles, and on their line off the real axis: finite
        near = np.array([-2.5, -3.0 + 1e-9j, -1e-12, 0.0 + 0.5j])
        assert np.all(np.isfinite(log_gamma_array(near)))

    def test_array_values_do_not_depend_on_shape(self):
        rng = np.random.default_rng(5)
        z = rng.uniform(-4, 6, (3, 4)) + 1j * rng.uniform(-5, 5, (3, 4))
        grid = log_gamma_array(z)
        assert grid.shape == z.shape
        for idx in np.ndindex(z.shape):
            assert complex(log_gamma_array(z[idx])) == grid[idx]
            assert log_gamma_complex(z[idx]) == grid[idx]

    def test_against_reference_disk(self):
        rng = random.Random(99)
        for _ in range(300):
            x = rng.uniform(-49, 49)
            y = rng.uniform(-49, 49)
            z = complex(x, y)
            if abs(z) > 50 or (abs(y) < 0.3 and x < 0.5):
                continue  # stay off the pole line
            ours = log_gamma_complex(z)
            ref = complex(mpmath.loggamma(z))
            assert abs(ours - ref) <= 1e-13 * max(1.0, abs(ref))

    def test_true_asymptotic_envelope(self):
        # on the line Re z = 1/2 the decay envelope is exponentially exact
        for y in (10.0, 20.0, 40.0):
            direct = math.exp(log_gamma_complex(complex(0.5, y)).real)
            assert direct == pytest.approx(abs_gamma_envelope(0.5, y), rel=1e-6)
        # away from Re z = 1/2 it is a truncation guide, good to a few percent
        for y in (10.0, 20.0, 40.0):
            direct = math.exp(log_gamma_complex(complex(1.7, y)).real)
            assert direct == pytest.approx(abs_gamma_envelope(1.7, y), rel=5e-2)


class TestBasePoint:
    def test_quoted_staircase_point_is_feasible(self):
        n = 4
        mb = assemble_mb_integrand("gl", n)
        point = {("g", k, l): float(n - k) for k in range(1, n) for l in range(k + 1, n + 1)}
        assert min(constraint_slacks(mb.constraints, point)) > 0

    def test_single_constraint(self):
        base = contour_base_point([AffineForm({("g", 1, 2): 1})])
        assert base[("g", 1, 2)] > 0.125

    def test_contradictory_set_infeasible(self):
        forms = [AffineForm({("g", 1, 2): 1}), AffineForm({("g", 1, 2): -1})]
        with pytest.raises(Infeasible):
            contour_base_point(forms)

    def test_plan_reports_spec(self):
        mb = assemble_mb_integrand("gl", 2)
        spec = plan_contour(mb, (0.0, 0.0), 1e-6)
        assert len(spec.base_point) == 1
        assert spec.panels[0] % 2 == 1
        assert spec.total_nodes == spec.panels[0]


class TestEvalMB:
    def test_bessel_closed_form(self):
        mb = assemble_mb_integrand("gl", 2)
        rng = random.Random(31)
        for _ in range(3):
            lam = (rng.uniform(-2, 2), rng.uniform(-2, 2))
            x = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            got = eval_mb(mb, x, lam, tol=1e-8).value
            ref = closed_gl2(lam, x)
            assert abs(got - ref) / abs(ref) < 1e-7

    def test_k0_special_point(self):
        mb = assemble_mb_integrand("gl", 2)
        got = eval_mb(mb, (0.0, 0.0), (0.0, 0.0), tol=1e-9).value
        assert got.real == pytest.approx(2 * 0.11389387274953344, rel=1e-9)
        assert abs(got.imag) < 1e-12

    def test_prefactor_linearity(self):
        # an extra constant Gamma factor scales the result exactly
        mb = assemble_mb_integrand("gl", 2)
        scaled = assemble_mb_integrand("gl", 2)
        scaled.num = scaled.num + [AffineForm(const=3)]  # Gamma(3) = 2
        a = eval_mb(mb, (0.1, -0.2), (0.5, -0.5), tol=1e-8).value
        b = eval_mb(scaled, (0.1, -0.2), (0.5, -0.5), tol=1e-8).value
        assert b == pytest.approx(2 * a, rel=1e-10)

    def test_dimension_guard(self):
        mb = assemble_mb_integrand("gl", 4)  # d = 6
        with pytest.raises(DimensionTooLarge):
            eval_mb(mb, (0,) * 4, (0,) * 4)

    def test_not_converged_carries_partial_result(self):
        mb = assemble_mb_integrand("gl", 2)
        with pytest.raises(NotConverged) as exc:
            eval_mb(mb, (0.0, 0.0), (0.0, 0.0), tol=1e-15, max_refine=0)
        assert exc.value.result is not None
        assert exc.value.result.value.real == pytest.approx(0.2277877454990669, rel=1e-6)
        assert not exc.value.result.converged

    def test_contour_shift_independence(self):
        mb = assemble_mb_integrand("gl", 3)
        base = contour_base_point(mb.constraints, variables=mb.variables)
        lam, x = (0.8, -0.1, -0.4), (0.2, 0.0, -0.3)
        ref = eval_mb(mb, x, lam, tol=1e-8).value
        shifted = dict(base)
        shifted[("g", 1, 2)] += 0.4
        shifted[("g", 2, 3)] += 0.2
        got = eval_mb(mb, x, lam, tol=1e-8, base_point=shifted).value
        assert abs(got - ref) / abs(ref) < 1e-7

    def test_invalid_base_point_rejected(self):
        mb = assemble_mb_integrand("gl", 2)
        with pytest.raises(Infeasible):
            eval_mb(mb, (0, 0), (0, 0), base_point={("g", 1, 2): -1.0})


class TestEvalCone:
    def test_k0_special_point(self):
        got = eval_cone("gl", 2, (0.0, 0.0), (0.0, 0.0), tol=1e-10).value
        assert got.real == pytest.approx(2 * 0.11389387274953344, rel=1e-10)

    def test_positive_at_zero_spectral_parameter(self):
        for family, n in (("gl", 3), ("so_odd", 1), ("sp", 2)):
            got = eval_cone(family, n, (0.0,) * n, (0.2,) * n, tol=1e-6).value
            assert got.real > 0
            assert abs(got.imag) < 1e-9 * got.real

    @pytest.mark.parametrize(
        "family,n,tol",
        [("so_even", 2, 1e-6), ("sp", 1, 1e-8), ("so_odd", 1, 1e-8)],
    )
    def test_route_equivalence_spot(self, family, n, tol):
        rng = random.Random(hash((family, n)) & 0xFFF)
        lam = tuple(rng.uniform(-1.5, 1.5) for _ in range(n))
        x = tuple(rng.uniform(-0.8, 0.8) for _ in range(n))
        mb = assemble_mb_integrand(family, n)
        a = eval_mb(mb, x, lam, tol=tol).value
        b = eval_cone(family, n, lam, x, tol=tol).value
        assert abs(a - b) / abs(b) < 100 * tol

    def test_qmc_agrees_with_tensor_grid(self):
        lam, x = (0.6, -0.4), (0.2, -0.1)
        a = eval_cone("so_odd", 2, lam, x, tol=1e-6).value
        b = eval_cone("so_odd", 2, lam, x, tol=1e-2, seed=4, force_qmc=True)
        assert abs(a - b.value) <= max(5e-2 * abs(a), 4 * b.est_error)

    def test_qmc_deterministic_given_seed(self):
        a = eval_cone("so_odd", 2, (0.5, -0.5), (0.1, 0.0), force_qmc=True, seed=7)
        b = eval_cone("so_odd", 2, (0.5, -0.5), (0.1, 0.0), force_qmc=True, seed=7)
        assert a.value == b.value

    def test_decay_into_positive_chamber(self):
        # |Psi| falls along a ray into the dominant chamber
        vals = []
        for tstep in (0.0, 0.5, 1.0, 1.5):
            x = (tstep, 0.0, -tstep)
            vals.append(abs(eval_cone("gl", 3, (0.4, 0.1, -0.5), x, tol=1e-7).value))
        assert all(vals[k + 1] < vals[k] for k in range(len(vals) - 1))
        vals2 = []
        for tstep in (0.0, 0.7, 1.4, 2.1):
            vals2.append(abs(eval_cone("gl", 2, (0.3, -0.3), (tstep, -tstep), tol=1e-8).value))
        assert all(b < a for a, b in zip(vals2, vals2[1:]))


class TestOracles:
    def test_k0_published_value(self):
        assert bessel_k_imag_order(0.0, 2.0) == pytest.approx(0.1138938727495334, rel=1e-10)

    def test_against_mpmath_grid(self):
        for nu in (0.3, 1.5, 7.0, 20.0):
            for z in (0.1, 0.9, 3.0, 10.0):
                ref = complex(mpmath.besselk(1j * nu, z)).real
                assert bessel_k_imag_order(nu, z) == pytest.approx(ref, rel=1e-10, abs=1e-280)

    def test_symmetry_in_order(self):
        assert bessel_k_imag_order(1.2, 0.8) == bessel_k_imag_order(-1.2, 0.8)

    def test_monotone_in_argument(self):
        vals = [bessel_k_imag_order(0.7, z) for z in (0.5, 1.0, 2.0, 4.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_first_barnes_lemma(self):
        rng = random.Random(17)
        for _ in range(3):
            a, b, c, d = (complex(rng.uniform(0.3, 1.2), rng.uniform(-0.5, 0.5)) for _ in range(4))
            lhs = barnes_first_lemma_quad(a, b, c, d, tol=1e-10)
            rhs = cmath.exp(
                log_gamma_complex(a + c)
                + log_gamma_complex(a + d)
                + log_gamma_complex(b + c)
                + log_gamma_complex(b + d)
                - log_gamma_complex(a + b + c + d)
            )
            assert abs(lhs - rhs) / abs(rhs) < 1e-9

    def test_barnes_unreachable_tol_carries_partial_result(self):
        a, b, c, d = 0.6 + 0.1j, 0.9, 0.7 - 0.3j, 1.1
        with pytest.raises(NotConverged) as exc:
            barnes_first_lemma_quad(a, b, c, d, tol=1e-20)
        res = exc.value.result
        assert res is not None and not res.converged
        assert abs(res.value - barnes_first_lemma_quad(a, b, c, d)) <= 1e-9 * abs(res.value)

    def test_barnes_narrow_strip_is_infeasible(self):
        # -min(Re a, Re b) = -0.1 and min(Re c, Re d) = 0.14: a strip 0.24 wide
        with pytest.raises(Infeasible):
            barnes_first_lemma_quad(0.1, 0.5, 0.14, 0.6)
        with pytest.raises(Infeasible):
            barnes_first_lemma_quad(-0.5, 0.5, 0.2, 0.6)  # no strip at all


def _close(got, ref, rel=1e-13):
    return abs(got - ref) <= rel * abs(ref)


def _dense_contour(num, den, variables, base, lam, hx, nodes, fixed):
    """The contour sums of _contour_sum, from the whole grid at once."""
    d = len(variables)
    grids = np.meshgrid(*[base[v] + 1j * nd for v, nd in zip(variables, nodes)], indexing="ij")
    z = dict(zip(variables, grids))
    logf = sum(z[v] * hx.get(v, 0.0) for v in variables)
    for sign, forms in ((1.0, num), (-1.0, den)):
        for f in forms:
            arg = f.eval({**fixed, **z}, lam)
            logf = logf + sign * log_gamma_array(arg + np.zeros(grids[0].shape))
    arr = np.exp(logf) * math.prod(nd[1] - nd[0] for nd in nodes)
    coarse = [arr[(slice(None, None, step),) * d].sum() * step**d for step in (2, 4)]
    mod = np.abs(arr)
    faces = [mod.take(0, axis=k).sum() + mod.take(-1, axis=k).sum() for k in range(d)]
    return complex(arr.sum()), complex(coarse[0]), complex(coarse[1]), faces, arr.size, mod.sum()


def _dense_cone(family, n, labels, efac, phase, nodes, s_shift):
    """The cone sum of _cone_sum, from the complex integrand on the whole grid."""
    grids = np.meshgrid(*nodes, indexing="ij")
    coords = {lab: np.exp(g) for lab, g in zip(labels, grids)}
    s = _cone_action(family, n, coords, efac, np.zeros(grids[0].shape))
    ph = sum(phase[lab] * g for lab, g in zip(labels, grids))
    voxel = math.prod(nd[1] - nd[0] for nd in nodes)
    arr = np.exp(-(s - s_shift) - 1j * ph)
    mod = np.abs(arr)
    face = sum(mod.take(0, axis=k).sum() + mod.take(-1, axis=k).sum() for k in range(len(labels)))
    return complex(arr.sum()) * voxel, face * voxel, arr.size


class TestContractedKernels:
    # half-widths m of the axes (2m + 1 nodes): none a multiple of four
    HALF = (3, 5, 7, 6)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_contour_sum_matches_dense_grid(self, d):
        g = [("g", k + 1, k + 2) for k in range(d)]
        s1 = ("s", 1)
        num = [AffineForm({g[k]: 1}, {1: 0.5}, const=1) for k in range(d)]
        num += [AffineForm({g[k]: 1, g[k + 1]: -1}, const=2) for k in range(d - 1)]
        num += [AffineForm({g[0]: -1, s1: 1}, const=2)]  # fixed outer variable
        num += [AffineForm({g[d - 1]: 1, g[0]: 1}, {2: -1}, const=2)]  # shares a support
        num += [AffineForm(const=3)]  # constant factor
        den = [AffineForm({g[0]: 1, g[d - 1]: 1}, const=3), AffineForm({s1: 1}, const=1)]
        base = {v: 0.3 + 0.1 * k for k, v in enumerate(g)}
        lam = (0.4, -0.7)
        hx = {g[0]: 0.3, g[d - 1]: -0.2}
        fixed = {s1: 0.7 + 0.2j}
        nodes = [np.arange(-m, m + 1) * 0.3 for m in self.HALF[:d]]
        got = _contour_sum(num, den, g, base, lam, hx, nodes, fixed)
        ref = _dense_contour(num, den, g, base, lam, hx, nodes, fixed)
        for a, b in zip(got[:3], ref[:3]):
            assert _close(a, b)
        assert len(got[3]) == d
        for a, b in zip(got[3], ref[3]):
            assert _close(a, b)
        assert got[4] == ref[4] == math.prod(2 * m + 1 for m in self.HALF[:d])
        assert _close(got[5], ref[5])

    @pytest.mark.parametrize(
        "family,n", [("gl", 2), ("so_even", 2), ("gl", 3), ("sp", 2), ("so_odd", 2)]
    )
    def test_cone_sum_matches_dense_grid(self, family, n):
        labels = list(build_root_system(family, n).positive_roots)
        lam, x = (0.5, -0.8, 0.3)[:n], (0.2, -0.1, 0.1)[:n]
        efac = _cone_exponent(family, n, x)
        phase = _cone_phase_coeffs(family, n, lam)
        nodes = [np.linspace(-2.0, 1.0, 2 * m + 1) for m in self.HALF[: len(labels)]]
        got = _cone_sum(family, n, labels, efac, phase, nodes, 1.5)
        ref = _dense_cone(family, n, labels, efac, phase, nodes, 1.5)
        assert _close(got[0], ref[0])
        assert _close(got[1], ref[1])
        assert got[2] == ref[2]


class TestContractionBudget:
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda: eval_mb(assemble_mb_integrand("gl", 2), (0.0, 0.0), (0.0, 0.0)),
            lambda: eval_mellin_transform(
                mellin_of_whittaker("gl", 3), (0.8, 1.1), (0.5, 0.0, -0.5)
            ),
        ],
        ids=["eval_mb", "eval_mellin_transform"],
    )
    def test_first_attempt_over_budget_is_typed(self, monkeypatch, evaluate):
        import whittaker_mb.quadrature as quad

        monkeypatch.setattr(quad, "MAX_FLOPS", 10.0)
        with pytest.raises(DimensionTooLarge):
            evaluate()

    def test_so_even3_mellin_ends_typed_within_budget(self, tmp_path):
        import json
        import tracemalloc

        from whittaker_mb import cli
        from whittaker_mb.quadrature import MAX_ENTRIES

        argv = ["mellin-table", "--group", "so-even", "--rank", "3",
                "--lambda", "0.5,-0.3,0.2", "--s-grid", "1:1:1", "--format", "json"]
        out = tmp_path / "t.json"
        tracemalloc.start()
        try:
            code = cli.main(argv + ["--output", str(out)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # NotConverged with the partial row, or DimensionTooLarge
        assert code in (2, 3)
        if code == 3:
            row = json.loads(out.read_text())["rows"][0]
            assert math.isfinite(row["re"]) and math.isfinite(row["im"])
        # the next refinement would need a 441^3 table (1.28 GiB) alone
        assert peak < 16 * MAX_ENTRIES * 16
