"""Batch command-line surface: verification sweeps, evaluation, tabulation.

Exit codes: 0 success, 1 verification failure, 2 usage error (also a
point outside the contour domain, a Gamma pole, or a contraction over
budget on its first attempt), 3 numerical non-convergence.  Output is
deterministic for a fixed configuration and seed: no timestamps, sorted
JSON keys, fixed float formatting.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from fractions import Fraction


GROUPS = {"gl": "gl", "so-even": "so_even", "so-odd": "so_odd", "sp": "sp"}


class UsageError(ValueError):
    pass


def _parse_vector(text: str, rank: int, what: str):
    try:
        vals = [float(v) for v in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"cannot parse {what} {text!r}") from exc
    if len(vals) != rank:
        raise UsageError(f"{what} needs {rank} components, got {len(vals)}")
    if not all(map(math.isfinite, vals)):
        raise UsageError(f"{what} must be finite, got {text!r}")
    return vals


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError(f"--tol must be finite and positive, got {tol!r}")


def _write_output(text: str, path):
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _csv_dump(header, rows) -> str:
    import csv
    import io

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\r\n")
    w.writerow(header)
    for row in rows:
        w.writerow(row)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# verify


def _verify_report(group: str, rank: int, trials: int, seed: int) -> dict:
    import random

    from . import bz as bzmod
    from .charts import (
        measure_jacobian_logdet,
        mutate_a2,
        mutate_b2,
        mutate_g2,
        RANK2_MONOMIALS,
        RANK2_LENGTH_CLASSES,
    )
    from .bz import (
        bz_inverse,
        bz_oracle,
        bz_twist_coords,
        random_positive_chart,
        u_matrix_check,
    )

    family = GROUPS[group]
    rng = random.Random(seed)
    checks = []

    def run_check(name, fn, count):
        passed = 0
        counterexample = None
        for k in range(count):
            ok, ce = fn(k)
            if ok:
                passed += 1
            elif counterexample is None:
                counterexample = ce
        checks.append(
            {
                "name": name,
                "passed": passed,
                "failed": count - passed,
                "counterexample": counterexample,
            }
        )

    def chart_json(chart):
        return {
            "_".join(map(str, k)): str(v) for k, v in sorted(chart.coords.items())
        }

    def closed_vs_oracle(_):
        ch = random_positive_chart(family, rank, rng)
        a = bzmod.bz_closed_form(ch)
        b = bz_oracle(ch)
        ok = a.image_chart == b.image_chart and a.twist == b.twist
        return ok, None if ok else chart_json(ch)

    def involution(_):
        ch = random_positive_chart(family, rank, rng)
        ok = bzmod.bz_closed_form(bzmod.bz_closed_form(ch).image_chart).image_chart == ch
        return ok, None if ok else chart_json(ch)

    def inverse_roundtrip(_):
        ch = random_positive_chart(family, rank, rng)
        ok = bz_inverse(family, bzmod.bz_closed_form(ch).image_chart) == ch
        return ok, None if ok else chart_json(ch)

    def cone_preserved(_):
        ch = random_positive_chart(family, rank, rng)
        ok = bzmod.bz_closed_form(ch).image_chart.in_positive_cone
        return ok, None if ok else chart_json(ch)

    def twist_duality(_):
        ch = random_positive_chart(family, rank, rng)
        res = bzmod.bz_closed_form(ch)
        recip = {k: 1 / v for k, v in res.image_chart.coords.items()}
        ok = bz_twist_coords(family, rank, recip) == res.twist
        return ok, None if ok else chart_json(ch)

    def u_structure(_):
        ch = random_positive_chart(family, rank, rng)
        try:
            u_matrix_check(ch)
            return True, None
        except bzmod.StructureViolation as exc:
            ce = chart_json(ch)
            ce["violation"] = str(exc)
            return False, ce

    def bz_measure(_):
        ch = random_positive_chart(family, rank, rng)
        rs = ch.root_system
        labels = rs.positive_roots

        def as_map(vals):
            coords = dict(zip(labels, vals))
            img = bzmod.bz_map_coords(family, rank, coords)
            return tuple(img[l] for l in labels)

        det = measure_jacobian_logdet(as_map, ch.values_in_order())
        ok = det == 1
        return ok, None if ok else chart_json(ch)

    def rand_tuple(k):
        return tuple(Fraction(rng.randint(1, 100), rng.randint(1, 100)) for _ in range(k))

    def mutation_suite(_):
        for name, mut, size in (
            ("a2", mutate_a2, 3),
            ("b2", mutate_b2, 4),
            ("g2", mutate_g2, 6),
        ):
            pt = rand_tuple(size)
            out = mut(pt)
            if mut(out) != pt:
                return False, {"pattern": name, "point": [str(v) for v in pt]}
            for cls in RANK2_LENGTH_CLASSES[name]:
                if sum(pt[i] for i in cls) != sum(out[i] for i in cls):
                    return False, {"pattern": name, "point": [str(v) for v in pt]}
            for expo in RANK2_MONOMIALS[name].values():
                before = after = Fraction(1)
                for i, e in enumerate(expo):
                    before *= pt[i] ** e
                    after *= out[i] ** e
                if before != after:
                    return False, {"pattern": name, "point": [str(v) for v in pt]}
            if any(v <= 0 for v in out):
                return False, {"pattern": name, "point": [str(v) for v in pt]}
            det = measure_jacobian_logdet(mut, pt)
            if det != 1:
                return False, {"pattern": name, "point": [str(v) for v in pt]}
        return True, None

    run_check("closed_form_equals_oracle", closed_vs_oracle, trials)
    run_check("involution", involution, trials)
    run_check("inverse_roundtrip", inverse_roundtrip, trials)
    run_check("positive_cone_preserved", cone_preserved, trials)
    run_check("twist_duality", twist_duality, trials)
    run_check("u_matrix_structure", u_structure, max(1, trials // 2))
    run_check("measure_preservation", bz_measure, max(1, trials // 5))
    run_check("rank2_mutations", mutation_suite, max(1, trials // 5))

    ok = all(c["failed"] == 0 for c in checks)
    return {
        "command": "verify",
        "group": group,
        "rank": rank,
        "trials": trials,
        "seed": seed,
        "checks": checks,
        "ok": ok,
    }


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    report = _verify_report(args.group, args.rank, args.trials, args.seed)
    if args.format == "json":
        text = _json_dumps(report)
    else:
        rows = [
            [c["name"], c["passed"], c["failed"], json.dumps(c["counterexample"])]
            for c in report["checks"]
        ]
        text = _csv_dump(["check", "passed", "failed", "counterexample"], rows)
    _write_output(text, args.output)
    return 0 if report["ok"] else 1


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    from .mellin import assemble_mb_integrand
    from .quadrature import NotConverged, eval_cone, eval_mb

    _check_tol(args.tol)
    family = GROUPS[args.group]
    lam = _parse_vector(args.lam, args.rank, "--lambda")
    x = _parse_vector(args.x, args.rank, "--x")
    record = {
        "command": "eval",
        "group": args.group,
        "rank": args.rank,
        "lambda": lam,
        "x": x,
        "method": args.method,
        "tol": args.tol,
    }
    exit_code = 0
    results = {}
    try:
        if args.method in ("mb", "cross"):
            mb = assemble_mb_integrand(family, args.rank)
            r = eval_mb(mb, x, lam, tol=args.tol)
            results["mb"] = r
        if args.method in ("cone", "cross"):
            r = eval_cone(family, args.rank, lam, x, tol=args.tol)
            results["cone"] = r
    except NotConverged as exc:
        record["error"] = str(exc)
        if exc.result is not None:
            results.setdefault("partial", exc.result)
        exit_code = 3
    for name, r in results.items():
        record[name] = {
            "re": r.value.real,
            "im": r.value.imag,
            "abs": abs(r.value),
            "est_error": r.est_error,
            "evaluations": r.evaluations,
            "converged": r.converged,
        }
    if args.method == "cross" and "mb" in results and "cone" in results:
        a, b = results["mb"].value, results["cone"].value
        record["cross_rel_deviation"] = abs(a - b) / max(abs(b), 1e-300)
    if args.format == "json":
        text = _json_dumps(record)
    else:
        header = ["method", "re", "im", "abs", "est_error", "evaluations"]
        rows = [
            [m, r.value.real, r.value.imag, abs(r.value), r.est_error, r.evaluations]
            for m, r in results.items()
        ]
        text = _csv_dump(header, rows)
    _write_output(text, args.output)
    return exit_code


# ---------------------------------------------------------------------------
# mellin table


def _parse_grid(spec: str):
    # "start:stop:count" per outer variable, semicolon-separated
    axes = []
    for part in spec.split(";"):
        bits = part.split(":")
        if len(bits) != 3:
            raise UsageError(f"grid axis {part!r} is not start:stop:count")
        try:
            start, stop, count = float(bits[0]), float(bits[1]), int(bits[2])
        except ValueError as exc:
            raise UsageError(f"cannot parse grid axis {part!r}") from exc
        if count < 1:
            raise UsageError("grid count must be positive")
        if count == 1:
            axis = [start]
        else:
            step = (stop - start) / (count - 1)
            axis = [start + step * k for k in range(count)]
        if not all(map(math.isfinite, [stop, *axis])):
            raise UsageError(f"grid axis {part!r} is not finite")
        axes.append(axis)
    return axes


def cmd_mellin_table(args) -> int:
    import itertools

    from .mellin import bump_gl3, mellin_of_whittaker
    from .quadrature import NotConverged, eval_mellin_transform

    _check_tol(args.tol)
    family = GROUPS[args.group]
    lam = _parse_vector(args.lam, args.rank, "--lambda")
    split = mellin_of_whittaker(family, args.rank)
    n_outer = len(split.outer_vars)
    axes = _parse_grid(args.s_grid)
    if len(axes) == 1 and n_outer > 1:
        axes = axes * n_outer
    if len(axes) != n_outer:
        raise UsageError(f"grid needs {n_outer} axes for {args.group} rank {args.rank}")
    use_oracle = family == "gl" and args.rank == 3
    header = [f"s{k + 1}" for k in range(n_outer)] + [
        "re",
        "im",
        "abs",
        "oracle_re",
        "oracle_im",
        "rel_dev",
    ]
    rows = []
    exit_code = 0
    records = []
    for point in itertools.product(*axes):
        try:
            r = eval_mellin_transform(split, point, lam, tol=args.tol)
        except NotConverged as exc:
            exit_code = 3
            r = exc.result
        # a row without a finite result (r None) has null values
        record = dict.fromkeys(header[n_outer:])
        record["s"] = list(point)
        if r is not None:
            v = r.value
            record.update(re=v.real, im=v.imag, abs=abs(v))
        if use_oracle:
            ref = bump_gl3(lam, point[0], point[1])
            record.update(oracle_re=ref.real, oracle_im=ref.imag)
            if r is not None:
                record["rel_dev"] = abs(v - ref) / max(abs(ref), 1e-300)
        records.append(record)
        cells = [record[k] for k in header[n_outer:]]
        rows.append(list(point) + ["" if c is None else c for c in cells])
    if args.format == "csv":
        text = _csv_dump(header, rows)
    else:
        text = _json_dumps(
            {
                "command": "mellin-table",
                "group": args.group,
                "rank": args.rank,
                "lambda": lam,
                "rows": records,
            }
        )
    _write_output(text, args.output)
    return exit_code


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser unchanged.
    # No abbreviated options: _glue_negative_values matches full names only.
    p = argparse.ArgumentParser(
        prog="whittaker-mb",
        allow_abbrev=False,
        description="Whittaker wave functions of classical split groups: "
        "verification sweeps and numerical evaluation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", allow_abbrev=False, help="run the exact property suites")
    pv.add_argument("--group", required=True, choices=sorted(GROUPS))
    pv.add_argument("--rank", required=True, type=int)
    pv.add_argument("--trials", type=int, default=100)
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--format", choices=("json", "csv"), default="json")
    pv.add_argument("--output", default=None)

    pe = sub.add_parser("eval", allow_abbrev=False, help="evaluate the wave function")
    pe.add_argument("--group", required=True, choices=sorted(GROUPS))
    pe.add_argument("--rank", required=True, type=int)
    pe.add_argument("--lambda", dest="lam", required=True)
    pe.add_argument("--x", required=True)
    pe.add_argument("--method", choices=("mb", "cone", "cross"), default="cross")
    pe.add_argument("--tol", type=float, default=1e-6)
    pe.add_argument("--format", choices=("json", "csv"), default="json")
    pe.add_argument("--output", default=None)

    pm = sub.add_parser("mellin-table", allow_abbrev=False, help="tabulate the Mellin transform")
    pm.add_argument("--group", required=True, choices=sorted(GROUPS))
    pm.add_argument("--rank", required=True, type=int)
    pm.add_argument("--lambda", dest="lam", required=True)
    pm.add_argument("--s-grid", dest="s_grid", required=True)
    pm.add_argument("--tol", type=float, default=1e-7)
    pm.add_argument("--format", choices=("json", "csv"), default="csv")
    pm.add_argument("--output", default=None)
    return p


# options whose values may start with a minus sign
_VECTOR_OPTIONS = ("--lambda", "--x", "--s-grid")


def _glue_negative_values(argv):
    """Write `--x -0.1,2` as `--x=-0.1,2`: argparse takes a separate value
    that starts with a minus and is not a plain number for an option."""
    out = []
    k = 0
    while k < len(argv):
        arg = argv[k]
        if arg in _VECTOR_OPTIONS and k + 1 < len(argv) and re.match(r"-\.?\d", argv[k + 1]):
            out.append(f"{arg}={argv[k + 1]}")
            k += 2
        else:
            out.append(arg)
            k += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_glue_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    from .quadrature import DimensionTooLarge, Infeasible, PoleHit
    from .roots import UnsupportedRank

    try:
        # looked up per call, not bound into the cached parser, so that a
        # rebinding of a command function reaches every later call
        command = {"verify": cmd_verify, "eval": cmd_eval, "mellin-table": cmd_mellin_table}
        return command[args.command](args)
    except (UsageError, UnsupportedRank, DimensionTooLarge, Infeasible, PoleHit) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
