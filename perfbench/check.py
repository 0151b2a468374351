"""Per-op output checker: an op counts as done only if its output is right.

``Checker.check(op, exit_code, output)`` returns the list of problems
found (empty when the op passed).  An op fails on a nonzero exit code,
an output that breaks the shipped JSON schema or does not echo the
request, ``converged: false`` on either route, or a value outside its
reference tolerance.  The references are independent of the program:
the cone route for the contour route (recomputed here from the printed
values), and Bump's Gamma-product formula, evaluated here with
``scipy.special.loggamma``, for the gl rank 3 Mellin table.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import jsonschema
import numpy as np
from scipy.special import loggamma

from workloads import TOL_BUMP_GRID, EvalOp, TableOp, VerifyOp

# Relative slack for re-deriving printed numbers from other printed
# numbers (|z| from re and im, the deviation from both routes).
REL_ROUNDOFF = 1e-12
# The program's Bump column and the reference above use different
# log-Gamma codes; both are far more accurate than this.
REL_BUMP_ORACLE = 1e-10

VERIFY_CHECKS = (
    "closed_form_equals_oracle",
    "involution",
    "inverse_roundtrip",
    "positive_cone_preserved",
    "twist_duality",
    "u_matrix_structure",
    "measure_preservation",
    "rank2_mutations",
)


def expected_verify_counts(trials: int) -> list:
    """Trials each suite of ``verify`` runs, in report order."""
    fifth = max(1, trials // 5)
    return [trials] * 5 + [max(1, trials // 2), fifth, fifth]


def bump_gl3(lam, s1, s2) -> complex:
    """Bump's rank-three Mellin transform, written independently of the package."""
    mean = sum(lam) / 3.0
    acc = -loggamma(complex(s1) + complex(s2))
    for big in (l - mean for l in lam):
        acc += loggamma(complex(s1) - 1j * big) + loggamma(complex(s2) + 1j * big)
    return complex(np.exp(acc))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _route_value(rec: dict, route: str, problems: list):
    val = rec.get(route)
    if val is None:
        problems.append(f"route {route} missing")
        return None
    if val["converged"] is not True:
        problems.append(f"route {route} not converged")
    z = complex(val["re"], val["im"])
    if not all(math.isfinite(v) for v in (val["re"], val["im"], val["est_error"])):
        problems.append(f"route {route} not finite")
    elif not _close(abs(z), val["abs"], REL_ROUNDOFF):
        problems.append(f"route {route}: abs {val['abs']!r} is not |re + i im|")
    if val["est_error"] < 0 or val["evaluations"] < 1:
        problems.append(f"route {route}: bad est_error or evaluations")
    return z


def route_error_miss(output: bytes) -> bool:
    """True when |mb - cone| exceeds the sum of the two error estimates."""
    rec = json.loads(output)
    mb = complex(rec["mb"]["re"], rec["mb"]["im"])
    cone = complex(rec["cone"]["re"], rec["cone"]["im"])
    return abs(mb - cone) > rec["mb"]["est_error"] + rec["cone"]["est_error"]


class Checker:
    def __init__(self, schema_dir: Path):
        def validator(name):
            schema = json.loads((schema_dir / name).read_text(encoding="utf-8"))
            cls = jsonschema.validators.validator_for(schema)
            cls.check_schema(schema)
            return cls(schema)

        self.eval_schema = validator("eval_record.schema.json")
        self.verify_schema = validator("verify_report.schema.json")

    def check(self, op, exit_code, output: bytes) -> list:
        if exit_code != 0:
            return [f"exit code {exit_code}"]
        try:
            rec = json.loads(output)
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        if isinstance(op, EvalOp):
            return self._check_eval(op, rec)
        if isinstance(op, TableOp):
            return self._check_table(op, rec)
        if isinstance(op, VerifyOp):
            return self._check_verify(op, rec)
        raise TypeError(f"unknown op {op!r}")

    def _check_eval(self, op: EvalOp, rec) -> list:
        problems = [e.message for e in self.eval_schema.iter_errors(rec)]
        if problems:
            return problems
        echo = {
            "group": op.group, "rank": op.rank, "lambda": list(op.lam),
            "x": list(op.x), "method": "cross", "tol": op.tol,
        }
        problems += [f"{k} echoed as {rec[k]!r}" for k, v in echo.items() if rec[k] != v]
        for key in ("error", "partial"):
            if key in rec:
                problems.append(f"unexpected {key!r} in record")
        mb = _route_value(rec, "mb", problems)
        cone = _route_value(rec, "cone", problems)
        if mb is None or cone is None or problems:
            return problems
        dev = abs(mb - cone) / max(abs(cone), 1e-300)
        if "cross_rel_deviation" not in rec:
            problems.append("cross_rel_deviation missing")
        elif not _close(dev, rec["cross_rel_deviation"], REL_ROUNDOFF):
            problems.append(
                f"cross_rel_deviation {rec['cross_rel_deviation']!r} does not match the "
                f"printed routes ({dev!r})"
            )
        if not dev <= op.max_dev:
            problems.append(f"cross deviation {dev:.3g} above {op.max_dev:g}")
        return problems

    def _check_table(self, op: TableOp, rec) -> list:
        problems = []
        if not isinstance(rec, dict) or not isinstance(rec.get("rows"), list):
            return ["mellin-table output has no rows"]
        echo = {"command": "mellin-table", "group": op.group, "rank": op.rank, "lambda": list(op.lam)}
        problems += [f"{k} echoed as {rec.get(k)!r}" for k, v in echo.items() if rec.get(k) != v]
        if len(rec["rows"]) != 1:
            return problems + [f"{len(rec['rows'])} rows, expected 1"]
        row = rec["rows"][0]
        if row.get("s") != list(op.s):
            problems.append(f"s echoed as {row.get('s')!r}")
        ref = bump_gl3(op.lam, *op.s)
        try:
            got = complex(row["re"], row["im"])
            oracle = complex(row["oracle_re"], row["oracle_im"])
            rel_dev = float(row["rel_dev"])
        except (KeyError, TypeError) as exc:
            return problems + [f"row incomplete: {exc!r}"]
        if not _close(abs(got), row.get("abs", math.nan), REL_ROUNDOFF):
            problems.append("abs is not |re + i im|")
        if not abs(oracle - ref) <= REL_BUMP_ORACLE * abs(ref):
            problems.append(f"Bump column {oracle!r} differs from the reference {ref!r}")
        dev = abs(got - ref) / abs(ref)
        if not dev <= TOL_BUMP_GRID:
            problems.append(f"value deviates {dev:.3g} from Bump's formula")
        if not rel_dev <= TOL_BUMP_GRID:
            problems.append(f"rel_dev {rel_dev:.3g} above {TOL_BUMP_GRID:g}")
        return problems

    def _check_verify(self, op: VerifyOp, rec) -> list:
        problems = [e.message for e in self.verify_schema.iter_errors(rec)]
        if problems:
            return problems
        echo = {"group": op.group, "rank": op.rank, "trials": op.trials, "seed": op.seed}
        problems += [f"{k} echoed as {rec[k]!r}" for k, v in echo.items() if rec[k] != v]
        if rec["ok"] is not True:
            problems.append("ok is not true")
        names = [c["name"] for c in rec["checks"]]
        if names != list(VERIFY_CHECKS):
            return problems + [f"checks {names!r}"]
        for c, want in zip(rec["checks"], expected_verify_counts(op.trials)):
            if c["failed"] != 0 or c["counterexample"] is not None:
                problems.append(f"{c['name']}: {c['failed']} failed")
            if c["passed"] != want:
                problems.append(f"{c['name']}: {c['passed']} passed, expected {want}")
        return problems
