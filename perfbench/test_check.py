"""Tests of the benchmark itself: the output checker and the run contract.

    python3 -m pytest perfbench
"""

import ast
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from check import Checker, expected_verify_counts  # noqa: E402
from workloads import EvalOp, TableOp, VerifyOp  # noqa: E402

EVAL_OP = EvalOp("gl", 2, (0.7, -0.4), (0.25, -0.1), 1e-6, workloads.TOL_ROUTE)
TABLE_OP = TableOp((1.0, 0.0, -1.0), (0.8, 1.2))
VERIFY_OP = VerifyOp("sp", 2, 5, 3)


@pytest.fixture(scope="module")
def checker():
    return Checker(ROOT / "src" / "whittaker_mb" / "schemas")


def _cli_output(op, tmp_path_factory):
    from whittaker_mb import cli

    out = tmp_path_factory.mktemp("op") / "out.json"
    code = cli.main(op.argv() + ["--output", str(out)])
    return code, out.read_bytes()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    return {op: _cli_output(op, tmp_path_factory) for op in (EVAL_OP, TABLE_OP, VERIFY_OP)}


def _edit(output: bytes, change) -> bytes:
    rec = json.loads(output)
    change(rec)
    return json.dumps(rec, sort_keys=True, indent=2).encode()


def _scale_mb(rec, factor):
    # a consistent record whose MB value moved: only the bound can catch it
    for key in ("re", "im", "abs"):
        rec["mb"][key] *= factor
    mb = complex(rec["mb"]["re"], rec["mb"]["im"])
    cone = complex(rec["cone"]["re"], rec["cone"]["im"])
    rec["cross_rel_deviation"] = abs(mb - cone) / max(abs(cone), 1e-300)


@pytest.mark.parametrize("op", [EVAL_OP, TABLE_OP, VERIFY_OP], ids=["eval", "table", "verify"])
def test_real_outputs_pass(checker, outputs, op):
    code, output = outputs[op]
    assert checker.check(op, code, output) == []


@pytest.mark.parametrize(
    "change",
    [
        lambda r: r["mb"].__setitem__("re", r["mb"]["re"] * (1 + 1e-9)),
        lambda r: r["cone"].__setitem__("re", r["cone"]["re"] + 1e-3),
        lambda r: _scale_mb(r, 1 + 3 * workloads.TOL_ROUTE),
        lambda r: r["mb"].__setitem__("converged", False),
        lambda r: r["cone"].__setitem__("converged", False),
        lambda r: r.__setitem__("cross_rel_deviation", 0.5 * r["cross_rel_deviation"]),
        lambda r: r.__setitem__("error", "estimated error above tolerance"),
        lambda r: r.__setitem__("x", [0.25, 0.1]),
        lambda r: r.pop("cone"),
        lambda r: r.__setitem__("stray", 1),
    ],
    ids=["mb-re", "cone-re", "deviation-over-bound", "mb-not-converged",
         "cone-not-converged", "deviation-misreported", "error", "x-echo", "no-cone", "schema"],
)
def test_corrupted_eval_fails(checker, outputs, change):
    code, output = outputs[EVAL_OP]
    assert checker.check(EVAL_OP, code, _edit(output, change))


def test_deviation_bound_is_the_only_catch(checker, outputs):
    code, output = outputs[EVAL_OP]
    moved = _edit(output, lambda r: _scale_mb(r, 1 + 3 * workloads.TOL_ROUTE))
    problems = checker.check(EVAL_OP, code, moved)
    assert len(problems) == 1 and "above" in problems[0]
    assert checker.check(replace(EVAL_OP, max_dev=1e-2), code, moved) == []


@pytest.mark.parametrize("op", [EVAL_OP, TABLE_OP, VERIFY_OP], ids=["eval", "table", "verify"])
@pytest.mark.parametrize("code", [1, 2, 3, "exception"])
def test_nonzero_exit_fails(checker, outputs, op, code):
    assert checker.check(op, code, outputs[op][1])


@pytest.mark.parametrize(
    "change",
    [
        lambda r: r["rows"][0].__setitem__("re", r["rows"][0]["re"] * (1 + 1e-5)),
        lambda r: r["rows"][0].__setitem__("oracle_im", r["rows"][0]["oracle_im"] + 1e-6),
        lambda r: r["rows"][0].__setitem__("rel_dev", 2e-6),
        lambda r: r["rows"][0].__setitem__("s", [0.8, 1.3]),
        lambda r: r["rows"].append(r["rows"][0]),
    ],
    ids=["re", "oracle", "rel-dev", "s-echo", "extra-row"],
)
def test_corrupted_table_fails(checker, outputs, change):
    code, output = outputs[TABLE_OP]
    assert checker.check(TABLE_OP, code, _edit(output, change))


@pytest.mark.parametrize(
    "change",
    [
        lambda r: r.__setitem__("ok", False),
        lambda r: r["checks"][0].update(passed=4, failed=1, counterexample={"1": "2/3"}),
        lambda r: r["checks"][5].__setitem__("passed", 1),
        lambda r: r["checks"].pop(),
        lambda r: r.__setitem__("seed", 4),
    ],
    ids=["ok", "failed-check", "short-count", "missing-check", "seed-echo"],
)
def test_corrupted_verify_fails(checker, outputs, change):
    code, output = outputs[VERIFY_OP]
    assert checker.check(VERIFY_OP, code, _edit(output, change))


def test_verify_counts_follow_trials():
    assert expected_verify_counts(10) == [10] * 5 + [5, 2, 2]
    assert expected_verify_counts(1) == [1] * 8


def _acceptance_constants():
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    out = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", "")
            if name.startswith("TOL_") or name == "BZ_RANKS":
                out[name] = ast.literal_eval(node.value)
    return out


def test_bounds_never_looser_than_acceptance():
    acc = _acceptance_constants()
    assert workloads.TOL_ROUTE <= acc["TOL_ROUTE"]
    assert workloads.TOL_ROUTE_SP4 <= acc["TOL_ROUTE_SP4"]
    assert workloads.TOL_BUMP_GRID <= acc["TOL_BUMP_GRID"]
    ranks = {g.replace("-", "_"): r for g, r in workloads.BZ_RANKS.items()}
    assert ranks == acc["BZ_RANKS"]


def test_streams_are_seeded():
    for make in workloads.WORKLOADS.values():
        a, b, c = make(5), make(5), make(6)
        first = [next(a) for _ in range(3)]
        assert first == [next(b) for _ in range(3)]
        assert first != [next(c) for _ in range(3)]


def test_d4_ops_stay_in_range_and_never_repeat():
    stream = workloads.eval_d4(1)
    ops = [op for _ in range(3) for op in next(stream)]
    assert len(ops) == 3 * 2 * workloads.D4_DESIGN_SIZE
    assert len(set(ops)) == len(ops)
    for op in ops:
        assert all(abs(v) <= workloads.LAM_RANGE for v in op.lam)
        assert all(abs(v) <= workloads.X_RANGE for v in op.x)


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER_UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup["bound"] <= 0.25 for m in spec["end_to_end"])


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


def test_traced_run_reports_every_layer_metric():
    proc = _run(ROOT, "--workload", "many_small", "--seed", "3", "--seconds", "1.5", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    assert list(result["metrics"]) == list(spans.PER_LAYER_UNITS)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["trace.ops"] >= 1 and values["cli.main.self_s"] > 0
    assert values["layer.charts.self_s"] == 0 and values["layer.exact.self_s"] == 0
    assert math.isclose(sum(values[f"layer.{l}.self_s"] for l in spans.LAYERS),
                        values["trace.root_s"], rel_tol=1e-6)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "eval_d4", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
