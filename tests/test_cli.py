import json

import pytest

from whittaker_mb import cli


def run(argv):
    return cli.main(argv)


def _finite_json(text):
    """json.loads that rejects NaN, Infinity and -Infinity."""

    def reject(name):
        raise ValueError(f"non-finite number {name}")

    return json.loads(text, parse_constant=reject)


class TestVerify:
    def test_degenerate_rank_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(
            ["verify", "--group", "sp", "--rank", "1", "--trials", "10",
             "--seed", "3", "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["ok"] is True
        assert all(c["failed"] == 0 for c in report["checks"])

    def test_report_matches_schema(self, tmp_path):
        import importlib.resources as res

        import jsonschema

        out = tmp_path / "report.json"
        assert run(
            ["verify", "--group", "gl", "--rank", "3", "--trials", "5",
             "--seed", "1", "--output", str(out)]
        ) == 0
        schema = json.loads(
            res.files("whittaker_mb").joinpath("schemas/verify_report.schema.json").read_text()
        )
        jsonschema.validate(json.loads(out.read_text()), schema)

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "--group", "so-odd", "--rank", "2", "--trials", "8", "--seed", "11"]
        run(args + ["--output", str(a)])
        run(args + ["--output", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_tampered_formula_detected(self, tmp_path, monkeypatch):
        import whittaker_mb.bz as bzmod

        original = bzmod.bz_closed_form

        def corrupted(chart):
            res = original(chart)
            label = chart.root_system.positive_roots[0]
            res.image_chart.coords[label] = res.image_chart.coords[label] + 1
            return res

        monkeypatch.setattr(bzmod, "bz_closed_form", corrupted)
        out = tmp_path / "bad.json"
        code = run(
            ["verify", "--group", "gl", "--rank", "2", "--trials", "4",
             "--seed", "0", "--output", str(out)]
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert report["ok"] is False
        bad = [c for c in report["checks"] if c["failed"]]
        assert bad and bad[0]["counterexample"] is not None

    def test_tampered_program_detected(self, tmp_path, monkeypatch):
        # one exponent of the compiled closed form is off: the oracle check
        # must catch it
        import whittaker_mb.bz as bzmod
        from whittaker_mb.exact import MonomialProgram

        good = bzmod.bz_map_program("gl", 3)
        (cn, cd, factors), *rest = good.rows
        (atom, e), *others = factors
        bad = MonomialProgram(
            good.labels, good.pairs, good.checked, good.keys,
            ((cn, cd, ((atom, e - 1), *others)), *rest),
        )
        monkeypatch.setattr(bzmod, "bz_map_program", lambda family, n: bad)
        out = tmp_path / "bad.json"
        code = run(
            ["verify", "--group", "gl", "--rank", "3", "--trials", "4",
             "--seed", "0", "--output", str(out)]
        )
        assert code == 1
        report = json.loads(out.read_text())
        first = report["checks"][0]
        assert first["name"] == "closed_form_equals_oracle"
        assert first["failed"] > 0 and first["counterexample"] is not None

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_trials_below_one_is_usage_error(self, trials, capsys):
        code = run(["verify", "--group", "gl", "--rank", "2", f"--trials={trials}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_csv_format(self, tmp_path):
        out = tmp_path / "r.csv"
        run(["verify", "--group", "sp", "--rank", "1", "--trials", "3",
             "--seed", "0", "--format", "csv", "--output", str(out)])
        raw = out.read_bytes()
        assert raw.splitlines()[0] == b"check,passed,failed,counterexample"
        assert b"\r\n" in raw


class TestEval:
    def test_cross_deviation_small(self, tmp_path):
        out = tmp_path / "e.json"
        code = run(
            ["eval", "--group", "gl", "--rank", "2", "--lambda", "1,-1",
             "--x", "0.3,-0.3", "--method", "cross", "--tol", "1e-6",
             "--output", str(out)]
        )
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["cross_rel_deviation"] <= 1e-4

    def test_record_matches_schema(self, tmp_path):
        import importlib.resources as res

        import jsonschema

        out = tmp_path / "e.json"
        run(["eval", "--group", "sp", "--rank", "1", "--lambda", "0.5",
             "--x", "0.2", "--method", "mb", "--output", str(out)])
        schema = json.loads(
            res.files("whittaker_mb").joinpath("schemas/eval_record.schema.json").read_text()
        )
        jsonschema.validate(json.loads(out.read_text()), schema)

    def test_wrong_lambda_length_is_usage_error(self, capsys):
        code = run(["eval", "--group", "gl", "--rank", "2", "--lambda", "1,2,3", "--x", "0,0"])
        assert code == 2

    def test_unsupported_rank_is_usage_error(self):
        code = run(
            ["eval", "--group", "gl", "--rank", "12",
             "--lambda", ",".join(["0"] * 12), "--x", ",".join(["0"] * 12)]
        )
        assert code == 2

    def test_negative_vectors_as_separate_values(self, capsys):
        spaced = ["eval", "--group", "gl", "--rank", "2", "--lambda", "-1,2",
                  "--x", "-0.07,0.89", "--method", "mb"]
        glued = ["eval", "--group", "gl", "--rank", "2", "--lambda=-1,2",
                 "--x=-0.07,0.89", "--method", "mb"]
        assert run(spaced) == 0
        a = capsys.readouterr().out
        assert run(glued) == 0
        b = capsys.readouterr().out
        assert a == b
        rec = json.loads(a)
        assert rec["lambda"] == [-1.0, 2.0] and rec["x"] == [-0.07, 0.89]

    def test_abbreviated_options_are_rejected(self):
        # only full option names are accepted, so every accepted spelling
        # of a vector option also takes a value that starts with a minus
        assert run(["eval", "--group", "gl", "--rank", "2", "--lam", "-1,2",
                    "--x", "0,0"]) == 2
        assert run(["mellin-table", "--group", "gl", "--rank", "2", "--lambda", "1,-1",
                    "--s", "-1:1:3"]) == 2
        assert run(["eval", "--group", "gl", "--rank", "2", "--lambda", "-1,2",
                    "--x", "0,0", "--meth", "mb"]) == 2

    def test_repeated_sp2_cross_eval_is_byte_identical(self, capsys):
        args = ["eval", "--group", "sp", "--rank", "2", "--lambda", "0.9,-0.5",
                "--x", "0.3,-0.2", "--method", "cross", "--tol", "1e-4"]
        assert run(args) == 0
        a = capsys.readouterr().out
        assert run(args) == 0
        assert capsys.readouterr().out == a

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_tol_not_finite_positive_is_usage_error(self, tol, capsys):
        code = run(["eval", "--group", "gl", "--rank", "2", "--lambda", "1,-1",
                    "--x", "0.3,-0.3", "--method", "mb", f"--tol={tol}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("option", ["--lambda", "--x"])
    def test_vector_not_finite_is_usage_error(self, option, value, capsys):
        vectors = {"--lambda": "1,-1", "--x": "0.3,-0.3"}
        vectors[option] = f"{value},0.2"
        code = run(["eval", "--group", "gl", "--rank", "2", "--method", "cross"]
                   + [f"{name}={vector}" for name, vector in vectors.items()])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("method", ["mb", "cone"])
    @pytest.mark.parametrize("rank,lam", [("2", "3e6,0"), ("2", "1e300,0"), ("3", "1e5,0,0")])
    def test_lambda_over_budget_builds_no_grid(self, rank, lam, method, capsys):
        """Both routes hold the panel counts against the contraction budget
        before any node vector is built: a spectral parameter whose grid is
        over it is a usage error that allocates next to nothing."""
        import os
        import tracemalloc

        # first-use imports outside the trace
        assert run(["eval", "--group", "gl", "--rank", "2", "--lambda=1,0", "--x=0,0",
                    "--output", os.devnull]) == 0
        x = ",".join(["0"] * int(rank))
        tracemalloc.start()
        try:
            code = run(["eval", "--group", "gl", "--rank", rank, f"--lambda={lam}", f"--x={x}",
                        "--method", method])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""
        assert peak < 2**20

    @pytest.mark.parametrize(
        "group,rank,lam,x",
        [("so-odd", "1", "1e308", "0.1"), ("gl", "2", "1e308,-1e308", "0,0"),
         ("sp", "2", "1e308,1e308", "0,0")],
    )
    def test_cone_pairing_out_of_range_is_over_budget(self, group, rank, lam, x, capsys):
        """A pairing (lambda, gamma^vee) beyond the floating-point range
        needs a grid step of 0: the cone route ends with the budget error
        that the MB route gives for the same lambda, not a traceback."""
        for method in ("cone", "mb", "cross"):
            code = run(["eval", "--group", group, "--rank", rank, f"--lambda={lam}", f"--x={x}",
                        "--method", method])
            assert code == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ") and "exceeds the budget" in captured.err

    @pytest.mark.parametrize("method", ["mb", "cone", "cross"])
    @pytest.mark.parametrize(
        "group,rank,lam,x",
        [("so-odd", "1", "1e308", "10"), ("gl", "2", "1e308,-1e308", "5,0")],
    )
    def test_phase_out_of_range_is_over_budget(self, group, rank, lam, x, method, capsys):
        """A phase (lambda, x) beyond the floating-point range has no
        prefactor e^{-i(lambda, x)}: every route ends with an error naming
        the range, not a traceback."""
        code = run(["eval", "--group", group, "--rank", rank, f"--lambda={lam}", f"--x={x}",
                    "--method", method])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "floating-point range" in captured.err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method,x", [("cone", "50,-50"), ("cone", "800,0"), ("mb", "-800,0")])
    def test_large_x_ends_finite_or_typed(self, method, x, capsys):
        """A sum out of floating-point range is a typed failure: no traceback,
        no numpy warning and no non-finite number in the record."""
        code = run(["eval", "--group", "gl", "--rank", "2", "--lambda=0.5,0", f"--x={x}",
                    "--method", method])
        assert code in (0, 2, 3)
        record = _finite_json(capsys.readouterr().out)
        assert (method in record) == (code == 0)

    def test_mb_dimension_guard_is_usage_error(self):
        code = run(
            ["eval", "--group", "gl", "--rank", "5", "--method", "mb",
             "--lambda", "0,0,0,0,0", "--x", "0,0,0,0,0"]
        )
        assert code == 2

    def test_cone_dimension_guard_is_usage_error(self, capsys):
        # gl rank 4 has 6 positive roots; the cone route stops at d = 4
        code = run(["eval", "--group", "gl", "--rank", "4", "--lambda=0.5,-0.3,0.2,0.1",
                    "--x=0.1,-0.2,0.05,0.3", "--method", "cone", "--tol", "1e-6"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.out == ""

    def test_eval_has_no_seed_option(self):
        assert run(["eval", "--group", "gl", "--rank", "2", "--lambda=1,-1", "--x=0,0",
                    "--method", "mb", "--seed", "3"]) == 2


class TestMellinTable:
    def test_gl3_table_has_oracle_column(self, tmp_path):
        out = tmp_path / "t.csv"
        code = run(
            ["mellin-table", "--group", "gl", "--rank", "3", "--lambda", "1,0,-1",
             "--s-grid", "0.5:1.5:2", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s1,s2,re,im,abs,oracle_re,oracle_im,rel_dev"
        assert len(lines) == 5
        for line in lines[1:]:
            assert float(line.split(",")[-1]) < 1e-6

    def test_gl2_table_no_inner_integration(self, tmp_path):
        out = tmp_path / "t2.csv"
        assert run(
            ["mellin-table", "--group", "gl", "--rank", "2", "--lambda", "0.5,-0.5",
             "--s-grid", "0.5:1.5:3", "--output", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("s1,re")
        assert len(lines) == 4

    def test_bad_grid_is_usage_error(self):
        code = run(
            ["mellin-table", "--group", "gl", "--rank", "2", "--lambda", "0,0",
             "--s-grid", "nope"]
        )
        assert code == 2

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("axis", ["{v}:{v}:1", "0.5:{v}:2"])
    def test_grid_not_finite_is_usage_error(self, axis, value, capsys):
        code = run(["mellin-table", "--group", "gl", "--rank", "3", "--lambda", "0.5,0,-0.5",
                    f"--s-grid={axis.format(v=value)}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_s_outside_the_domain_is_usage_error(self, capsys):
        # no inner contour separates the poles at s = (0, 0)
        code = run(["mellin-table", "--group", "gl", "--rank", "3", "--lambda", "0,0,0",
                    "--s-grid", "0:1:2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_s_at_a_gamma_pole_is_usage_error(self, capsys):
        # M(0) = Gamma(0)^2 for gl rank 2 at lambda = 0
        code = run(["mellin-table", "--group", "gl", "--rank", "2", "--lambda", "0,0",
                    "--s-grid", "0:0:1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
    def test_tol_not_finite_positive_is_usage_error(self, tol, capsys):
        code = run(["mellin-table", "--group", "gl", "--rank", "2", "--lambda", "0.5,-0.5",
                    "--s-grid", "0.5:1.5:3", f"--tol={tol}"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""

    def test_far_left_s_ends(self):
        """M(s) at s = -1e6 underflows to zero within seconds; the log-Gamma
        of its factors must not take time that grows with |s|."""
        import os
        import subprocess
        import sys

        import whittaker_mb

        src = os.path.dirname(os.path.dirname(os.path.abspath(whittaker_mb.__file__)))
        proc = subprocess.run(
            [sys.executable, "-m", "whittaker_mb.cli", "mellin-table", "--group", "gl",
             "--rank", "2", "--lambda=1,0", "--s-grid=-1e6:-1e6:1", "--format", "json"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        (row,) = json.loads(proc.stdout)["rows"]
        assert row["s"] == [-1e6] and row["abs"] == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_out_of_range_row_is_null(self, capsys):
        # Gamma(300) is past the floating-point range; the row ends typed,
        # with no numpy warning
        code = run(["mellin-table", "--group", "gl", "--rank", "2", "--lambda=1,0",
                    "--s-grid=2:300:2", "--format", "json"])
        assert code == 3
        first, last = _finite_json(capsys.readouterr().out)["rows"]
        assert first["abs"] > 0 and last["s"] == [300.0]
        assert [last[k] for k in ("re", "im", "abs")] == [None] * 3

    def test_json_format(self, tmp_path):
        out = tmp_path / "t.json"
        assert run(
            ["mellin-table", "--group", "so-odd", "--rank", "1", "--lambda", "0.4",
             "--s-grid", "0.6:1.2:2", "--format", "json", "--output", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "mellin-table"
        assert len(doc["rows"]) == 2


class TestEvalCsv:
    def test_eval_csv_format(self, tmp_path):
        out = tmp_path / "e.csv"
        assert run(
            ["eval", "--group", "gl", "--rank", "2", "--lambda", "0,0", "--x", "0,0",
             "--method", "mb", "--format", "csv", "--output", str(out)]
        ) == 0
        lines = out.read_bytes().splitlines()
        assert lines[0] == b"method,re,im,abs,est_error,evaluations"
        assert lines[1].startswith(b"mb,0.227787745")


class TestRuntimeDependencies:
    def test_cross_eval_without_test_extras(self, tmp_path):
        """The package runs on numpy and scipy alone: the test extras are
        blocked from import in a fresh interpreter."""
        import os
        import subprocess
        import sys

        import whittaker_mb

        out = tmp_path / "e.json"
        script = (
            "import sys\n"
            "for name in ('mpmath', 'jsonschema', 'hypothesis'):\n"
            "    sys.modules[name] = None\n"
            "import whittaker_mb\n"
            "from whittaker_mb import cli\n"
            "sys.exit(cli.main(['eval', '--group', 'sp', '--rank', '2', '--lambda=0.9,-0.5',\n"
            f"    '--x=0.3,-0.2', '--method', 'cross', '--output', {str(out)!r}]))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(whittaker_mb.__file__)))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr.decode()
        rec = json.loads(out.read_text())
        assert rec["cross_rel_deviation"] <= 1e-3

    def test_package_import_loads_no_scipy(self):
        """scipy loads on the first numerical call, not with the package."""
        import os
        import subprocess
        import sys

        import whittaker_mb

        script = (
            "import sys\n"
            "import whittaker_mb\n"
            "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
            "assert whittaker_mb.eval_mb is whittaker_mb.quadrature.eval_mb\n"
            "from whittaker_mb import eval_mb\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(whittaker_mb.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr.decode()

    def test_verify_loads_only_the_exact_layer(self):
        """A fresh verify imports neither numpy nor the quadrature; its usage
        errors, and the typed errors of a later eval or mellin-table in the
        same process, still exit 2."""
        import os
        import subprocess
        import sys

        import whittaker_mb

        script = (
            "import sys\n"
            "from whittaker_mb import cli\n"
            "assert cli.main(['verify', '--group', 'so-odd', '--rank', '2', '--trials', '2',\n"
            "                 '--output', sys.argv[1]]) == 0\n"
            "assert cli.main(['verify', '--group', 'gl', '--rank', '99']) == 2\n"
            "loaded = [m for m in sys.modules if m.split('.')[0] == 'numpy' or m == 'whittaker_mb.quadrature']\n"
            "assert not loaded, loaded\n"
            "assert cli.main(['eval', '--group', 'gl', '--rank', '5', '--method', 'mb',\n"
            "                 '--lambda=0,0,0,0,0', '--x=0,0,0,0,0']) == 2\n"
            "assert cli.main(['mellin-table', '--group', 'gl', '--rank', '2', '--lambda=0,0',\n"
            "                 '--s-grid=0:0:1']) == 2\n"
            "assert cli.main(['mellin-table', '--group', 'gl', '--rank', '3', '--lambda=0,0,0',\n"
            "                 '--s-grid=0:1:2']) == 2\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(whittaker_mb.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script, os.devnull],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stderr.decode().count("error: ") == 4

    @pytest.mark.parametrize("command", ["eval", "mellin-table"])
    def test_shipped_structures_load_no_scipy_optimize(self, command, tmp_path):
        """The base-point LPs of every eval_mb structure and of the gl 3,
        sp 2 and so_odd 2 table grids start from shipped active sets, so a
        fresh process never imports scipy.optimize (HiGHS)."""
        import os
        import subprocess
        import sys

        import whittaker_mb

        if command == "eval":
            cases = [
                ("gl", 2, "0.5,-0.3", "0.2,-0.1"), ("gl", 3, "0.5,-0.3,0.1", "0.2,-0.1,0.0"),
                ("so-even", 2, "0.5,-0.3", "0.2,-0.1"), ("so-odd", 1, "0.5", "0.2"),
                ("so-odd", 2, "0.5,-0.3", "0.2,-0.1"), ("sp", 1, "0.5", "0.2"),
                ("sp", 2, "0.9,-0.5", "0.3,-0.2"),
            ]
            calls = [
                ["eval", "--group", g, "--rank", str(n), f"--lambda={lam}", f"--x={x}",
                 "--method", "cross", "--tol", "1e-4"]
                for g, n, lam, x in cases
            ]
        else:
            calls = [
                ["mellin-table", "--group", g, "--rank", str(n), f"--lambda={lam}",
                 "--s-grid=0.6:1.4:3"]
                for g, n, lam in (("gl", 3, "0.4,-0.1,-0.3"), ("sp", 2, "0.4,-0.1"),
                                  ("so-odd", 2, "0.4,-0.1"))
            ]
        script = (
            "import json, sys\n"
            "from whittaker_mb import cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            f"    assert cli.main(argv + ['--output', {str(tmp_path / 'out')!r}]) == 0, argv\n"
            "assert not [m for m in sys.modules if m.startswith('scipy.optimize')]\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(whittaker_mb.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(calls)],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr.decode()


class TestCallHistory:
    def test_outputs_do_not_depend_on_earlier_calls(self, tmp_path):
        """What one process keeps between calls (the parser, integrands,
        splits, the base-point LP models with their active sets, and the
        compiled contour programs, contraction plans and their lowered
        steps) never changes an output: each call of a mixed sequence, and
        of the same sequence run again in reverse order, writes what a
        fresh process writes for its argv.  The gl 3 grid has rows with
        s1 < s2, s1 = s2 and s1 > s2, and runs after a row with s1 > s2,
        so its first row meets a model that holds only the other side's
        active sets; the gl 3 row at a larger |lambda| meets the split's
        program at other panel counts."""
        import os
        import subprocess
        import sys

        import whittaker_mb
        from whittaker_mb.quadrature import _axis_plans, _compiled, _cone_supports, _lowered, _lp_model

        eval_sp2 = ["eval", "--group", "sp", "--rank", "2", "--lambda=0.9,-0.5",
                    "--x=0.3,-0.2", "--method", "cross"]
        gl3 = ["mellin-table", "--group", "gl", "--rank", "3", "--lambda=0.4,-0.1,-0.3"]
        sequence = [
            (eval_sp2, 0),
            (["eval", "--group", "gl", "--rank", "2", "--lambda=1", "--x=0,0"], 2),
            (["frobnicate", "--group", "gl"], 2),
            (gl3 + ["--s-grid=0.8:1.2:2"], 0),
            (["verify", "--group", "gl", "--rank", "2", "--trials", "2"], 0),
            (eval_sp2, 0),
            (gl3 + ["--s-grid=1.3:1.3:1;0.7:0.7:1"], 0),
            (gl3 + ["--s-grid=0.6:1.4:3"], 0),
            (["mellin-table", "--group", "gl", "--rank", "3", "--lambda=1.9,-1.6,-0.3",
              "--s-grid=0.9:0.9:1;1.2:1.2:1"], 0),
        ]
        for cache in (_lp_model, _compiled, _axis_plans, _lowered, _cone_supports):
            cache.cache_clear()
        src = os.path.dirname(os.path.dirname(os.path.abspath(whittaker_mb.__file__)))

        def written(path):
            return path.read_bytes() if path.exists() else None

        fresh_outputs = []
        for k, (argv, code) in enumerate(sequence):
            here, fresh = tmp_path / f"here{k}", tmp_path / f"fresh{k}"
            assert run(argv + ["--output", str(here)]) == code
            proc = subprocess.run(
                [sys.executable, "-m", "whittaker_mb.cli", *argv, "--output", str(fresh)],
                env={**os.environ, "PYTHONPATH": src}, capture_output=True, timeout=300,
            )
            assert proc.returncode == code, proc.stderr.decode()
            assert written(here) == written(fresh)
            assert (written(here) is None) == (code == 2)
            fresh_outputs.append(written(fresh))
        for k in reversed(range(len(sequence))):
            (argv, code), again = sequence[k], tmp_path / f"again{k}"
            assert run(argv + ["--output", str(again)]) == code
            assert written(again) == fresh_outputs[k]

    def test_rebound_command_reaches_later_calls(self, tmp_path, monkeypatch):
        """The parser is built once per process, but the command function
        is looked up at each call."""
        argv = ["verify", "--group", "gl", "--rank", "2", "--trials", "1",
                "--output", str(tmp_path / "v.json")]
        assert run(argv) == 0
        monkeypatch.setattr(cli, "cmd_verify", lambda args: 7)
        assert run(argv) == 7
