import json

from whittaker_mb import cli


def run(argv):
    return cli.main(argv)


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

    def test_mb_dimension_guard_is_usage_error(self):
        code = run(
            ["eval", "--group", "gl", "--rank", "5", "--method", "mb",
             "--lambda", "0,0,0,0,0", "--x", "0,0,0,0,0"]
        )
        assert code == 2


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
