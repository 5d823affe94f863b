"""CLI integration tests: commands run in process via dispatch(); every
emitted document is validated against its published schema."""

import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import drcvar.dual
import drcvar.estimate
from drcvar.cli import EXIT_DATA, EXIT_OK, EXIT_SOLVER, EXIT_USAGE, dispatch
from drcvar.conic import SolverSettings


def load_schema(kind):
    ref = resources.files("drcvar") / "schemas" / f"{kind}.schema.json"
    return json.loads(ref.read_text())


def run_cli(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    doc = json.loads(out)
    jsonschema.validate(doc, load_schema(doc["kind"]))
    return code, doc


@pytest.fixture(scope="module")
def synth_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.csv"
    code = dispatch(["gen-data", "--seed", "7", "--days", "10",
                     "--spike-prob", "0", "--noise", "0",
                     "--out", str(path)])
    assert code == EXIT_OK
    return path


class TestGenData:
    def test_deterministic_bytes(self, capsys, tmp_path):
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        code1, doc1 = run_cli(capsys, ["gen-data", "--seed", "7",
                                       "--days", "12", "--out", str(p1)])
        code2, doc2 = run_cli(capsys, ["gen-data", "--seed", "7",
                                       "--days", "12", "--out", str(p2)])
        assert code1 == code2 == EXIT_OK
        assert doc1["sha256"] == doc2["sha256"]
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_differs(self, capsys, tmp_path):
        _, doc1 = run_cli(capsys, ["gen-data", "--seed", "1", "--days", "5",
                                   "--out", str(tmp_path / "a.csv")])
        _, doc2 = run_cli(capsys, ["gen-data", "--seed", "2", "--days", "5",
                                   "--out", str(tmp_path / "b.csv")])
        assert doc1["sha256"] != doc2["sha256"]


class TestFitEval:
    def test_nominal_mse_perfect_fit(self, capsys, synth_csv, tmp_path):
        # noise-free generator prices are affine in loads, so the nominal
        # least-squares fit is exact
        out = tmp_path / "fit.json"
        code, doc = run_cli(capsys, [
            "fit", "--data", str(synth_csv), "--method", "nominal_mse",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        assert doc["method"] == "nominal_mse"
        assert doc["value"] <= 1e-10
        assert doc["gamma"] is None
        saved = json.loads(out.read_text())
        assert saved == doc

    @pytest.mark.parametrize("method, alpha, radius", [
        ("dr_cvar", 0.05, 0.1), ("dr_mse", 1.0, 0.1),
        ("nominal_cvar", 0.05, 0.0), ("nominal_mse", 1.0, 0.0)])
    def test_fit_reports_the_program_solved(self, capsys, synth_csv, method,
                                            alpha, radius):
        # the MSE fits solve at alpha = 1 and the nominal fits at radius 0,
        # whatever --alpha and --radius say
        code, doc = run_cli(capsys, [
            "fit", "--data", str(synth_csv), "--method", method,
            "--alpha", "0.05", "--radius", "0.1"])
        assert code == EXIT_OK
        assert (doc["method"], doc["alpha"], doc["radius"]) \
            == (method, alpha, radius)

    def test_eval_round_trip(self, capsys, synth_csv, tmp_path):
        fit_path = tmp_path / "fit.json"
        run_cli(capsys, ["fit", "--data", str(synth_csv),
                         "--method", "nominal_mse", "--out", str(fit_path)])
        code, doc = run_cli(capsys, [
            "eval", "--data", str(synth_csv), "--estimator", str(fit_path),
            "--alpha", "0.5",
        ])
        assert code == EXIT_OK
        assert doc["kind"] == "eval_metrics"
        assert doc["oos_cvar"] <= 1e-10
        assert doc["n_test"] == 10

    @pytest.mark.parametrize("drop", [
        "all", "estimator.A", "estimator.b", "normalization.minimum",
        "normalization.maximum", "estimator-2x2", "normalization-length-2",
        "max-below-min"])
    def test_eval_rejects_malformed_fit_result(self, capsys, synth_csv,
                                               tmp_path, drop):
        fit_path = tmp_path / "fit.json"
        run_cli(capsys, ["fit", "--data", str(synth_csv),
                         "--method", "nominal_mse", "--out", str(fit_path)])
        fit_doc = json.loads(fit_path.read_text())
        if drop == "all":
            fit_doc = {"kind": "fit_result"}
        elif drop == "estimator-2x2":
            fit_doc["estimator"].update(n=2, m=2, A=[[1.0, 0.0], [0.0, 1.0]],
                                        b=[0.0, 0.0])
        elif drop == "normalization-length-2":
            fit_doc["normalization"] = {"minimum": [0.0, 0.0],
                                        "maximum": [1.0, 1.0]}
        elif drop == "max-below-min":
            norm = fit_doc["normalization"]
            norm["minimum"][30], norm["maximum"][30] = (
                norm["maximum"][30], norm["minimum"][30])
        else:
            section, key = drop.split(".")
            del fit_doc[section][key]
        fit_path.write_text(json.dumps(fit_doc))
        code, doc = run_cli(capsys, [
            "eval", "--data", str(synth_csv), "--estimator", str(fit_path),
            "--alpha", "0.5",
        ])
        assert code == doc["exit_code"] == EXIT_DATA
        assert doc["kind"] == "error"

    @pytest.mark.parametrize("value", [None, math.nan, math.inf, -math.inf],
                             ids=["null", "NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize("key", ["minimum", "maximum"])
    def test_eval_rejects_non_finite_normalization(self, capsys, synth_csv,
                                                   tmp_path, key, value):
        # json.load reads NaN and Infinity as floats and null as None
        fit_path = tmp_path / "fit.json"
        run_cli(capsys, ["fit", "--data", str(synth_csv),
                         "--method", "nominal_mse", "--out", str(fit_path)])
        fit_doc = json.loads(fit_path.read_text())
        fit_doc["normalization"][key][3] = value
        fit_path.write_text(json.dumps(fit_doc))
        code, doc = run_cli(capsys, [
            "eval", "--data", str(synth_csv), "--estimator", str(fit_path),
            "--alpha", "0.5",
        ])
        assert code == doc["exit_code"] == EXIT_DATA
        assert "finite" in doc["error"]

    def test_eval_keeps_constant_normalization_coordinate(self, capsys,
                                                          synth_csv, tmp_path):
        # maximum == minimum is a constant training coordinate, not an error
        fit_path = tmp_path / "fit.json"
        run_cli(capsys, ["fit", "--data", str(synth_csv),
                         "--method", "nominal_mse", "--out", str(fit_path)])
        fit_doc = json.loads(fit_path.read_text())
        norm = fit_doc["normalization"]
        norm["maximum"][30] = norm["minimum"][30]
        fit_path.write_text(json.dumps(fit_doc))
        code, doc = run_cli(capsys, [
            "eval", "--data", str(synth_csv), "--estimator", str(fit_path),
            "--alpha", "0.5",
        ])
        assert code == EXIT_OK
        assert doc["kind"] == "eval_metrics"


class TestCheckDual:
    def test_single_day_instance(self, capsys, tmp_path):
        path = tmp_path / "one.csv"
        dispatch(["gen-data", "--seed", "3", "--days", "1",
                  "--spike-prob", "0", "--out", str(path)])
        capsys.readouterr()
        with pytest.warns(UserWarning):
            code, doc = run_cli(capsys, [
                "check-dual", "--data", str(path), "--alpha", "0.5",
                "--radius", "0.5",
            ])
        assert code == EXIT_OK
        assert doc["ok"] is True
        assert doc["gap"] <= doc["tol"]
        assert doc["boundary_gamma"] is True

    def test_moderate_instance(self, capsys, synth_csv, monkeypatch):
        # the fit's own certificate is reported: the dual path runs once
        calls = []
        certify = drcvar.dual.worst_case_cvar

        def counted(*args):
            calls.append(args)
            return certify(*args)

        monkeypatch.setattr(drcvar.dual, "worst_case_cvar", counted)
        monkeypatch.setattr(drcvar.estimate, "worst_case_cvar", counted)
        code, doc = run_cli(capsys, [
            "check-dual", "--data", str(synth_csv), "--alpha", "0.5",
            "--radius", "0.1", "--split-date", "2013-05-08",
        ])
        assert code == EXIT_OK
        assert doc["gap"] <= doc["tol"]
        assert len(calls) == 1


class TestSweep:
    def test_sweep_outputs(self, capsys, synth_csv, tmp_path):
        out = tmp_path / "sweep"
        code, doc = run_cli(capsys, [
            "sweep", "--data", str(synth_csv), "--alpha", "0.5",
            "--split-date", "2013-05-08", "--radii", "0.3",
            "--out", str(out),
        ])
        assert code == EXIT_OK
        assert doc["kind"] == "sweep_report"
        assert len(doc["rows"]) == 2
        assert {r["method"] for r in doc["rows"]} == {"dr_cvar", "dr_mse"}
        csv_text = (tmp_path / "sweep.csv").read_text().splitlines()
        assert csv_text[0].startswith("radius,method,in_sample")
        plot_text = (tmp_path / "sweep_plot.csv").read_text().splitlines()
        assert plot_text[0] == "radius,oos_cvar_dr_cvar,oos_cvar_dr_mse"
        saved = json.loads((tmp_path / "sweep.json").read_text())
        assert saved == doc

    def test_log_grid_flags(self, capsys, synth_csv, tmp_path):
        code, doc = run_cli(capsys, [
            "sweep", "--data", str(synth_csv), "--alpha", "1.0",
            "--split-date", "2013-05-08", "--radii-log-from", "-1",
            "--radii-log-to", "0", "--per-decade", "1",
        ])
        assert code == EXIT_OK
        radii = sorted({r["radius"] for r in doc["rows"]})
        assert radii == pytest.approx([0.1, 1.0])



def _without_solve_times(doc):
    if isinstance(doc, dict):
        return {k: _without_solve_times(v) for k, v in doc.items()
                if k != "solve_time_s"}
    if isinstance(doc, list):
        return [_without_solve_times(v) for v in doc]
    return doc


class TestEnvironment:
    @pytest.mark.parametrize("argv", [
        pytest.param(["fit", "--method", "dr_cvar", "--alpha", "0.5",
                      "--radius", "0.1"], id="fit"),
        pytest.param(["sweep", "--alpha", "0.5", "--split-date",
                      "2013-05-08", "--radii", "0.3"], id="sweep"),
    ])
    def test_results_ignore_the_environment(self, capsys, synth_csv,
                                            monkeypatch, argv):
        # the solver settings are the library's defaults, whatever the
        # environment holds; a former tolerance-profile variable included
        argv = [argv[0], "--data", str(synth_csv), *argv[1:]]
        docs = []
        for value in (None, "fast", "bogus"):
            if value is None:
                monkeypatch.delenv("DRCVAR_TOL_PROFILE", raising=False)
            else:
                monkeypatch.setenv("DRCVAR_TOL_PROFILE", value)
            code, doc = run_cli(capsys, argv)
            assert code == EXIT_OK
            docs.append(_without_solve_times(doc))
        assert docs[1] == docs[0]
        assert docs[2] == docs[0]


class TestErrors:
    def test_unknown_command_is_usage(self, capsys):
        code = dispatch(["bogus"])
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, load_schema("error"))
        assert code == EXIT_USAGE
        assert doc["exit_code"] == EXIT_USAGE

    def test_missing_file_is_data_error(self, capsys, synth_csv, tmp_path):
        # a path that does not exist, and directories given as --data and
        # as --estimator
        for argv in (["fit", "--data", "/nonexistent/data.csv",
                      "--method", "nominal_mse"],
                     ["fit", "--data", str(tmp_path), "--method",
                      "nominal_mse"],
                     ["eval", "--data", str(synth_csv),
                      "--estimator", str(tmp_path)]):
            code = dispatch(argv)
            doc = json.loads(capsys.readouterr().out)
            assert code == EXIT_DATA
            assert doc["exit_code"] == EXIT_DATA

    def test_malformed_csv_is_data_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("date,notaprice\n2013-01-01,5\n")
        code = dispatch(["fit", "--data", str(bad),
                         "--method", "nominal_mse"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_DATA

    def test_undecodable_csv_is_data_error(self, capsys, synth_csv, tmp_path):
        # a UTF-16 byte-order mark: the file is not UTF-8 text
        bad = tmp_path / "utf16.csv"
        bad.write_bytes(b"\xff\xfe" + synth_csv.read_bytes())
        code, doc = run_cli(capsys, ["fit", "--data", str(bad),
                                     "--method", "nominal_mse"])
        assert code == doc["exit_code"] == EXIT_DATA
        assert str(bad) in doc["error"]
        # the same for a fit_result that is not UTF-8, or not JSON
        fit_path = tmp_path / "fit.json"
        run_cli(capsys, ["fit", "--data", str(synth_csv),
                         "--method", "nominal_mse", "--out", str(fit_path)])
        for name, content in (("utf16.json",
                               b"\xff\xfe" + fit_path.read_bytes()),
                              ("truncated.json", fit_path.read_bytes()[:-20])):
            bad = tmp_path / name
            bad.write_bytes(content)
            code, doc = run_cli(capsys, ["eval", "--data", str(synth_csv),
                                         "--estimator", str(bad)])
            assert code == doc["exit_code"] == EXIT_DATA
            assert str(bad) in doc["error"]

    def test_solver_error_names_status(self, capsys, synth_csv, monkeypatch):
        solve = drcvar.estimate.solve_sdp
        monkeypatch.setattr(
            drcvar.estimate, "solve_sdp",
            lambda problem, settings=None: solve(problem,
                                                 SolverSettings(max_iter=1)))
        code, doc = run_cli(capsys, ["fit", "--data", str(synth_csv),
                                     "--method", "nominal_cvar"])
        assert code == doc["exit_code"] == EXIT_SOLVER
        assert doc["status"] == "max_iter"

    @pytest.mark.parametrize("target,message,status", [
        ("extract_estimator", "solution validation failed: min s = -1",
         "validation"),
        ("worst_case_cvar", "no bracket after 200 doublings", "cross_check"),
    ], ids=["validation", "cross_check"])
    @pytest.mark.parametrize("command", ["fit", "check-dual"])
    def test_internal_failure_is_solver_error(self, capsys, synth_csv,
                                              monkeypatch, command, target,
                                              message, status):
        def fail(*args):
            raise RuntimeError(message)

        monkeypatch.setattr(drcvar.estimate, target, fail)
        code, doc = run_cli(capsys, [command, "--data", str(synth_csv),
                                     "--alpha", "0.5", "--radius", "0.1"])
        assert code == doc["exit_code"] == EXIT_SOLVER
        assert doc["status"] == status
        assert message in doc["error"]

    @pytest.mark.parametrize("target,radius_of,status", [
        ("extract_estimator", lambda problem, sol: problem.meta["radius"],
         "validation"),
        ("worst_case_cvar", lambda qf, dist, spec: spec.radius,
         "cross_check"),
    ], ids=["validation", "cross_check"])
    def test_internal_failure_keeps_other_sweep_rows(self, capsys, synth_csv,
                                                     monkeypatch, target,
                                                     radius_of, status):
        real = getattr(drcvar.estimate, target)

        def fail_at_one(*args):
            if radius_of(*args) == 1.0:
                raise RuntimeError("injected failure")
            return real(*args)

        monkeypatch.setattr(drcvar.estimate, target, fail_at_one)
        code, doc = run_cli(capsys, [
            "sweep", "--data", str(synth_csv), "--alpha", "0.5",
            "--split-date", "2013-05-08", "--radii", "0.3,1",
        ])
        assert code == EXIT_OK
        assert [(r["radius"], r["status"]) for r in doc["rows"]] == [
            (0.3, "optimal"), (0.3, "optimal"), (1.0, status), (1.0, status)]

    def test_bad_radii_flag(self, capsys, synth_csv):
        code = dispatch(["sweep", "--data", str(synth_csv),
                         "--split-date", "2013-05-08", "--radii", "-1.0"])
        doc = json.loads(capsys.readouterr().out)
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        pytest.param(["fit", "--data", "{data}", "--alpha", "2"],
                     id="fit-alpha"),
        pytest.param(["fit", "--data", "{data}", "--radius", "-1"],
                     id="fit-radius"),
        pytest.param(["eval", "--data", "{data}", "--estimator",
                      "{tmp}/fit.json", "--alpha", "0"],
                     id="eval-alpha"),
        pytest.param(["sweep", "--data", "{data}", "--split-date",
                      "2013-05-08", "--per-decade", "-1"],
                     id="sweep-per-decade"),
        pytest.param(["sweep", "--data", "{data}", "--split-date",
                      "2013-05-08", "--alpha", "2", "--radii", "0.3"],
                     id="sweep-alpha"),
        pytest.param(["sweep", "--data", "{data}", "--split-date",
                      "2013-05-08", "--radii", "0.3,nan"],
                     id="sweep-radii-nan"),
        pytest.param(["sweep", "--data", "{data}", "--split-date",
                      "2013-05-08", "--radii", "0.3,big"],
                     id="sweep-radii-text"),
        pytest.param(["gen-data", "--seed", "1", "--days", "0",
                      "--out", "{tmp}/x.csv"], id="gen-data-days"),
        pytest.param(["gen-data", "--seed=-1", "--out", "{tmp}/x.csv"],
                     id="gen-data-seed"),
        *[pytest.param(["gen-data", "--seed", "1", flag, value,
                        "--out", "{tmp}/x.csv"],
                       id=f"gen-data{flag}-{value}")
          for flag, value in (("--spike-scale", "inf"),
                              ("--spike-ramp", "nan"), ("--noise", "nan"))],
        pytest.param(["check-dual", "--data", "{data}", "--radius", "0"],
                     id="check-dual-radius"),
        *[pytest.param(["check-dual", "--data", "{data}", "--tol", tol],
                       id=f"check-dual-tol-{tol}")
          for tol in ("nan", "inf", "0", "-1")],
        pytest.param(["sweep", "--data", "{data}", "--split-date",
                      "2013-05-08", "--radii-log-from", "nan"],
                     id="sweep-log-from-nan"),
        pytest.param(["sweep", "--data", "{data}", "--split-date",
                      "2013-05-08", "--radii-log-from=-inf"],
                     id="sweep-log-from-inf"),
        pytest.param(["sweep", "--data", "{data}", "--split-date",
                      "2013-05-08", "--radii-log-to", "nan"],
                     id="sweep-log-to-nan"),
        pytest.param(["sweep", "--data", "{data}", "--split-date",
                      "2013-05-08", "--per-decade", "inf"],
                     id="sweep-per-decade-inf"),
        *[pytest.param(["sweep", "--data", "{data}", "--split-date",
                        "2013-05-08", "--per-decade", per],
                       id=f"sweep-per-decade-{per}")
          for per in ("1e300", "1e6")],
        pytest.param(["sweep", "--data", "{data}", "--split-date",
                      "2013-05-08", "--radii-log-from=-1e308",
                      "--radii-log-to", "1e308"],
                     id="sweep-log-span-overflow"),
        *[pytest.param(["sweep", "--data", "{data}", "--split-date",
                        "2013-05-08", "--radii", "0.3", "--threads", n],
                       id=f"sweep-threads-{n}")
          for n in ("0", "-3")],
    ])
    def test_out_of_range_value_is_usage_error(self, capsys, synth_csv,
                                               tmp_path, argv):
        argv = [a.format(data=synth_csv, tmp=tmp_path) for a in argv]
        code, doc = run_cli(capsys, argv)
        assert code == doc["exit_code"] == EXIT_USAGE
        assert not (tmp_path / "x.csv").exists()


def test_console_entry_point(tmp_path):
    # the new interpreter imports this checkout, as the tests do
    out = tmp_path / "x.csv"
    src = str(Path(drcvar.dual.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "drcvar.cli", "gen-data", "--seed", "5",
         "--days", "3", "--out", str(out)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "gen_data"
    assert out.exists()
