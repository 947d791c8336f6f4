import csv
import json

import numpy as np
import pytest

from riskratio import cli
from riskratio.cli import main

LUNCEFORD_TRUE_RR = 2.0 / 2.55 + 1.0


def _write_toy_csv(tmp_path, name="toy.csv"):
    path = tmp_path / name
    path.write_text("y,t,x1\n2.0,1,0.1\n4.0,1,0.4\n1.0,0,0.2\n3.0,0,0.3\n", encoding="utf-8")
    return path


def _read_report(out_dir):
    with open(out_dir / "report.csv", newline="", encoding="utf-8") as fh:
        return {row["estimator"]: row for row in csv.DictReader(fh)}


class TestEstimate:
    def test_neyman_hand_value(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["estimate", "--input", str(_write_toy_csv(tmp_path)), "--out", str(out),
             "--estimators", "neyman"]
        )
        assert code == 0
        rows = _read_report(out)
        assert float(rows["neyman"]["point"]) == 1.5
        assert float(rows["neyman"]["se"]) > 0
        assert (out / "config.resolved").exists()
        assert (out / "report.json").exists()

    def test_aipw_on_exported_sample(self, tmp_path):
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--dgp", "lunceford", "--n", "5000", "--seed", "17",
                     "--out", str(sim_out)]) == 0
        out = tmp_path / "est"
        code = main(
            ["estimate", "--input", str(sim_out / "dataset.csv"), "--out", str(out),
             "--estimators", "aipw", "--nuisance", "parametric", "--k", "5"]
        )
        assert code == 0
        rows = _read_report(out)
        assert float(rows["parametric_aipw"]["point"]) == pytest.approx(
            LUNCEFORD_TRUE_RR, abs=0.1
        )

    def test_katz_on_continuous_outcome_is_validation_error(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["estimate", "--input", str(_write_toy_csv(tmp_path)), "--out", str(out),
             "--estimators", "neyman", "--ci-style", "katz"]
        )
        assert code == 2

    def test_missing_input_file_is_io_error(self, tmp_path):
        code = main(
            ["estimate", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path / "o")]
        )
        assert code == 4

    def test_separation_is_fit_error_with_estimator_name(self, tmp_path, capsys):
        g = np.random.default_rng(0)
        x = g.normal(size=40)
        lines = ["y,t,x1"] + [f"{1.0 + abs(v)},{int(v > 0)},{v}" for v in x]
        path = tmp_path / "sep.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = main(["estimate", "--input", str(path), "--out", str(tmp_path / "o"),
                     "--estimators", "ipw"])
        assert code == 3
        assert "ipw" in capsys.readouterr().err

    def test_fit_validation_error_names_the_estimator(self, tmp_path, capsys):
        # OLS on two covariates needs three rows per arm; the treated arm has two
        path = tmp_path / "short.csv"
        path.write_text(
            "y,t,x1,x2\n2.0,1,0.1,1.0\n4.0,1,0.4,0.0\n1.0,0,0.2,1.0\n3.0,0,0.3,0.0\n"
            "5.0,0,0.5,2.0\n",
            encoding="utf-8",
        )
        code = main(["estimate", "--input", str(path), "--out", str(tmp_path / "o"),
                     "--estimators", "neyman,g"])
        assert code == 2
        assert capsys.readouterr().err == "error: parametric_g: need at least p+1=3 rows, got 2\n"
        assert not (tmp_path / "o" / "report.csv").exists()

    def test_forest_nuisance_without_covariates_exits_two(self, tmp_path, capsys):
        # a y,t CSV loads, and parametric aipw fits it by intercepts alone,
        # but a forest has no column to split on
        g = np.random.default_rng(0)
        t = (g.random(60) < 0.5).astype(int)
        y = (g.random(60) < 0.3 + 0.2 * t).astype(int)
        path = tmp_path / "no_covariates.csv"
        path.write_text("y,t\n" + "".join(f"{a},{b}\n" for a, b in zip(y, t)), encoding="utf-8")
        argv = ["estimate", "--input", str(path), "--estimators"]
        assert main([*argv, "aipw", "--out", str(tmp_path / "p")]) == 0
        assert main([*argv, "aipw:forest", "--out", str(tmp_path / "f")]) == 2
        message = "error: forest_aipw: forests need at least one covariate column\n"
        assert capsys.readouterr().err == message
        assert not (tmp_path / "f" / "report.csv").exists()

    def test_failed_interval_keeps_the_point_in_the_report(self, tmp_path):
        # the control outcomes are negative, so the arm-means ratio is -1.5 and
        # has no log-scale interval
        path = tmp_path / "negative.csv"
        path.write_text(
            "y,t,x1\n2.0,1,0.1\n4.0,1,0.4\n-1.0,0,0.2\n-3.0,0,0.3\n", encoding="utf-8"
        )
        out = tmp_path / "out"
        code = main(["estimate", "--input", str(path), "--out", str(out),
                     "--estimators", "neyman", "--ci-style", "log_delta"])
        assert code == 0
        row = _read_report(out)["neyman"]
        assert float(row["point"]) == -1.5 and float(row["se"]) > 0.0
        assert row["ci_lower"] == row["ci_upper"] == ""
        message = "log-scale interval needs a positive point estimate"
        assert row["flags"].split(";")[0] == f"interval-failed: {message}"

    def test_unknown_estimator_rejected(self, tmp_path):
        code = main(
            ["estimate", "--input", str(_write_toy_csv(tmp_path)),
             "--out", str(tmp_path / "o"), "--estimators", "magic"]
        )
        assert code == 2

    def test_unknown_flag_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--frobnicate", "1"])
        assert exc.value.code == 2

    def test_all_estimators_on_randomised_sample(self, tmp_path):
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--dgp", "linear_rct", "--n", "2000", "--seed", "3",
                     "--out", str(sim_out)]) == 0
        out = tmp_path / "all"
        code = main(
            ["estimate", "--input", str(sim_out / "dataset.csv"), "--out", str(out),
             "--estimators", "neyman,ht,ipw,g,os,aipw", "--e", "0.5"]
        )
        assert code == 0
        rows = _read_report(out)
        assert len(rows) == 6
        for row in rows.values():
            assert float(row["ci_lower"]) <= float(row["point"]) <= float(row["ci_upper"])
            assert float(row["point"]) == pytest.approx(2.0, abs=0.4)


class TestSimulate:
    def test_outputs_exist_and_are_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            assert main(["simulate", "--dgp", "linear_rct", "--n", "200", "--seed", "5",
                         "--out", str(out)]) == 0
        assert (out1 / "dataset.csv").read_bytes() == (out2 / "dataset.csv").read_bytes()
        assert (out1 / "oracle.json").read_bytes() == (out2 / "oracle.json").read_bytes()
        sidecar = json.loads((out1 / "oracle.json").read_text(encoding="utf-8"))
        assert len(sidecar["y0"]) == 200

    def test_bad_kind_is_validation_error(self, tmp_path):
        assert main(["simulate", "--dgp", "nope", "--out", str(tmp_path / "o")]) == 2


class TestExperiment:
    def test_small_run_writes_reports(self, tmp_path):
        out = tmp_path / "exp"
        code = main(
            ["experiment", "--dgp", "linear_rct", "--n-list", "60", "--reps", "3",
             "--estimators", "neyman,g:oracle", "--truth-draws", "100000",
             "--out", str(out)]
        )
        assert code == 0
        data = json.loads((out / "report.json").read_text(encoding="utf-8"))
        assert data["true_rr"] == 2.0
        assert {c["estimator"] for c in data["cells"]} == {"neyman", "oracle_g"}
        resolved = (out / "config.resolved").read_text(encoding="utf-8")
        assert "reps=3" in resolved and "dgp=linear_rct" in resolved

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "plan.cfg"
        cfg.write_text(
            "dgp=linear_rct\nn_list=60\nreps=2\nestimators=neyman\n# comment\n",
            encoding="utf-8",
        )
        out = tmp_path / "exp2"
        code = main(["experiment", "--config", str(cfg), "--reps", "4", "--out", str(out)])
        assert code == 0
        resolved = (out / "config.resolved").read_text(encoding="utf-8")
        assert "reps=4" in resolved  # the flag overrides the file

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "plan.cfg"
        cfg.write_text("dgp=linear_rct\nbogus=1\n", encoding="utf-8")
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_malformed_config_line_rejected(self, tmp_path):
        cfg = tmp_path / "plan.cfg"
        cfg.write_text("dgp linear_rct\n", encoding="utf-8")
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


# config.resolved of each command run with defaults only, minus its input / out lines
DEFAULT_RESOLVED = {
    "estimate": (
        "alpha=0.05\nci_style=wald\ncommand=estimate\ne=\nestimators=aipw\neta=0.01\n"
        "k=5\nn_trees=100\nnuisance=parametric\nseed=0\n"
    ),
    "experiment": (
        "alpha=0.05\nci_style=wald\ncommand=experiment\ndgp=lunceford\ne=\n"
        "estimators=parametric_aipw\neta=0.01\nmaster_seed=0\nn_list=1000\nn_trees=100\n"
        "reps=300\nsigma=1.0\ntruth_draws=1000000\nworkers=1\n"
    ),
}


class TestResolvedDefaults:
    @pytest.mark.parametrize("command", sorted(DEFAULT_RESOLVED))
    def test_default_config_resolved_text(self, tmp_path, command):
        out = tmp_path / "o"
        source = ["--input", "in.csv"] if command == "estimate" else ["--dgp", "lunceford"]
        args = cli._build_parser().parse_args([command, *source, "--out", str(out)])
        cli._write_resolved(cli._resolve(args))
        lines = (out / "config.resolved").read_text(encoding="utf-8").splitlines(keepends=True)
        text = "".join(l for l in lines if not l.startswith(("input=", "out=")))
        assert text == DEFAULT_RESOLVED[command]


class TestImpossiblePlans:
    @pytest.mark.parametrize(
        "n_list, estimator, extra",
        [
            ("60", "aipw:forest:2", ["--n-trees", "0"]),
            ("20", "aipw:parametric:50", []),
            ("60", "aipw:parametric:2:junk", []),
            ("10", "aipw:parametric:5,g", []),
            ("60,60", "neyman", []),
        ],
    )
    def test_plan_that_cannot_succeed_exits_two(self, tmp_path, n_list, estimator, extra):
        out = tmp_path / "o"
        code = main(["experiment", "--dgp", "linear_rct", "--n-list", n_list, "--reps", "2",
                     "--estimators", estimator, "--truth-draws", "1000", *extra,
                     "--out", str(out)])
        assert code == 2
        assert not (out / "report.json").exists()


class TestTrueRR:
    def test_closed_form_printed(self, capsys):
        assert main(["true-rr", "--dgp", "linear_rct"]) == 0
        out = capsys.readouterr().out
        assert "true_rr=2.0" in out
        assert "provenance=closed_form" in out
        assert "config.dgp=linear_rct" in out

    def test_oracle_reports_uncertainty(self, capsys):
        assert main(["true-rr", "--dgp", "lunceford", "--draws", "200000"]) == 0
        out = capsys.readouterr().out
        assert "provenance=mc_oracle" in out
        assert "mc_draws=200000" in out
        assert "mc_se=" in out

    def test_missing_dgp_flag(self):
        assert main(["true-rr"]) == 2


class TestMalformedNumbers:
    @pytest.mark.parametrize(
        "argv, option",
        [
            (["experiment", "--dgp", "lunceford", "--reps", "abc"], "--reps"),
            (["experiment", "--dgp", "lunceford", "--n-list", "100,x"], "--n-list"),
            (["experiment", "--dgp", "lunceford", "--alpha", "small"], "--alpha"),
            (["estimate", "--input", "in.csv", "--k", "two"], "--k"),
            (["true-rr", "--dgp", "lunceford", "--draws", "1e6"], "--draws"),
        ],
    )
    def test_bad_option_value_exits_two_naming_it(self, tmp_path, capsys, argv, option):
        if argv[0] != "true-rr":
            argv = argv + ["--out", str(tmp_path / "o")]
        assert main(argv) == 2
        assert option in capsys.readouterr().err

    def test_bad_config_file_value_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "plan.cfg"
        cfg.write_text("dgp=linear_rct\nreps=many\n", encoding="utf-8")
        assert main(["experiment", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "--reps" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["estimate", "experiment"])
    def test_bad_fold_count_in_estimator_spec_exits_two(self, tmp_path, capsys, command):
        if command == "estimate":
            source = ["--input", str(_write_toy_csv(tmp_path))]
        else:
            source = ["--dgp", "linear_rct"]
        code = main([command, *source, "--estimators", "aipw:parametric:x",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "aipw:parametric:x" in capsys.readouterr().err


class TestEstimateSpecs:
    def test_specs_override_the_default_nuisance(self, tmp_path):
        sim_out = tmp_path / "sim"
        assert main(["simulate", "--dgp", "linear_rct", "--n", "400", "--seed", "3",
                     "--out", str(sim_out)]) == 0
        out = tmp_path / "est"
        code = main(
            ["estimate", "--input", str(sim_out / "dataset.csv"), "--out", str(out),
             "--estimators", "ipw,g:parametric,aipw:parametric:2,parametric_os",
             "--nuisance", "parametric"]
        )
        assert code == 0
        assert set(_read_report(out)) == {
            "parametric_ipw", "parametric_g", "parametric_aipw", "parametric_os"
        }

    def test_duplicate_names_exit_two_without_report(self, tmp_path, capsys):
        out = tmp_path / "est"
        code = main(
            ["estimate", "--input", str(_write_toy_csv(tmp_path)), "--out", str(out),
             "--estimators", "aipw:parametric:2,aipw:parametric:5"]
        )
        assert code == 2
        assert "unique" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("specs", ["", ","])
    def test_empty_estimator_list_exits_two_without_report(self, tmp_path, capsys, specs):
        out = tmp_path / "est"
        code = main(
            ["estimate", "--input", str(_write_toy_csv(tmp_path)), "--out", str(out),
             "--estimators", specs]
        )
        assert code == 2
        assert "at least one estimator" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    def test_unknown_nuisance_of_design_based_method_exits_two(self, tmp_path):
        out = tmp_path / "est"
        code = main(
            ["estimate", "--input", str(_write_toy_csv(tmp_path)), "--out", str(out),
             "--estimators", "neyman:bogus"]
        )
        assert code == 2
        assert not (out / "report.csv").exists()

    def test_every_spec_is_validated_before_any_estimator_runs(self, tmp_path, monkeypatch):
        def run_single(*args, **kwargs):
            raise AssertionError("an estimator ran before every spec was validated")

        monkeypatch.setattr(cli, "run_single", run_single)
        for specs in ("neyman,ht", "ipw,g:oracle"):
            code = main(
                ["estimate", "--input", str(_write_toy_csv(tmp_path)),
                 "--out", str(tmp_path / "o"), "--estimators", specs]
            )
            assert code == 2

    def test_oracle_default_nuisance_exits_two(self, tmp_path, capsys):
        out = tmp_path / "est"
        code = main(
            ["estimate", "--input", str(_write_toy_csv(tmp_path)), "--out", str(out),
             "--nuisance", "oracle"]
        )
        assert code == 2
        assert "oracle" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize("command", ["estimate", "experiment"])
    def test_event_count_style_exits_two_naming_the_styles(self, tmp_path, capsys, command):
        if command == "estimate":
            source = ["--input", str(_write_toy_csv(tmp_path))]
        else:
            source = ["--dgp", "linear_rct", "--truth-draws", "1000"]
        out = tmp_path / "o"
        code = main([command, *source, "--estimators", "neyman", "--ci-style", "katz",
                     "--out", str(out)])
        assert code == 2
        assert "wald|log_delta" in capsys.readouterr().err
        assert not (out / "report.json").exists()
