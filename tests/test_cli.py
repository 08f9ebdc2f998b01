import csv
import json
import re

import pytest

from entroflow import ExperimentReport, validate_report_dict
from entroflow.catalog import make_linear_spec, make_mv_field
from entroflow.cli import _MISMATCH_SECOND, EXPERIMENTS, main


def write_config(path, experiment, out, seed=7, params=None, formats="json,csv"):
    lines = [
        "[run]",
        f"experiment = {experiment}",
        f"seed = {seed}",
        f"out = {out}",
        f"formats = {formats}",
        "",
        "[params]",
    ]
    for k, v in (params or {}).items():
        lines.append(f"{k} = {v}")
    path.write_text("\n".join(lines) + "\n")
    return path


def strip_timestamp(text):
    return re.sub(r'"timestamp": "[^"]*"', '"timestamp": ""', text)


class TestRun:
    def test_talagrand_run_exit_zero(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "t.ini", "talagrand", tmp_path / "out", params={"d": 2, "mean": "1.0,0.0"}
        )
        assert main(["run", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "talagrand_report.json").read_text())
        assert validate_report_dict(report)
        assert report["verdict"] == "holds"
        assert abs(report["params"]["ratio_2ent_over_w2sq"] - 1.0) < 1e-9
        assert (tmp_path / "out" / "talagrand_plot.csv").exists()

    def test_unknown_experiment_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "t.ini", "does_not_exist", tmp_path / "out")
        assert main(["run", str(cfg)]) == 1
        assert "unknown experiment" in capsys.readouterr().err

    def test_missing_config_exit_one(self, capsys):
        assert main(["run", "/nonexistent/config.ini"]) == 1

    @pytest.mark.parametrize(
        "text",
        ["[run]\nexperiment = talagrand\n[run]\nseed = 1\n", "[run]\nexperiment talagrand\n", "experiment = talagrand\n"],
        ids=["duplicate-section", "no-equals", "no-section-header"],
    )
    def test_malformed_config_exit_one(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        assert main(["run", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(cfg) in err

    def test_unknown_flag_exit_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--bogus"])
        assert exc.value.code == 1

    def test_bad_param_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "t.ini", "talagrand", tmp_path / "out", params={"d": "x"})
        assert main(["run", str(cfg)]) == 1
        # out-of-range values stop with an error naming the parameter, not a traceback or a warning
        cases = [
            ("entropy_cost", "d=0", "'d'"),
            ("mismatch_singularity", "d=0", "'d'"),
            ("bridge_decomposition", "d=0", "'d'"),
            ("entropy_cost", "n_t=0", "'n_t'"),
            ("talagrand", "d=-2", "'d'"),
            # a time that is not positive is named, not left to numpy or the oracle
            ("mismatch_singularity", "t=0", "'t': 0.0 is not a positive time"),
            ("mismatch_singularity", "t=-0.5", "'t'"),
            ("entropy_cost", "t_min=0", "'t_min'"),
            ("entropy_cost", "t_min=-1", "'t_min'"),
            ("entropy_cost", "t_max=0", "'t_max'"),
            ("meanfield_entropy_cost", "t_min=-0.1", "'t_min'"),
            ("meanfield_entropy_cost", "t_max=0", "'t_max'"),
            ("bridge_decomposition", "t1=0", "'t1'"),
            ("bridge_decomposition", "t1=-2", "'t1'"),
            ("log_harnack", "t=0", "'t'"),
            ("meanfield_entropy_cost", "k=0", "'k'"),
            ("mismatch_singularity", "a1=0", "a_scale"),
            ("mismatch_singularity", "a1=inf", "'a1'"),
            ("meanfield_entropy_cost", "field_a=0", "a_scale"),
            ("entropy_cost", "spec1_a=-1", "a_scale"),
            ("bridge_decomposition", "spec2_a=nan", "'spec2_a'"),
            # non-finite numbers stop at the CLI instead of reaching a verdict
            ("log_harnack", "t=nan", "'t'"),
            ("log_harnack", "k_curv=nan", "'k_curv'"),
            ("entropy_cost", "t_max=nan", "'t_max'"),
            ("talagrand", "mean=1,nan", "'mean'"),
            # a negative covariance scale is not a point mass
            ("meanfield_entropy_cost", "nu1_cov_scale=-1", "'nu1_cov_scale'"),
            ("meanfield_entropy_cost", "nu2_cov_scale=-0.5", "'nu2_cov_scale'"),
            # a point start against a Gaussian one has no W2 to compare with
            ("meanfield_entropy_cost", "nu2_cov_scale=0.5", "'nu1_cov_scale' and 'nu2_cov_scale'"),
            # each of the 4 k-NN batches needs k+1 particles
            ("meanfield_entropy_cost", "n_particles=20", "n_particles"),
            # a given parameter the chosen catalog entry does not take is not dropped in silence
            ("meanfield_entropy_cost", "field_kind=dini-power-drift field_rate=5",
             "'field_rate': field_kind 'dini-power-drift' takes no 'rate'"),
            ("meanfield_entropy_cost", "field_kind=heat field_rate=2", "'field_rate': field_kind 'heat'"),
            ("entropy_cost", "spec1_rate=5", "'spec1_rate': spec1_kind 'heat' takes no 'rate'"),
            ("entropy_cost", "spec2_kind=ou spec2_c=0.5", "'spec2_c': spec2_kind 'ou' takes no 'c'"),
            ("bridge_decomposition", "spec1_kind=drift-gap spec1_rate=2", "'spec1_rate': spec1_kind 'drift-gap'"),
            # a vector longer than d is not cut to fit
            ("talagrand", "d=1 mean=1,2", "'mean'"),
            ("entropy_cost", "x2=1,5", "'x2'"),
            ("bridge_decomposition", "d=2 x1=1,2,3", "'x1'"),
            ("meanfield_entropy_cost", "nu1_mean=0,1", "'nu1_mean'"),
            ("meanfield_entropy_cost", "nu2_mean=1,0", "'nu2_mean'"),
        ]
        for experiment, settings, named in cases:
            capsys.readouterr()
            args = ["run", "--experiment", experiment, "--out", str(tmp_path / "o")]
            for setting in settings.split():
                args += ["--set", setting]
            assert main(args) == 1, settings
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err, (settings, err)
            assert not (tmp_path / "o").exists(), settings
        # the rule holds for a config file's [params] too, and a parameter the entry takes passes it
        cfg = write_config(tmp_path / "r.ini", "entropy_cost", tmp_path / "r", params={"spec2_rate": "2"})
        capsys.readouterr()
        assert main(["run", str(cfg)]) == 1
        assert "'spec2_rate': spec2_kind 'heat'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()
        assert main(["run", str(cfg), "--set", "spec2_kind=ou"]) == 0

    def test_unknown_run_key_exit_one(self, tmp_path, capsys):
        # a misspelt key must not be ignored: "sed = 5" is not a seed
        cfg = write_config(tmp_path / "t.ini", "talagrand", tmp_path / "out")
        cfg.write_text(cfg.read_text().replace("seed = 7", "sed = 5"))
        assert main(["run", str(cfg)]) == 1
        assert "'sed'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("formats", ["jsn", "json,xml", ","])
    def test_bad_formats_exit_one(self, tmp_path, capsys, formats):
        # a run that would write no report must not exit 0
        cfg = write_config(tmp_path / "t.ini", "talagrand", tmp_path / "out", formats=formats)
        assert main(["run", str(cfg)]) == 1
        assert "formats" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_param_value_writes_no_output_dir(self, tmp_path, capsys):
        # a value the catalog rejects stops the run before any file is written
        out = tmp_path / "out"
        args = ["run", "--experiment", "mismatch_singularity", "--set", "a1=0", "--out", str(out)]
        assert main(args) == 1
        assert "a_scale" in capsys.readouterr().err
        assert not out.exists()

    def test_divergent_finding_exit_zero(self, tmp_path):
        cfg = write_config(
            tmp_path / "m.ini",
            "mismatch_singularity",
            tmp_path / "out",
            params={"pair": "diffusion-gap", "t": "0.25"},
        )
        assert main(["run", str(cfg)]) == 0
        report = json.loads((tmp_path / "out" / "mismatch_singularity_report.json").read_text())
        assert report["verdict"] == "divergent"

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "o"
        code = main(
            [
                "run",
                "--experiment",
                "talagrand",
                "--seed",
                "3",
                "--out",
                str(out),
                "--set",
                "d=1",
                "--set",
                "mean=0.5",
            ]
        )
        assert code == 0
        report = json.loads((out / "talagrand_report.json").read_text())
        assert report["seed"] == 3

    def test_determinism_byte_identical_minus_timestamp(self, tmp_path):
        cfg1 = write_config(tmp_path / "a.ini", "talagrand", tmp_path / "out1", seed=9)
        cfg2 = write_config(tmp_path / "b.ini", "talagrand", tmp_path / "out2", seed=9)
        assert main(["run", str(cfg1)]) == 0
        assert main(["run", str(cfg2)]) == 0
        a = (tmp_path / "out1" / "talagrand_report.json").read_text()
        b = (tmp_path / "out2" / "talagrand_report.json").read_text()
        assert a != b or a == b  # timestamps may coincide
        assert strip_timestamp(a) == strip_timestamp(b)

    def test_jobs_concurrent_isolated_outputs(self, tmp_path):
        cfg1 = write_config(tmp_path / "a.ini", "talagrand", tmp_path / "out1", seed=1)
        cfg2 = write_config(
            tmp_path / "b.ini",
            "entropy_cost",
            tmp_path / "out2",
            params={"spec1_kind": "heat", "spec2_kind": "heat", "x2": "1.0"},
        )
        assert main(["run", str(cfg1), str(cfg2), "--jobs", "2"]) == 0
        assert (tmp_path / "out1" / "talagrand_report.json").exists()
        assert (tmp_path / "out2" / "entropy_cost_report.json").exists()

    def test_env_output_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENTROFLOW_OUT", str(tmp_path / "root"))
        cfg = write_config(tmp_path / "t.ini", "talagrand", "rel_out")
        assert main(["run", str(cfg)]) == 0
        assert (tmp_path / "root" / "rel_out" / "talagrand_report.json").exists()

    def test_violated_verdict_exit_two(self, tmp_path, monkeypatch):
        from entroflow.reports import ExperimentReport

        def broken(params, seed):
            rep = ExperimentReport("talagrand", {}, 2.0, 1.0, 0.0, "violated")
            return rep, ("i", "left", "right"), [(0, 2.0, 1.0)]

        summary, schema, _ = EXPERIMENTS["talagrand"]
        monkeypatch.setitem(EXPERIMENTS, "talagrand", (summary, schema, broken))
        cfg = write_config(tmp_path / "t.ini", "talagrand", tmp_path / "out")
        assert main(["run", str(cfg)]) == 2

    def test_static_dini_field_offered_for_mean_field(self, tmp_path):
        out = tmp_path / "dini"
        args = ["run", "--experiment", "meanfield_entropy_cost", "--out", str(out)]
        assert main(args + ["--set", "field_kind=dini-power-drift", "--set", "d=1"]) == 0
        report = json.loads((out / "meanfield_entropy_cost_report.json").read_text())
        assert validate_report_dict(report) and report["verdict"] == "holds"

    def test_start_vectors_padded_to_d(self, tmp_path):
        # the default one-entry start vectors are padded with zeros up to d
        for experiment in ("entropy_cost", "bridge_decomposition"):
            out = tmp_path / experiment
            args = ["run", "--experiment", experiment, "--out", str(out), "--set", "d=2"]
            assert main(args) == 0, experiment
            report = json.loads((out / f"{experiment}_report.json").read_text())
            assert validate_report_dict(report)

    @pytest.mark.parametrize("experiment", list(EXPERIMENTS))
    def test_default_run_holds_and_round_trips(self, tmp_path, experiment):
        # every experiment at defaults (mismatch: the drift-gap pair) holds,
        # writes a schema-valid report and a CSV with rows, and its report
        # decodes and re-encodes to the same JSON
        out = tmp_path / "out"
        assert main(["run", "--experiment", experiment, "--out", str(out)]) == 0
        text = (out / f"{experiment}_report.json").read_text()
        report = json.loads(text)
        assert validate_report_dict(report) and report["verdict"] == "holds"
        assert ExperimentReport.from_json_dict(report).to_json() + "\n" == text
        with open(out / f"{experiment}_plot.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert len(header) == 3 and rows and all(len(row) == 3 for row in rows)

    def test_default_bridge_compares_two_different_flows(self, tmp_path):
        # the defaults start the two heat flows at 0 and 1: Ent = |x1 - x2|^2 / (4 t1)
        out = tmp_path / "out"
        assert main(["run", "--experiment", "bridge_decomposition", "--out", str(out)]) == 0
        report = json.loads((out / "bridge_decomposition_report.json").read_text())
        assert report["left"] == pytest.approx(0.25, abs=1e-12) and report["verdict"] == "holds"

    def test_log_harnack_past_expm1_overflow_exit_zero(self, tmp_path):
        # 2 k_curv t = 800: the coefficient is continued past the float range of e^{2Kt}
        out = tmp_path / "out"
        assert main(["run", "--experiment", "log_harnack", "--set", "k_curv=800", "--out", str(out)]) == 0
        report = json.loads((out / "log_harnack_report.json").read_text())
        assert report["verdict"] == "holds"

    def test_offered_catalog_names_build(self):
        # each catalog name offered as a choice builds through the lookup the run passes it to
        for name, (_, schema, _) in EXPERIMENTS.items():
            for key in ("spec1_kind", "spec2_kind"):
                for kind in schema.get(key, {"choices": ()})["choices"]:
                    assert make_linear_spec(kind, d=2).dim == 2
        for kind in EXPERIMENTS["meanfield_entropy_cost"][1]["field_kind"]["choices"]:
            assert make_mv_field(kind, d=2).dim == 2
        for pair in EXPERIMENTS["mismatch_singularity"][1]["pair"]["choices"]:
            assert make_linear_spec(_MISMATCH_SECOND[pair][0], d=2).dim == 2


class TestList:
    def test_catalog_lists_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out
        assert len(EXPERIMENTS) == 6

    def test_json_schema_output(self, capsys):
        assert main(["list", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == set(EXPERIMENTS)
        for schema in payload.values():
            assert "params" in schema and "summary" in schema
            for spec in schema["params"].values():
                assert {"type", "default", "help"} <= set(spec)
