import json
import re

import pytest

from entroflow import validate_report_dict
from entroflow.catalog import make_field, make_linear_spec, make_mv_field
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
            ("mismatch_singularity", "n_mc=0", "'n_mc'"),
            ("meanfield_entropy_cost", "k=0", "'k'"),
            ("mismatch_singularity", "a1=0", "a_scale"),
            ("mismatch_singularity", "a1=inf", "a_scale"),
            ("meanfield_entropy_cost", "field_a=0", "a_scale"),
            ("entropy_cost", "spec1_a=-1", "a_scale"),
            ("bridge_decomposition", "spec2_a=nan", "a_scale"),
        ]
        for experiment, setting, named in cases:
            capsys.readouterr()
            args = ["run", "--experiment", experiment, "--out", str(tmp_path / "o"), "--set", setting]
            assert main(args) == 1, setting
            err = capsys.readouterr().err
            assert err.startswith("error: ") and named in err, (setting, err)

    def test_divergent_finding_exit_zero(self, tmp_path):
        cfg = write_config(
            tmp_path / "m.ini",
            "mismatch_singularity",
            tmp_path / "out",
            params={"pair": "diffusion-gap", "t": "0.25", "n_mc": "80"},
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


    def test_offered_catalog_names_build(self):
        # each catalog name offered as a choice builds through the lookup the run passes it to
        for name, (_, schema, _) in EXPERIMENTS.items():
            for key in ("spec1_kind", "spec2_kind"):
                for kind in schema.get(key, {"choices": ()})["choices"]:
                    assert make_linear_spec(kind, d=2).dim == 2
        for kind in EXPERIMENTS["meanfield_entropy_cost"][1]["field_kind"]["choices"]:
            assert make_mv_field(kind, d=2).dim == 2
        for pair in EXPERIMENTS["mismatch_singularity"][1]["pair"]["choices"]:
            kind = _MISMATCH_SECOND[pair][0]
            assert make_field(kind, d=2).dim == make_linear_spec(kind, d=2).dim == 2


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
