import json
import math

import pytest

from entroflow import ExperimentReport, classify, validate_report_dict
from entroflow.reports import _FORMAT, VERDICTS, write_plot_csv


class TestClassify:
    def test_basic(self):
        assert classify(1.0, 2.0, 0.0) == "holds"
        assert classify(2.0, 1.0, 0.0) == "violated"
        assert classify(1.0, 0.999, 0.01) == "holds"

    def test_infinite_right_vacuous(self):
        assert classify(5.0, math.inf, 0.0) == "holds"

    def test_nan_violated(self):
        assert classify(math.nan, 1.0, 0.0) == "violated"


class TestReport:
    def _rep(self):
        return ExperimentReport("demo", {"a": 1}, 1.0, 2.0, 0.1, notes="n", seed=3)

    def test_margin(self):
        assert self._rep().margin == pytest.approx(1.0)

    def test_margin_of_two_infinite_sides_is_null(self):
        rep = ExperimentReport("inf", {}, math.inf, math.inf, 0.0)
        assert math.isnan(rep.margin)
        assert rep.verdict == "holds"
        d = json.loads(rep.to_json())
        assert d["margin"] is None and validate_report_dict(d)

    def test_verdict_derived_from_values(self):
        assert self._rep().verdict == "holds"
        assert ExperimentReport("v", {}, 2.0, 1.0, 0.5).verdict == "violated"
        assert ExperimentReport("inf", {}, 5.0, math.inf, 0.0).verdict == "holds"
        # a declared outcome the values cannot show is kept as declared
        assert ExperimentReport("d", {}, 2.0, 1.0, 0.0, "degenerate").verdict == "degenerate"

    def test_inconsistent_verdict_rejected(self):
        with pytest.raises(ValueError):
            ExperimentReport("bad", {}, 2.0, 1.0, 0.0, "holds")

    def test_unknown_verdict_rejected(self):
        with pytest.raises(ValueError):
            ExperimentReport("bad", {}, 0.0, 1.0, 0.0, "maybe")

    @pytest.mark.parametrize("tol", [-1e-12, math.nan])
    def test_bad_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="tolerance"):
            ExperimentReport("bad", {}, 0.0, 1.0, tol)

    def test_json_roundtrip_and_schema(self):
        rep = self._rep().stamp()
        d = json.loads(rep.to_json())
        assert validate_report_dict(d)
        back = ExperimentReport.from_json_dict(d)
        assert back.left == rep.left and back.verdict == rep.verdict

    def test_infinity_roundtrip(self):
        rep = ExperimentReport("inf", {}, 1.0, math.inf, 0.0, "holds")
        d = json.loads(rep.to_json())
        assert d["right"] == math.inf
        assert validate_report_dict(d)

    def test_schema_rejects_missing_keys(self):
        d = json.loads(self._rep().stamp().to_json())
        del d["margin"]
        with pytest.raises(ValueError):
            validate_report_dict(d)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("extra", 1),
            ("tolerance", -0.5),
            ("tolerance", math.nan),
            ("left", True),
            ("seed", False),
            ("name", 1),
            ("params", []),
            ("margin", "x"),
            ("verdict", "maybe"),
            ("notes", 1),
            ("timestamp", None),
        ],
    )
    def test_schema_rejects_what_the_schema_file_rejects(self, key, value):
        d = json.loads(self._rep().stamp().to_json())
        d[key] = value
        with pytest.raises(ValueError, match=key):
            validate_report_dict(d)

    def test_schema_file_agrees_with_keys(self):
        import os

        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(here, "docs", "experiment_report.schema.json")) as fh:
            schema = json.load(fh)
        d = json.loads(self._rep().stamp().to_json())
        assert set(schema["required"]) == set(d) == set(_FORMAT)
        assert list(schema["properties"]) == list(_FORMAT)
        assert tuple(schema["properties"]["verdict"]["enum"]) == VERDICTS
        assert schema["properties"]["tolerance"]["minimum"] == 0
        assert schema["additionalProperties"] is False
        # each table test accepts one sample of a JSON type iff the schema file's type or enum does
        samples = {"string": "s", "object": {}, "array": [], "boolean": True, "null": None, "integer": 3, "number": 0.5}
        for key, (test, _) in _FORMAT.items():
            prop = schema["properties"][key]
            if "enum" in prop:
                assert all(test(v) for v in prop["enum"]), key
                assert not any(test(v) for v in samples.values()), key
                continue
            types = set(prop["type"]) if isinstance(prop["type"], list) else {prop["type"]}
            if "number" in types:
                types.add("integer")
            for kind, value in samples.items():
                assert test(value) == (kind in types), (key, kind)
            if "minimum" in prop:
                assert test(prop["minimum"]) and not test(prop["minimum"] - 0.5), key

    def test_plot_csv(self, tmp_path):
        path = tmp_path / "plot.csv"
        write_plot_csv(path, ("t", "left", "right"), [(0.1, 1.0, 2.0), (0.2, 1.5, 2.5)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,left,right"
        assert len(lines) == 3
