"""Named inequality-check records.

An ExperimentReport stores both sides of a checked inequality, the
statistical tolerance and a verdict, and it is the one place that decides
between "holds" and "violated": holds iff left <= right + tolerance in the
extended reals, so an infinite right side holds vacuously and a NaN side is
violated.  An experiment declares only the outcomes its values cannot show:
"degenerate" (0/0 ratios, inconclusive estimates) and "divergent" (a
flagged divergent bound).  The tolerance must be a nonnegative number.
validate_report_dict enforces the rules of docs/experiment_report.schema.json
on a decoded report; it lets an infinite left or right through, which strict
JSON cannot carry.
"""

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

VERDICTS = ("holds", "violated", "degenerate", "divergent")

#: the keys of the report JSON schema, no more and no fewer
_JSON_KEYS = (
    "name",
    "params",
    "left",
    "right",
    "margin",
    "tolerance",
    "verdict",
    "notes",
    "seed",
    "timestamp",
)


class ExperimentError(ValueError):
    """Input an experiment cannot check: a bad time grid, too few particles, a value out of range."""


def classify(left, right, tolerance):
    """holds iff left <= right + tolerance in the extended reals."""
    if math.isnan(left) or math.isnan(right):
        return "violated"
    if math.isinf(right) and right > 0:
        return "holds"
    return "holds" if left <= right + tolerance else "violated"


@dataclass
class ExperimentReport:
    """One inequality check.  Without a verdict, the verdict is derived from
    (left, right, tolerance); a "holds" or "violated" passed in (a decoded
    report, a positional caller) must agree with that derivation, and
    "degenerate" or "divergent" is kept as declared."""

    name: str
    params: dict
    left: float
    right: float
    tolerance: float
    verdict: str | None = None
    notes: str = ""
    seed: int | None = None
    timestamp: str = ""

    def __post_init__(self):
        if self.verdict is not None and self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        self.left = float(self.left)
        self.right = float(self.right)
        self.tolerance = float(self.tolerance)
        if not self.tolerance >= 0:
            raise ValueError(f"tolerance must be a number >= 0, got {self.tolerance!r}")
        if self.verdict in (None, "holds", "violated"):
            derived = classify(self.left, self.right, self.tolerance)
            if self.verdict not in (None, derived):
                raise ValueError(
                    f"verdict {self.verdict!r} inconsistent with "
                    f"left={self.left!r}, right={self.right!r}, tol={self.tolerance!r}"
                )
            self.verdict = derived

    @property
    def margin(self):
        if math.isinf(self.right) and math.isinf(self.left):
            return math.nan
        return self.right - self.left

    def stamp(self):
        self.timestamp = datetime.now(timezone.utc).isoformat()
        return self

    def to_json_dict(self):
        return {
            "name": self.name,
            "params": self.params,
            "left": self.left,
            "right": self.right,
            "margin": None if math.isnan(self.margin) else self.margin,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
            "notes": self.notes,
            "seed": self.seed,
            "timestamp": self.timestamp,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, d):
        return cls(
            name=d["name"],
            params=d["params"],
            left=d["left"],
            right=d["right"],
            tolerance=d["tolerance"],
            verdict=d["verdict"],
            notes=d.get("notes", ""),
            seed=d.get("seed"),
            timestamp=d.get("timestamp", ""),
        )


def write_plot_csv(path, header, rows):
    """Plot-ready CSV: a grid variable plus left/right columns per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row]
            )


def _is_number(v):
    # bool is an int subclass in Python but not a JSON number
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def validate_report_dict(d):
    """Check a decoded report against docs/experiment_report.schema.json."""
    missing = [k for k in _JSON_KEYS if k not in d]
    if missing:
        raise ValueError(f"report missing keys: {missing}")
    unexpected = sorted(set(d) - set(_JSON_KEYS))
    if unexpected:
        raise ValueError(f"report has unexpected keys: {unexpected}")
    if not isinstance(d["name"], str) or not isinstance(d["params"], dict):
        raise ValueError("name must be a string and params an object")
    for key in ("left", "right", "tolerance"):
        if not _is_number(d[key]):
            raise ValueError(f"{key} must be a number")
    if not d["tolerance"] >= 0:
        raise ValueError("tolerance must be >= 0")
    if d["margin"] is not None and not _is_number(d["margin"]):
        raise ValueError("margin must be a number or null")
    if d["verdict"] not in VERDICTS:
        raise ValueError(f"verdict must be one of {VERDICTS}")
    if not isinstance(d["notes"], str) or not isinstance(d["timestamp"], str):
        raise ValueError("notes and timestamp must be strings")
    if d["seed"] is not None and (not isinstance(d["seed"], int) or isinstance(d["seed"], bool)):
        raise ValueError("seed must be an integer or null")
    return True
