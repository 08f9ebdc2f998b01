"""Named inequality-check records.

An ExperimentReport stores both sides of a checked inequality plus the
statistical tolerance and a verdict.  The verdict for finite values is a pure
function of (left, right, tolerance); an infinite right side makes the check
vacuously true and is tagged in the notes.  Verdicts "degenerate" and
"divergent" mark checks whose values are not meaningful as a comparison
(0/0 ratios, flagged divergent bounds) rather than failures.
"""

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

VERDICTS = ("holds", "violated", "degenerate", "divergent")

#: fixed key order of the report JSON schema
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


def classify(left, right, tolerance):
    """holds iff left <= right + tolerance in the extended reals."""
    if math.isnan(left) or math.isnan(right):
        return "violated"
    if math.isinf(right) and right > 0:
        return "holds"
    return "holds" if left <= right + tolerance else "violated"


@dataclass
class ExperimentReport:
    name: str
    params: dict
    left: float
    right: float
    tolerance: float
    verdict: str
    notes: str = ""
    seed: int | None = None
    timestamp: str = ""

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        self.left = float(self.left)
        self.right = float(self.right)
        self.tolerance = float(self.tolerance)
        if self.verdict in ("holds", "violated"):
            want = classify(self.left, self.right, self.tolerance)
            if want != self.verdict:
                raise ValueError(
                    f"verdict {self.verdict!r} inconsistent with "
                    f"left={self.left!r}, right={self.right!r}, tol={self.tolerance!r}"
                )

    @property
    def margin(self):
        if math.isinf(self.right) and math.isinf(self.left):
            return math.nan
        return self.right - self.left

    def recompute_verdict(self):
        """The verdict implied by the stored values (degenerate/divergent kept)."""
        if self.verdict in ("degenerate", "divergent"):
            return self.verdict
        return classify(self.left, self.right, self.tolerance)

    def stamp(self):
        self.timestamp = datetime.now(timezone.utc).isoformat()
        return self

    def to_json_dict(self):
        d = {
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
        return {k: d[k] for k in _JSON_KEYS}

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, d):
        rep = cls(
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
        return rep


def holds_report(name, params, left, right, tolerance, notes="", seed=None):
    """Report with the verdict computed from the values."""
    return ExperimentReport(
        name=name,
        params=params,
        left=left,
        right=right,
        tolerance=tolerance,
        verdict=classify(left, right, tolerance),
        notes=notes,
        seed=seed,
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


def validate_report_dict(d):
    """Check a decoded report against the published JSON schema."""
    missing = [k for k in _JSON_KEYS if k not in d]
    if missing:
        raise ValueError(f"report missing keys: {missing}")
    if not isinstance(d["name"], str) or not isinstance(d["params"], dict):
        raise ValueError("name must be a string and params an object")
    for key in ("left", "right", "tolerance"):
        if not isinstance(d[key], (int, float)):
            raise ValueError(f"{key} must be a number")
    if d["margin"] is not None and not isinstance(d["margin"], (int, float)):
        raise ValueError("margin must be a number or null")
    if d["verdict"] not in VERDICTS:
        raise ValueError(f"verdict must be one of {VERDICTS}")
    if not isinstance(d["notes"], str) or not isinstance(d["timestamp"], str):
        raise ValueError("notes and timestamp must be strings")
    if d["seed"] is not None and not isinstance(d["seed"], int):
        raise ValueError("seed must be an integer or null")
    return True
