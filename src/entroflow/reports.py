"""Named inequality-check records.

An ExperimentReport stores both sides of a checked inequality, the
statistical tolerance and a verdict, and it is the one place that decides
between "holds" and "violated": holds iff left <= right + tolerance in the
extended reals, so an infinite right side holds vacuously and a NaN side is
violated.  An experiment declares only the outcomes its values cannot show:
"degenerate" (0/0 ratios, inconclusive estimates) and "divergent" (a
flagged divergent bound).  The tolerance must be a nonnegative number.
The report format is one table, _FORMAT, that encoding, decoding and
validate_report_dict all read; it lets an infinite left or right through,
which strict JSON cannot carry.
"""

import csv
import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

VERDICTS = ("holds", "violated", "degenerate", "divergent")


def _is_number(v):
    # bool is an int subclass in Python but not a JSON number
    return isinstance(v, (int, float)) and not isinstance(v, bool)


#: the report format: each key of docs/experiment_report.schema.json, no more
#: and no fewer, with (test on the decoded value, what the schema requires)
_FORMAT = {
    "name": (lambda v: isinstance(v, str), "a string"),
    "params": (lambda v: isinstance(v, dict), "an object"),
    "left": (_is_number, "a number"),
    "right": (_is_number, "a number"),
    "margin": (lambda v: v is None or _is_number(v), "a number or null"),
    "tolerance": (lambda v: _is_number(v) and v >= 0, "a number >= 0"),
    "verdict": (lambda v: v in VERDICTS, f"one of {VERDICTS}"),
    "notes": (lambda v: isinstance(v, str), "a string"),
    "seed": (lambda v: v is None or (_is_number(v) and isinstance(v, int)), "an integer or null"),
    "timestamp": (lambda v: isinstance(v, str), "a string"),
}
#: keys a decoded report may leave out; the dataclass defaults fill them
_OPTIONAL = ("notes", "seed", "timestamp")


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
        d = {key: getattr(self, key) for key in _FORMAT}
        return d | {"margin": None if math.isnan(d["margin"]) else d["margin"]}

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, d):
        """The report d encodes; margin is derived and the _OPTIONAL keys may be absent."""
        return cls(**{k: d[k] for k in _FORMAT if k != "margin" and (k in d or k not in _OPTIONAL)})


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
    """Check a decoded report against docs/experiment_report.schema.json."""
    missing = [k for k in _FORMAT if k not in d]
    if missing:
        raise ValueError(f"report missing keys: {missing}")
    unexpected = sorted(set(d) - set(_FORMAT))
    if unexpected:
        raise ValueError(f"report has unexpected keys: {unexpected}")
    for key, (test, requirement) in _FORMAT.items():
        if not test(d[key]):
            raise ValueError(f"{key} must be {requirement}, got {d[key]!r}")
    return True
