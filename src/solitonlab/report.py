"""The evidence behind every verdict, and deterministic report serialization.

Every verdict follows one rule.  A residual r of length dimension d passes
at a point when |r| <= tol * sigma^(d/2), where sigma (length^-2) is the
local scale of the point: the size of the curvature terms there.  So a
verdict does not change when the metric is scaled by a constant (g -> c^2 g
takes r to r / c^d and sigma to sigma / c^2).  `weigh` applies the rule and
returns one `Evidence` record per check.

Reports must be byte-identical across runs of the same job, so floats are
printed with a fixed 17-significant-digit format, dictionary keys are
emitted sorted, and no timestamps or environment data enter the output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

FLOAT_FMT = "%.17g"


@dataclass(frozen=True)
class Evidence:
    """The worst case of one check's residuals over a set of points.

    ``max_abs`` is the largest |r| and ``worst_point`` the point (a value of
    s) where it is reached.  ``ratio`` is the largest |r| / sigma^(d/2); the
    check holds at tolerance tol when ratio <= tol.  ``per_equation`` holds
    the largest |r| of each named residual, where the check has several;
    `as_dict` leaves it out where it is empty.
    """

    max_abs: float
    worst_point: float
    ratio: float
    per_equation: dict[str, float] = field(default_factory=dict)

    def passes(self, tol: float) -> bool:
        return self.ratio <= tol

    def as_dict(self) -> dict:
        out = {"max_abs": self.max_abs, "worst_point": self.worst_point, "ratio": self.ratio}
        return {**out, "per_equation": dict(self.per_equation)} if self.per_equation else out


def weigh(points, residuals, dims, sigma, per_equation=None, *, what: str) -> Evidence:
    """The `Evidence` of the residuals, one row per residual and one column
    per point, row i of length dimension ``dims[i]``, against ``sigma``, the
    scale of each point (broadcast against the rows).  0/0 counts as 0 and a
    nonzero residual over sigma = 0 as an infinite ratio; a residual or a
    sigma that is not finite is a DomainError, naming ``what`` and the first
    such point."""
    r, sigma = np.abs(residuals), np.asarray(sigma)
    peak = r.max(axis=0)
    worst = int(peak.argmax())  # the first nan, if there is one
    if not (math.isfinite(peak[worst]) and math.isfinite(sigma.max())):
        finite = (np.isfinite(r) & np.isfinite(sigma)).all(axis=0)
        raise DomainError(f"{what} or its scale is not finite at "
                          f"s={float(points[np.argmin(finite)])!r}")
    # sigma^(d/2) as two factors, each finite for d <= 4 where sigma is
    root = sigma ** (np.array(dims, dtype=float)[:, None] / 4.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # r/0 = inf, 0/0 = nan
        ratios = r / root / root
    # fmax passes over the nan of 0/0, so that it counts as 0
    return Evidence(float(peak[worst]), float(points[worst]),
                    float(np.fmax.reduce(ratios, axis=None, initial=0.0)), per_equation or {})


def format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return FLOAT_FMT % x


def _dump(obj, pieces: list[str], indent: int) -> None:
    pad = "  " * indent
    if hasattr(obj, "item") and not isinstance(obj, (dict, list, tuple, str, bytes)):
        obj = obj.item()  # numpy scalar
    if obj is None:
        pieces.append("null")
    elif isinstance(obj, bool):
        pieces.append("true" if obj else "false")
    elif isinstance(obj, int):
        pieces.append(str(obj))
    elif isinstance(obj, float):
        pieces.append(format_float(obj))
    elif isinstance(obj, str):
        pieces.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        keys = sorted(obj, key=str)
        for i, key in enumerate(keys):
            pieces.append(f'{pad}  {json.dumps(str(key))}: ')
            _dump(obj[key], pieces, indent + 1)
            pieces.append(",\n" if i < len(keys) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, item in enumerate(obj):
            pieces.append(pad + "  ")
            _dump(item, pieces, indent + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "]")
    else:
        try:
            pieces.append(format_float(float(obj)))
        except (TypeError, ValueError):
            raise TypeError(f"cannot serialize {type(obj)!r}")


def canonical_json(obj) -> str:
    pieces: list[str] = []
    _dump(obj, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)


def flatten(obj, prefix: str = "") -> list[tuple[str, str]]:
    """Dotted-key flattening for the CSV report format."""
    rows: list[tuple[str, str]] = []
    if isinstance(obj, dict):
        for key in sorted(obj, key=str):
            rows.extend(flatten(obj[key], f"{prefix}{key}."))
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            rows.extend(flatten(item, f"{prefix}{i}."))
    else:
        key = prefix[:-1] if prefix.endswith(".") else prefix
        if isinstance(obj, bool):
            val = "true" if obj else "false"
        elif isinstance(obj, float):
            val = format_float(obj)
        elif obj is None:
            val = ""
        else:
            val = str(obj)
        rows.append((key, val))
    return rows


def _csv_field(text: str) -> str:
    """``text`` as one CSV field, quoted where it holds a comma, a quote or
    a line break."""
    if any(ch in text for ch in ',"\n\r'):
        return '"' + text.replace('"', '""') + '"'
    return text


def canonical_csv(obj) -> str:
    lines = ["key,value", *(f"{_csv_field(k)},{_csv_field(v)}" for k, v in flatten(obj))]
    return "\n".join(lines) + "\n"
