"""Deterministic report serialization.

Reports must be byte-identical across runs of the same job, so floats are
printed with a fixed 17-significant-digit format, dictionary keys are
emitted sorted, and no timestamps or environment data enter the output.
"""

from __future__ import annotations

import json
import math

FLOAT_FMT = "%.17g"


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
