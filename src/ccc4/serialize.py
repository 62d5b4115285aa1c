"""Deterministic JSON emission with 17-significant-digit floats.

The stdlib encoder uses repr (shortest round-trip) for floats; record files
pin the full 17 digits instead so output bytes are stable and directly
comparable across runs and platforms.
"""

import math

import numpy as np


def format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError(f"non-finite float {x} cannot be serialized")
    text = format(float(x), ".17g")
    # keep a JSON number, not an integer literal, for float-typed fields
    if "." not in text and "e" not in text and "E" not in text:
        text += ".0"
    return text


def _emit(obj, level):
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f'{inner}"{k}": {_emit(v, level + 1)}' for k, v in obj.items())
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (f"{inner}{_emit(v, level + 1)}" for v in obj)
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize dict/list/scalar structures, indented by two spaces;
    floats carry 17 significant digits, keys keep insertion order."""
    return _emit(obj, 0) + "\n"
