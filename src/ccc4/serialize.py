"""Deterministic JSON emission with 17-significant-digit floats.

The stdlib encoder uses repr (shortest round-trip) for floats; record files
pin the full 17 digits instead so output bytes are stable and directly
comparable across runs and platforms.
"""

import math

import numpy as np


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"non-finite float {x} cannot be serialized")
    text = format(float(x), ".17g")
    # keep a JSON number, not an integer literal, for float-typed fields
    if "." not in text and "e" not in text:
        text += ".0"
    return text


def _emit(obj, pad, out):
    """Append the text of obj to the list out; pad is the indent of the
    line obj starts on."""
    if type(obj) is float:          # most values of a record
        out.append(format_float(obj))
        return
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append('"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"')
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n"
        for key, value in obj.items():
            out.append(f'{sep}{inner}"{key}": ')
            _emit(value, inner, out)
            sep = ",\n"
        out.append(f"\n{pad}}}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n"
        for value in obj:
            out.append(sep + inner)
            _emit(value, inner, out)
            sep = ",\n"
        out.append(f"\n{pad}]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj) -> str:
    """Serialize dict/list/scalar structures, indented by two spaces;
    floats carry 17 significant digits, keys keep insertion order."""
    out = []
    _emit(obj, "", out)
    out.append("\n")
    return "".join(out)
