"""Byte-exact golden outputs: solve records, a scan CSV and sampler points.

A change meant to speed ccc4 up without changing what it computes must
leave every byte of tests/data/golden_outputs.txt as it is.  The file pins
the numpy version and platform named in its header; another numpy (its
normal sampler) or another BLAS can move the last digits.  To regenerate it
after an intended output change, run

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import contextlib
import io
import json
import platform
from pathlib import Path

import numpy as np

from ccc4 import cli
from ccc4.chart import sample_interior
from ccc4.geometry import MassVector
from ccc4.solver import minimize_U

from helpers import lagrange_root_mp, relative_distance_mp

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_outputs.txt"
SOLVE_VECTORS = 12
SCAN_ARGV = ["scan", "--grid", "3", "--fix", "m4=1"]
SAMPLER_SEEDS = (0, 7, 51)


def render_sections() -> dict:
    """Section title -> output text, in file order."""
    rng = np.random.default_rng(0)
    masses = [MassVector.from_iterable(10.0 ** rng.uniform(-3.0, 3.0, 4))
              for _ in range(SOLVE_VECTORS)]
    sections = {f"minimize_U {i}": minimize_U(m).to_json()
                for i, m in enumerate(masses)}
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(SCAN_ARGV)
    sections["ccc4 " + " ".join(SCAN_ARGV)] = f"exit {code}\n{buf.getvalue()}"
    for seed in SAMPLER_SEEDS:
        vw = sample_interior(np.random.default_rng(seed))
        sections[f"sample_interior default_rng({seed})"] = (
            f"v {vw.v.tolist()!r}\nw {vw.w.tolist()!r}\n")
    return sections


def _body(sections: dict) -> str:
    return "".join(f"=== {title}\n{text}\n" for title, text in sections.items())


def _split(body: str) -> dict:
    out = {}
    for chunk in body.split("=== ")[1:]:
        title, _, text = chunk.partition("\n")
        out[title] = text
    return out


def test_outputs_match_golden_bytes():
    text = GOLDEN.read_text()
    expected = text[text.index("=== "):]       # after the header
    actual = _body(render_sections())
    if actual != expected:
        want, got = _split(expected), _split(actual)
        changed = [t for t in sorted(set(want) | set(got)) if want.get(t) != got.get(t)]
        raise AssertionError(f"golden outputs changed in: {changed}")


def test_golden_records_sit_at_their_50_digit_roots():
    # each golden r* within 1e-10 relative of the root of the 8 Lagrange
    # equations that mpmath refines from it at 50 digits
    text = GOLDEN.read_text()
    records = [json.loads(body) for title, body in _split(text[text.index("=== "):]).items()
               if title.startswith("minimize_U")]
    assert len(records) == SOLVE_VECTORS
    for doc in records:
        masses = [doc["masses"][k] for k in ("m1", "m2", "m3", "m4")]
        r = [doc["r_star"][k] for k in ("r12", "r13", "r14", "r23", "r24", "r34")]
        root = lagrange_root_mp(masses, r, doc["multipliers"]["lambda"],
                                doc["multipliers"]["sigma"])
        assert relative_distance_mp(r, root) <= 1e-10, masses


def write_golden():
    header = (
        "# Golden outputs of ccc4; tests/test_golden_outputs.py compares them byte for byte.\n"
        f"# Pinned to numpy {np.__version__}, {platform.python_implementation()} "
        f"{platform.python_version()}, {platform.system()} {platform.machine()}:\n"
        "# another numpy or platform may move the last digits.\n")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(header + _body(render_sections()))


if __name__ == "__main__":
    write_golden()
