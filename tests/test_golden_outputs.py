"""Byte-exact golden outputs: solve records, a scan CSV, sampler points, and
the output of `ccc4 inverse` and `ccc4 identities`.

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
# the first scan has 8 rows, whose record polish runs on lanes below
# LANES_MIN; the third has 512 descents, 7 of them over 100 iterations long;
# the fourth has 343 rows, so two scan blocks with long straggler tails; the
# fifth steps the lane Newton 12 times, from 216 lanes down to 3, and the
# record polish through all three steps, with 23 descent stragglers
SCAN_ARGVS = [["scan", "--grid", "2"],
              ["scan", "--grid", "3", "--fix", "m4=1"],
              ["scan", "--grid", "4", "--fix", "m4=1e-3"],
              ["scan", "--grid", "7", "--fix", "m4=1e-3"],
              ["scan", "--grid", "3", "--fix", "m4=1e-5"]]
SAMPLER_SEEDS = (0, 7, 51)
# the square; two shapes on the co-circular central-configuration family,
# one needing four recovery rounds; a shape no positive masses realize
INVERSE_ARGVS = [
    ["inverse", "--angles", "0,90,180,270", "--degrees"],
    ["inverse", "--angles", "0.0,0.934233763325364,2.103472694063845,4.193729875205513",
     "--radius", "1.5187722995320474"],
    ["inverse", "--angles", "0.0,1.661803226858582,2.976272724627719,4.507751061926923",
     "--radius", "1.3342396633008455"],
    ["inverse", "--angles", "0,1,2,3"],
]
IDENTITIES_ARGV = ["identities", "--samples", "200", "--seed", "3"]


def _run_cli(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return f"exit {code}\n{buf.getvalue()}"


def render_sections() -> dict:
    """Section title -> output text, in file order."""
    rng = np.random.default_rng(0)
    masses = [MassVector.from_iterable(10.0 ** rng.uniform(-3.0, 3.0, 4))
              for _ in range(SOLVE_VECTORS)]
    sections = {f"minimize_U {i}": minimize_U(m).to_json()
                for i, m in enumerate(masses)}
    for argv in SCAN_ARGVS:
        sections["ccc4 " + " ".join(argv)] = _run_cli(argv)
    for seed in SAMPLER_SEEDS:
        vw = sample_interior(np.random.default_rng(seed))
        sections[f"sample_interior default_rng({seed})"] = (
            f"v {vw.v.tolist()!r}\nw {vw.w.tolist()!r}\n")
    for argv in INVERSE_ARGVS + [IDENTITIES_ARGV]:
        sections["ccc4 " + " ".join(argv)] = _run_cli(argv)
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
