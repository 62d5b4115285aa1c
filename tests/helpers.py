"""Shared generators for randomized tests, and the environment for
running ccc4 in a child process."""

import os
from pathlib import Path

import numpy as np

from ccc4.chart import INTERIOR_MARGIN, VWPoint, vw_to_p_array
from ccc4.geometry import MassVector, moment_I, triangle_margins

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_SRC = str(Path(__file__).resolve().parents[1] / "src")


def subprocess_env():
    """os.environ with the source tree first on PYTHONPATH, so that
    `python -m ccc4` in a child process imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [_SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def random_planar_distance_vectors(n, seed, min_sep=0.3, min_margin=0.05):
    """Distance vectors of random planar four-point configurations, kept
    away from collinearity and collisions so they are comfortably interior
    realizable points."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        pts = rng.normal(scale=1.0, size=(4, 2))
        r = np.array([np.linalg.norm(pts[i] - pts[j]) for i, j in _PAIRS])
        if r.min() < min_sep or triangle_margins(r).min() < min_margin:
            continue
        out.append(r)
    return out


def random_masses(n, seed, lo=0.2, hi=5.0):
    """Log-uniform mass vectors in [lo, hi]^4."""
    rng = np.random.default_rng(seed)
    return [MassVector.from_iterable(np.exp(rng.uniform(np.log(lo), np.log(hi), 4)))
            for _ in range(n)]


def normalized_to_unit_inertia(r, m):
    """Rescale a distance vector so the moment of inertia equals one."""
    arr = np.asarray(r, dtype=float)
    return arr / np.sqrt(moment_I(arr, m))


def sample_interior_one_draw_at_a_time(rng, max_draws=10**6):
    """Reference rejection sampler: one draw (v, w) of six normal variates
    per loop, tested and accepted exactly as chart.sample_interior tests
    and accepts a row of its batches.  Returns (point, draws used)."""
    for draw in range(1, max_draws + 1):
        v = rng.normal(size=3)
        w = rng.normal(size=3)
        v /= np.linalg.norm(v)
        w /= np.linalg.norm(w)
        p = vw_to_p_array(v, w)
        if (p.min() > INTERIOR_MARGIN and v[0] >= abs(w[0]) and v[2] >= abs(w[2])
                and w[1] >= 0.0):
            return VWPoint(v=v, w=w), draw
    raise RuntimeError(f"no interior point found in {max_draws} draws")
