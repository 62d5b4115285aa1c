"""Coordinate charts for the constraint manifold {I = 1, P = 0}.

Mass-weighted coordinates p_ij = r_ij sqrt(m_i m_j / 2M) turn I = 1 into
the unit-sphere equation sum p_ij^2 = 1 and P = 0 into a difference of
squares; the further linear change to (v, w) splits the pair into two unit
spheres, so the manifold becomes S^2 x S^2 and the positivity constraints
r_ij > 0 cut out the region E:

    v1 >= |w1|,  v3 >= |w3|,  w2 >= 0.

The solver optimizes over (v, w); p and r are derived views.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePointError, RegionViolationError
from .geometry import DistanceVector, _m, _r6

log = logging.getLogger(__name__)

INTERIOR_MARGIN = 1e-4   # sampled starts keep every p_ij above this
MAX_DRAWS = 10**6        # rejection-sampling bound of sample_interior
SAMPLE_BATCH = 64        # draws per rng.normal call of sample_interior
SAMPLE_SLACK = 1e-12     # margin slack of its vectorized pre-filter

# p = P_FROM_VW @ (v1, v2, v3, w1, w2, w3), slot order (12, 13, 14, 23, 24, 34)
P_FROM_VW = 0.5 * np.array([
    [1.0, 0.0, 0.0, 1.0, 0.0, 0.0],
    [0.0, 1.0, 0.0, 0.0, 1.0, 0.0],
    [0.0, 0.0, 1.0, 0.0, 0.0, 1.0],
    [0.0, 0.0, 1.0, 0.0, 0.0, -1.0],
    [0.0, -1.0, 0.0, 0.0, 1.0, 0.0],
    [1.0, 0.0, 0.0, -1.0, 0.0, 0.0],
])


@dataclass(frozen=True)
class PCoords:
    """Normalized coordinates p_ij; on the manifold sum p_ij^2 = 1."""

    p12: float
    p13: float
    p14: float
    p23: float
    p24: float
    p34: float

    @classmethod
    def from_iterable(cls, values) -> "PCoords":
        vals = [float(x) for x in values]
        if len(vals) != 6:
            raise ValueError(f"expected 6 coordinates, got {len(vals)}")
        return cls(*vals)

    def astuple(self):
        return (self.p12, self.p13, self.p14, self.p23, self.p24, self.p34)

    @property
    def array(self) -> np.ndarray:
        return np.array(self.astuple())

    @property
    def sum_sq(self) -> float:
        return float(np.sum(self.array ** 2))


def _triple(name: str, value):
    arr = np.asarray(value, dtype=float).reshape(3).copy()
    norm = float(np.linalg.norm(arr))
    if not (math.isfinite(norm) and norm > 0.0):
        raise ValueError(f"{name} must be a nonzero finite triple")
    return arr, norm


@dataclass(frozen=True, eq=False)
class VWPoint:
    """A point of S^2 x S^2; both triples are renormalized on construction."""

    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name in ("v", "w"):
            arr, norm = _triple(name, getattr(self, name))
            object.__setattr__(self, name, arr / norm)

    @classmethod
    def stored(cls, v, w) -> "VWPoint":
        """Rebuild a point whose triples were normalized when it was made,
        keeping every digit: normalizing a unit triple again can move its
        last digit."""
        point = object.__new__(cls)
        for name, value in (("v", v), ("w", w)):
            object.__setattr__(point, name, _triple(name, value)[0])
        return point

    def astuple(self):
        return (tuple(self.v), tuple(self.w))


def r_to_p(r, m) -> PCoords:
    """Mass-weighted normalization p_ij = r_ij sqrt(m_i m_j / 2M)."""
    masses = _m(m)
    p = _r6(r) * np.sqrt(masses.products() / (2.0 * masses.M))
    return PCoords.from_iterable(p)


def p_to_r(p: PCoords, m) -> DistanceVector:
    """Inverse weighting r_ij = sqrt(2M / m_i m_j) p_ij.

    Raises DegeneratePointError on the boundary (any p_ij <= 0), where two
    bodies collide and the potential is infinite.
    """
    masses = _m(m)
    arr = p.array if isinstance(p, PCoords) else np.asarray(p, dtype=float)
    if np.any(arr <= 0.0):
        bad = int(np.argmin(arr))
        raise DegeneratePointError(
            f"coordinate p[{bad}] = {arr[bad]:.3g} is not strictly positive")
    return DistanceVector.from_iterable(arr * np.sqrt(2.0 * masses.M / masses.products()))


def p_to_vw(p) -> VWPoint:
    """Sphere-splitting change of variable.

    v = (p12 + p34, p13 - p24, p14 + p23), w = (p12 - p34, p13 + p24, p14 - p23).
    """
    p12, p13, p14, p23, p24, p34 = (p.astuple() if isinstance(p, PCoords)
                                    else np.asarray(p, dtype=float))
    return VWPoint(v=np.array([p12 + p34, p13 - p24, p14 + p23]),
                   w=np.array([p12 - p34, p13 + p24, p14 - p23]))


def vw_to_p_array(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Raw halved sums/differences; may be negative off the region E."""
    return P_FROM_VW @ np.concatenate([v, w])


def vw_to_p(vw: VWPoint, tol: float = 1e-12) -> PCoords:
    """Inverse change of variable, rejecting points outside the region E.

    Entries in [-tol, 0) are rounded up to zero; anything below -tol raises
    RegionViolationError.
    """
    p = vw_to_p_array(vw.v, vw.w)
    if np.any(p < -tol):
        bad = int(np.argmin(p))
        raise RegionViolationError(
            f"reconstructed p[{bad}] = {p[bad]:.3g} < -{tol:g}")
    return PCoords.from_iterable(np.maximum(p, 0.0))


def in_region_E(vw: VWPoint) -> bool:
    """Membership test v1 >= |w1|, v3 >= |w3|, w2 >= 0 (closed region)."""
    v, w = vw.v, vw.w
    return bool(v[0] >= abs(w[0]) and v[2] >= abs(w[2]) and w[1] >= 0.0)


def square_chart_point() -> VWPoint:
    """Image of the equal-mass square, an interior point of E usable as a
    universal start (independent of the masses)."""
    s = 1.0 / math.sqrt(2.0)
    return VWPoint(v=np.array([s, 0.0, s]), w=np.array([0.0, 1.0, 0.0]))


def _maybe_interior(batch: np.ndarray) -> np.ndarray:
    """Indices of the rows of a (n, 6) batch of raw (v, w) draws that may
    pass the exact test of sample_interior.  Every row that test accepts
    is kept: the vectorized normalization differs from the scalar one by a
    few ulps, far below SAMPLE_SLACK.  (p > 0 implies the region E, so the
    margin test alone suffices here.)"""
    unit = batch.reshape(-1, 2, 3)
    unit = unit / np.linalg.norm(unit, axis=2, keepdims=True)
    p = unit.reshape(-1, 6) @ P_FROM_VW.T
    return np.flatnonzero(p.min(axis=1) > INTERIOR_MARGIN - SAMPLE_SLACK)


def sample_interior(rng) -> VWPoint:
    """Pseudo-random interior point of E drawn from the numpy Generator rng.

    Uniform on S^2 x S^2 and rejected until the point lies in E with every
    reconstructed p_ij > INTERIOR_MARGIN, which keeps the potential and its
    derivatives finite.  Solver records report this generator as
    "numpy-pcg64".

    Draw i is the six normal variates (v, w) that follow draw i - 1 in the
    stream.  They are drawn SAMPLE_BATCH draws at a time (numpy fills an
    array in stream order, so row i of a batch holds exactly the values of
    two successive size-3 calls); rows that survive a vectorized filter
    are re-tested one by one, in order, by the exact scalar test.  The
    accepted point is therefore the same bits as drawing one point at a
    time, but the variates after it in its batch are consumed too: every
    caller hands in a fresh Generator and draws nothing after it.  At most
    MAX_DRAWS draws are made before RuntimeError.
    """
    drawn = 0
    while drawn < MAX_DRAWS:
        batch = rng.normal(size=(min(SAMPLE_BATCH, MAX_DRAWS - drawn), 6))
        for row in _maybe_interior(batch):
            v = batch[row, :3].copy()
            w = batch[row, 3:].copy()
            v /= np.linalg.norm(v)
            w /= np.linalg.norm(w)
            p = vw_to_p_array(v, w)
            if (p.min() > INTERIOR_MARGIN and v[0] >= abs(w[0]) and v[2] >= abs(w[2])
                    and w[1] >= 0.0):
                draw = drawn + int(row) + 1
                if draw > 1:
                    log.debug("interior sample accepted after %d draws", draw)
                return VWPoint(v=v, w=w)
        drawn += len(batch)
    raise RuntimeError(f"no interior point found in {MAX_DRAWS} draws")


def seeded_start(seed: int, index: int) -> VWPoint:
    """Interior start number `index` for `seed`.  Each start draws from its
    own stream, keyed by (seed, index), so it does not depend on how many
    other starts are drawn."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, index)))
    return sample_interior(rng=rng)
