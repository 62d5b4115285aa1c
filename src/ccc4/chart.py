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
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePointError, RegionViolationError
from .geometry import DistanceVector, _m, _r6

log = logging.getLogger(__name__)

INTERIOR_MARGIN = 1e-4   # sampled starts keep every p_ij above this
MAX_DRAWS = 10**6        # rejection-sampling bound of sample_interior
REGION_TOL = 1e-12       # vw_to_p rounds p_ij in [-REGION_TOL, 0) up to zero

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
    # a fresh float copy, and its norm by the path np.linalg.norm takes for
    # a 1-D array: sqrt of arr.dot(arr)
    arr = np.array(value, dtype=float)
    if arr.shape != (3,):
        arr = arr.reshape(3)
    norm = math.sqrt(arr.dot(arr))
    if not (math.isfinite(norm) and norm > 0.0):
        raise ValueError(f"{name} must be a nonzero finite triple")
    return arr, norm


@dataclass(frozen=True, eq=False)
class VWPoint:
    """A point of S^2 x S^2; both triples are renormalized on construction."""

    v: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name, value in (("v", self.v), ("w", self.w)):
            arr, norm = _triple(name, value)
            arr /= norm
            object.__setattr__(self, name, arr)

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
    p = np.array(_r6(r)) * np.sqrt(masses.products() / (2.0 * masses.M))
    return PCoords.from_iterable(p)


def p_to_r(p: PCoords, m) -> DistanceVector:
    """Inverse weighting r_ij = sqrt(2M / m_i m_j) p_ij.

    p is a PCoords, a tuple of six floats (taken as it is) or anything
    numpy reads as six floats.  Raises DegeneratePointError on the boundary
    (any p_ij <= 0), where two bodies collide and the potential is
    infinite, and where a distance is not a positive finite float (a mass
    product under- or overflows).  Computed in plain floats: each
    operation is correctly rounded, so the result has the bits of the
    elementwise numpy expression.
    """
    masses = _m(m)
    if isinstance(p, tuple):
        vals = p
    elif isinstance(p, PCoords):
        vals = p.astuple()
    else:
        vals = np.asarray(p, dtype=float).tolist()
    if len(vals) != 6:
        raise ValueError(f"expected 6 coordinates, got {len(vals)}")
    if any(x <= 0.0 for x in vals):
        bad = int(np.argmin(vals))
        raise DegeneratePointError(
            f"coordinate p[{bad}] = {vals[bad]:.3g} is not strictly positive")
    m1, m2, m3, m4 = masses.astuple()
    two_m = 2.0 * masses.M
    p12, p13, p14, p23, p24, p34 = vals
    try:
        return DistanceVector(
            p12 * math.sqrt(two_m / (m1 * m2)), p13 * math.sqrt(two_m / (m1 * m3)),
            p14 * math.sqrt(two_m / (m1 * m4)), p23 * math.sqrt(two_m / (m2 * m3)),
            p24 * math.sqrt(two_m / (m2 * m4)), p34 * math.sqrt(two_m / (m3 * m4)))
    except (ZeroDivisionError, ValueError) as exc:
        raise DegeneratePointError(
            f"masses {masses.astuple()} give no positive finite distances "
            f"({exc})") from None


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


def vw_to_p_floats(v, w) -> tuple:
    """vw_to_p_array in plain floats, for triples of floats: each p_ij is
    half of one sum or difference, which the matrix product also rounds
    only once, so the values have its bits."""
    v1, v2, v3 = v
    w1, w2, w3 = w
    return (0.5 * (v1 + w1), 0.5 * (v2 + w2), 0.5 * (v3 + w3),
            0.5 * (v3 - w3), 0.5 * (w2 - v2), 0.5 * (v1 - w1))


def vw_to_p(vw: VWPoint) -> PCoords:
    """Inverse change of variable, rejecting points outside the region E.

    Entries in [-REGION_TOL, 0) are rounded up to zero; anything below
    -REGION_TOL raises RegionViolationError.
    """
    p = vw_to_p_array(vw.v, vw.w)
    if np.any(p < -REGION_TOL):
        bad = int(np.argmin(p))
        raise RegionViolationError(
            f"reconstructed p[{bad}] = {p[bad]:.3g} < -{REGION_TOL:g}")
    return PCoords.from_iterable(np.maximum(p, 0.0))


def in_region_E(vw: VWPoint) -> bool:
    """Membership test v1 >= |w1|, v3 >= |w3|, w2 >= 0 (closed region)."""
    v, w = vw.v, vw.w
    return bool(v[0] >= abs(w[0]) and v[2] >= abs(w[2]) and w[1] >= 0.0)


def square_chart_point() -> VWPoint:
    """Image of the equal-mass square, an interior point of E usable as a
    universal start (independent of the masses)."""
    s = 1.0 / math.sqrt(2.0)
    return VWPoint(v=(s, 0.0, s), w=(0.0, 1.0, 0.0))


def sample_interior(rng) -> VWPoint:
    """Pseudo-random interior point of E drawn from the numpy Generator rng.

    Uniform on S^2 x S^2, folded into v1, v3, w2 >= 0 and rejected until
    the point lies in E with every reconstructed p_ij > INTERIOR_MARGIN,
    which keeps the potential and its derivatives finite.  The fold
    v1 -> |v1|, v3 -> |v3|, w2 -> |w2| is a product of isometries of
    S^2 x S^2 that maps each of the 8 mirror images of E onto E, so the
    accepted point stays uniform on E; about 1 draw in 6 is accepted (1 in
    48 without the fold).  Solver records report this generator as
    "numpy-pcg64".

    Draw i is the six normal variates (v, w) that follow draw i - 1 in the
    stream; nothing after the accepted draw is consumed.  At most
    MAX_DRAWS draws are made before RuntimeError.
    """
    for draw in range(1, MAX_DRAWS + 1):
        a1, a2, a3, b1, b2, b3 = rng.normal(size=6).tolist()
        a1, a3, b2 = abs(a1), abs(a3), abs(b2)
        n = math.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
        v1, v2, v3 = a1 / n, a2 / n, a3 / n
        n = math.sqrt(b1 * b1 + b2 * b2 + b3 * b3)
        w1, w2, w3 = b1 / n, b2 / n, b3 / n
        p_min = 0.5 * min(v1 + w1, v2 + w2, v3 + w3, v3 - w3, w2 - v2, v1 - w1)
        if (p_min > INTERIOR_MARGIN and v1 >= abs(w1) and v3 >= abs(w3)
                and w2 >= 0.0):
            if draw > 1:
                log.debug("interior sample accepted after %d draws", draw)
            # the scalar normalization above only decides acceptance; the
            # point is normalized once, by VWPoint
            return VWPoint(v=(a1, a2, a3), w=(b1, b2, b3))
    raise RuntimeError(f"no interior point found in {MAX_DRAWS} draws")


# (thread, seed, index) -> (Generator, its state at the start of the stream)
_GENERATORS = {}
_GENERATORS_LOCK = threading.Lock()
MAX_GENERATORS = 256     # cached streams, over all threads


def _stream(seed: int, index: int):
    """The Generator of stream (seed, index), rewound to its first draw.
    Building one costs far more than rewinding it, so each thread keeps its
    own and no two threads share one."""
    key = (threading.get_ident(), seed, index)
    with _GENERATORS_LOCK:
        entry = _GENERATORS.get(key)
        if entry is None:
            if len(_GENERATORS) >= MAX_GENERATORS:
                _GENERATORS.clear()
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(seed, index)))
            entry = _GENERATORS[key] = (rng, rng.bit_generator.state)
    rng, start = entry
    rng.bit_generator.state = start
    return rng


def seeded_start(seed: int, index: int) -> VWPoint:
    """Interior start number `index` for `seed`.  Each start draws from its
    own stream, keyed by (seed, index), so it does not depend on how many
    other starts are drawn, and every call draws it from the beginning."""
    return sample_interior(rng=_stream(seed, index))
