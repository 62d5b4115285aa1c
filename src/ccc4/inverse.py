"""Inverse problem: from a cyclic quadrilateral shape to the masses that
make it a central configuration.

A shape determines candidate multipliers through the Dziobek relation; when
the two independent pairings agree (a measure-zero condition among cyclic
shapes) the stationarity equations can be read backwards as linear
conditions on the mass products m_i m_j, and the masses follow up to a
common scale, fixed here by the normalization sum m = 4.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import IndeterminateShapeError, InfeasibleShapeError
from .geometry import (DistanceVector, MassVector, OPPOSITE_SLOT, PAIR_SIGN,
                       _r6, moment_I)
from .solver import recover_multipliers, sigma_sq_spread

TWO_PI = 2.0 * math.pi

# Fixed tolerances of recover_masses.
COMPAT_TOL = 1e-9        # |lam_a - lam_b| at the I = 1 scale
MAX_ROUNDS = 5           # rescale-and-re-derive rounds at most


@dataclass(frozen=True)
class CyclicShape:
    """Four bodies on a circle at strictly increasing angles (radians),
    placed sequentially so the (1,3) and (2,4) chords are diagonals."""

    theta: tuple
    radius: float = 1.0

    def __post_init__(self):
        th = tuple(float(t) for t in self.theta)
        if len(th) != 4:
            raise ValueError(f"expected 4 angles, got {len(th)}")
        object.__setattr__(self, "theta", th)
        if not (0.0 <= th[0] < TWO_PI):
            raise ValueError("theta1 must lie in [0, 2*pi)")
        for a, b in zip(th, th[1:]):
            if not b > a:
                raise ValueError("angles must be strictly increasing "
                                 "(coincident bodies rejected)")
        if not th[3] < th[0] + TWO_PI:
            raise ValueError("angles must span less than a full turn")
        if not (math.isfinite(self.radius) and self.radius > 0.0):
            raise ValueError(f"radius must be positive, got {self.radius}")

    def to_json_dict(self) -> dict:
        return {"theta": list(self.theta), "radius": self.radius}

    @classmethod
    def from_json(cls, text: str) -> "CyclicShape":
        doc = json.loads(text)
        return cls(theta=tuple(doc["theta"]), radius=float(doc.get("radius", 1.0)))


def shape_to_distances(s: CyclicShape) -> DistanceVector:
    """Chord lengths r_ij = 2 R sin((theta_j - theta_i) / 2); the result
    satisfies the cyclic-quadrilateral relation P = 0 by construction."""
    th = s.theta
    out = []
    for i in range(4):
        for j in range(i + 1, 4):
            out.append(2.0 * s.radius * math.sin(0.5 * (th[j] - th[i])))
    return DistanceVector.from_iterable(out)


class DziobekLambda(NamedTuple):
    lam_a: float          # from pairing (12,34) vs (13,24)
    lam_b: float          # from pairing (14,23) vs (13,24)
    compat_residual: float


def dziobek_lambda(r) -> DziobekLambda:
    """Multiplier candidates from the Dziobek relation.

    Each equality of opposite-pair products is linear in the multiplier
    (the quadratic terms cancel); the shape admits masses only if both
    candidates coincide and are positive.
    """
    n = _r6(r) ** -3
    n12, n13, n14, n23, n24, n34 = n
    scale = float(np.max(n))

    def solve_pair(a, b, c, d):
        den = (a + b) - (c + d)
        if abs(den) <= 1e-13 * scale:
            raise IndeterminateShapeError(
                "opposite-pair sums of r^-3 coincide; the Dziobek relation "
                "does not determine a multiplier")
        return (a * b - c * d) / den

    lam_a = solve_pair(n12, n34, n13, n24)
    lam_b = solve_pair(n14, n23, n13, n24)
    return DziobekLambda(lam_a=lam_a, lam_b=lam_b,
                         compat_residual=abs(lam_a - lam_b))


@dataclass(frozen=True)
class MassRecovery:
    """Recovered masses plus the diagnostics the recovery was judged by."""

    masses: MassVector
    lam: float
    sigma: float
    compat_residual: float
    stationarity_residual: float
    sigma_sq_spread: float
    rounds: int

    def to_json_dict(self) -> dict:
        m = self.masses
        return {"m1": m.m1, "m2": m.m2, "m3": m.m3, "m4": m.m4, "M": m.M,
                "diagnostics": {"lambda": self.lam, "sigma": self.sigma,
                                "compat_residual": self.compat_residual,
                                "stationarity_residual": self.stationarity_residual,
                                "sigma_sq_spread": self.sigma_sq_spread,
                                "rounds": self.rounds}}


def _mass_candidates(r_arr: np.ndarray, lam: float) -> np.ndarray:
    """Solve the stationarity equations for the mass products: m_i m_j is
    proportional to sign_ij (r_kl / r_ij) / (r_ij^-3 - lam)."""
    n = r_arr ** -3
    den = n - lam
    if np.any(np.abs(den) <= 1e-12 * np.abs(n)):
        raise IndeterminateShapeError(
            "multiplier coincides with some r_ij^-3; a mass product is "
            "forced to be unbounded")
    c = np.asarray(PAIR_SIGN) * (r_arr[list(OPPOSITE_SLOT)] / r_arr) / den
    signs = np.sign(c)
    if signs.min() != signs.max():
        raise InfeasibleShapeError("mass products would have mixed signs")
    d = c * signs[0]   # positive; the common sign is absorbed by sigma
    # slots: 0=(12) 1=(13) 2=(14) 3=(23) 4=(24) 5=(34)
    m1 = math.sqrt(d[0] * d[1] / d[3])
    m2 = math.sqrt(d[0] * d[3] / d[1])
    m3 = math.sqrt(d[1] * d[3] / d[0])
    m4 = math.sqrt(d[2] * d[4] / d[0])
    return np.array([m1, m2, m3, m4])


def recover_masses(r) -> MassRecovery:
    """Masses making the distance vector a stationary point, normalized to
    sum 4, or InfeasibleShapeError / IndeterminateShapeError.

    Recovery runs at the raw scale first, then rescales to I = 1 with the
    candidate masses and re-derives until the masses are stable (mass
    ratios are scale-equivariant, so this settles in a round or two).  The
    compatibility test |lam_a - lam_b| <= COMPAT_TOL applies at the I = 1
    scale; at most MAX_ROUNDS rounds are run.
    """
    arr = _r6(r)
    masses = None
    rounds = 0
    for rounds in range(1, MAX_ROUNDS + 1):
        dz = dziobek_lambda(arr)
        lam = 0.5 * (dz.lam_a + dz.lam_b)
        try:
            cand = _mass_candidates(arr, lam)
        except InfeasibleShapeError:
            # prefer reporting the root cause when the multipliers already
            # disagree (scale-free comparison; masses are not known yet)
            if dz.compat_residual > 1e-9 * float(np.max(arr ** -3)):
                raise InfeasibleShapeError(
                    "Dziobek multipliers of the two pairings disagree",
                    dz.compat_residual)
            raise
        cand *= 4.0 / cand.sum()
        if masses is not None and np.max(np.abs(cand - masses)) <= 1e-14:
            masses = cand
            break
        masses = cand
        arr = arr / math.sqrt(moment_I(arr, MassVector.from_iterable(masses)))

    dz = dziobek_lambda(arr)
    if dz.compat_residual > COMPAT_TOL:
        raise InfeasibleShapeError(
            "Dziobek multipliers of the two pairings disagree",
            dz.compat_residual)
    lam = 0.5 * (dz.lam_a + dz.lam_b)
    if lam <= 0.0:
        raise InfeasibleShapeError("recovered multiplier is not positive", lam)

    mv = MassVector.from_iterable(masses)
    mult = recover_multipliers(arr, mv)
    return MassRecovery(masses=mv, lam=mult.lam, sigma=mult.sigma,
                        compat_residual=dz.compat_residual,
                        stationarity_residual=mult.stationarity_residual,
                        sigma_sq_spread=sigma_sq_spread(arr, mv, mult.lam),
                        rounds=rounds)


def masses_from_shape(r) -> MassVector:
    """The positive masses for which r is a cyclic central configuration
    (normalized to sum 4); raises when no such masses exist."""
    return recover_masses(r).masses
