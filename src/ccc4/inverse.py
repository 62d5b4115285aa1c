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

from .errors import IndeterminateShapeError, InfeasibleShapeError
from .geometry import DistanceVector, MassVector, OPPOSITE_SLOT, PAIR_SIGN, _r6, moment_I
from .solver import _inverse_cubes, recover_multipliers, sigma_sq_spread

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
        if not all(math.isfinite(t) for t in th):
            raise ValueError(f"angles must be finite, got {th}")
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


def _chords(theta, radius: float) -> list:
    """Chord lengths 2 R sin((theta_j - theta_i) / 2) in slot order, as
    floats."""
    return [2.0 * radius * math.sin(0.5 * (theta[j] - theta[i]))
            for i in range(4) for j in range(i + 1, 4)]


def shape_to_distances(s: CyclicShape) -> DistanceVector:
    """Chord lengths r_ij = 2 R sin((theta_j - theta_i) / 2); the result
    satisfies the cyclic-quadrilateral relation P = 0 by construction."""
    return DistanceVector.from_iterable(_chords(s.theta, s.radius))


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
    return _dziobek(_inverse_cubes(_r6(r)))


def _dziobek(n: list) -> DziobekLambda:
    """dziobek_lambda from n = r^-3 as six floats."""
    n12, n13, n14, n23, n24, n34 = n
    scale = max(n)

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


def _mass_candidates(r: list, n: list, lam: float) -> list:
    """Solve the stationarity equations for the mass products: m_i m_j is
    proportional to sign_ij (r_kl / r_ij) / (r_ij^-3 - lam).  r and n =
    r^-3 are six floats each."""
    den = [x - lam for x in n]
    if any(abs(d) <= 1e-12 * abs(x) for d, x in zip(den, n)):
        raise IndeterminateShapeError(
            "multiplier coincides with some r_ij^-3; a mass product is "
            "forced to be unbounded")
    c = [s * (r[o] / x) / d for s, o, x, d in zip(PAIR_SIGN, OPPOSITE_SLOT, r, den)]
    if not (all(x > 0.0 for x in c) or all(x < 0.0 for x in c)):
        raise InfeasibleShapeError("mass products would have mixed signs")
    d = [abs(x) for x in c]   # the common sign is absorbed by sigma
    # slots: 0=(12) 1=(13) 2=(14) 3=(23) 4=(24) 5=(34)
    return [math.sqrt(d[0] * d[1] / d[3]), math.sqrt(d[0] * d[3] / d[1]),
            math.sqrt(d[1] * d[3] / d[0]), math.sqrt(d[2] * d[4] / d[0])]


def recover_masses(r) -> MassRecovery:
    """Masses making the distance vector a stationary point, normalized to
    sum 4, or InfeasibleShapeError / IndeterminateShapeError.

    The first round runs on r scaled by the even power of two that brings
    max r into [0.5, 2), so that r^-3 stays in the float range at any
    scale; the scaling is exact, and an even power keeps the square roots
    of the mass candidates exact, so the masses are those of the raw
    scale.  Then the recovery rescales to I = 1 with the candidate masses
    and re-derives until the masses are stable (mass ratios are
    scale-equivariant, so this settles in a round or two).  The
    compatibility test |lam_a - lam_b| <= COMPAT_TOL applies at the I = 1
    scale; at most MAX_ROUNDS rounds are run.  The rounds run on Python
    floats.
    """
    arr = _r6(r)
    shift = 2 * (math.frexp(max(arr))[1] // 2)
    arr = [math.ldexp(x, -shift) for x in arr]
    n = _inverse_cubes(arr)
    masses = None
    rounds = 0
    for rounds in range(1, MAX_ROUNDS + 1):
        dz = _dziobek(n)
        lam = 0.5 * (dz.lam_a + dz.lam_b)
        try:
            cand = _mass_candidates(arr, n, lam)
        except InfeasibleShapeError:
            # prefer reporting the root cause when the multipliers already
            # disagree (scale-free comparison; masses are not known yet)
            if dz.compat_residual > 1e-9 * max(n):
                # lambda has degree -3: undo the shift of the first round,
                # saturating to inf where that overflows
                try:
                    residual = math.ldexp(dz.compat_residual, -3 * shift)
                except OverflowError:
                    residual = math.inf
                raise InfeasibleShapeError(
                    "Dziobek multipliers of the two pairings disagree", residual)
            raise
        k = 4.0 / (cand[0] + cand[1] + cand[2] + cand[3])
        cand = [x * k for x in cand]
        try:
            mv = MassVector(*cand)
        except ValueError:
            raise IndeterminateShapeError(
                "a recovered mass under- or overflows the float range") from None
        if masses is not None and max(abs(a - b) for a, b in zip(cand, masses)) <= 1e-14:
            masses = cand
            break
        masses = cand
        scale = math.sqrt(moment_I(arr, mv))
        arr = [x / scale for x in arr]
        shift = 0
        n = _inverse_cubes(arr)
    else:
        # the rounds ran out after a rescale; judge the final scale
        dz = _dziobek(n)

    if dz.compat_residual > COMPAT_TOL:
        raise InfeasibleShapeError(
            "Dziobek multipliers of the two pairings disagree",
            dz.compat_residual)
    lam = 0.5 * (dz.lam_a + dz.lam_b)
    if lam <= 0.0:
        raise InfeasibleShapeError("recovered multiplier is not positive", lam)

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
