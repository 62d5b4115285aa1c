"""Constrained minimization of the potential over {I = 1, P = 0} and
certification of the minimizer.

The optimizer works in the double-sphere chart: descent by the kernel
module, then a projected Newton polish in the same plain float scalars,
which is justified because every critical point of the restricted
potential is a nondegenerate minimum, so no saddle handling is needed.
Multipliers are recovered afterwards by linear least squares on the six
stationarity equations

    m_i m_j (r_ij^-3 - lambda) = +/- sigma r_kl / r_ij,

with signs (+, -, +, +, -, +) over the pairs (12, 13, 14, 23, 24, 34) and
(kl) the pair opposite (ij).  The decoupling gives an independent
stationarity residual for certification.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import kernels, serialize
from .chart import VWPoint, p_to_r, seeded_start, square_chart_point, vw_to_p_floats
from .errors import DegeneratePointError, IndeterminateShapeError, UniquenessAlarmError
from .geometry import (DISTANCE_PAIRS, DistanceVector, K_term, MassVector, OPPOSITE_SLOT,
                       PAIR_SIGN, ScalarReport, _admissible_mask, _admissible_slots, _canonical,
                       _canonical_copies, _fpow, _m, _mass_cols, _r6, moment_I, potential_U,
                       ptolemy_P)

RNG_NAME = "numpy-pcg64"
RECORD_SCHEMA = "ccc4-solverecord-1"

# Fixed tolerances of the solver, and below them of certify_minimum.
CONSTRAINT_TOL = 1e-12       # |sum p^2 - 1| and |P(p)| at an accepted endpoint
NEWTON_SWITCH = 1e-6         # descent hands over to Newton below this
RECORD_NEWTON_STEPS = 3      # full Newton steps at most on the record's endpoint
COCIRCULAR_TOL = 1e-6        # |K| threshold, scaled by (max r)^3
STATIONARITY_TOL = 1e-9      # relative residual of the stationarity equations
CERT_CONSTRAINT_TOL = 1e-9   # |I - 1| and |P| in r units
DZIOBEK_RTOL = 1e-12         # Dziobek residual, relative to S^2
SIGMA_SQ_RTOL = 1e3 * np.finfo(float).eps   # sigma^2 spread, relative to cond

# Budgets and cluster radius of the multistart solve, read at call time.
MAX_ITER = 500               # descent iterations per start
MAX_NEWTON = 40              # Newton steps per start after the descent
CLUSTER_TOL = 1e-6           # endpoint agreement radius, relative to max r

# Lanes per block of descents run together.  A block takes about 1.6 kB a
# lane at its peak (tracemalloc, 256 rows of 8 starts), so its lane memory
# is bounded whatever the grid; cmd_scan still holds every row it prints.
# On the 13824 starts of scan --grid 12, blocks of 2048 descended at 8.1
# us a lane, 1024 and 4096 at 8.5 us, 512 at 12.0 us and 16384 at 9.6 us.
SCAN_BLOCK_LANES = 2048


@dataclass(frozen=True)
class SolverOptions:
    """Tolerance, start count and seed of the multistart solve."""

    gtol: float = 1e-11              # projected-gradient norm, relative to max(1, |U|)
    starts: int = 8
    seed: int = 0


@dataclass(frozen=True)
class Multipliers:
    """Least-squares multipliers of the constrained problem.

    stationarity_residual is ||A x - b|| / ||b|| for the 6x2 stationarity
    system; it vanishes exactly at a critical point.  lam > 0 at any
    critical point.
    """

    lam: float
    sigma: float
    stationarity_residual: float


class ATerms(NamedTuple):
    """Quartic factors of the high-order principal minors.

    raw carries the sigma^2 terms; on_shell is the reduced form
    3 m1 m2 m3 m4 (lambda r_ij^3 + lambda r_kl^3 + 1) valid where the
    opposite-pair product identities for sigma^2 hold.
    """

    raw: tuple
    on_shell: tuple


@dataclass(frozen=True)
class SolveRecord:
    """A certified critical-point result for one mass vector."""

    masses: MassVector
    r_star: DistanceVector
    chart_point: VWPoint
    multipliers: Multipliers
    scalars: ScalarReport
    minors: tuple
    a_terms: tuple
    dziobek_residual: float
    sigma_sq_residuals: tuple
    iterations: int
    converged: bool
    is_cocircular: bool
    k_value: float
    meta: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        m, r, vw = self.masses, self.r_star, self.chart_point
        return {
            "masses": {"m1": m.m1, "m2": m.m2, "m3": m.m3, "m4": m.m4, "M": m.M},
            "r_star": {k: v for k, v in zip(("r12", "r13", "r14", "r23", "r24", "r34"),
                                            r.astuple())},
            "chart_point": {"v": vw.v.tolist(), "w": vw.w.tolist()},
            "multipliers": {"lambda": self.multipliers.lam,
                            "sigma": self.multipliers.sigma,
                            "stationarity_residual": self.multipliers.stationarity_residual},
            "scalars": {"U": self.scalars.U, "I": self.scalars.I, "P": self.scalars.P,
                        "H": self.scalars.H, "K": self.scalars.K, "Q": self.scalars.Q},
            "minors": list(self.minors),
            "a_terms": list(self.a_terms),
            "dziobek_residual": self.dziobek_residual,
            "sigma_sq_residuals": list(self.sigma_sq_residuals),
            "iterations": self.iterations,
            "converged": self.converged,
            "is_cocircular": self.is_cocircular,
            "k_value": self.k_value,
            "meta": dict(self.meta),
        }

    def to_json(self) -> str:
        return serialize.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, doc: dict) -> "SolveRecord":
        masses = MassVector(doc["masses"]["m1"], doc["masses"]["m2"],
                            doc["masses"]["m3"], doc["masses"]["m4"])
        r = DistanceVector.from_iterable(
            doc["r_star"][k] for k in ("r12", "r13", "r14", "r23", "r24", "r34"))
        vw = VWPoint.stored(doc["chart_point"]["v"], doc["chart_point"]["w"])
        mult = Multipliers(*(_json_number(doc["multipliers"], k)
                             for k in ("lambda", "sigma", "stationarity_residual")))
        scal = ScalarReport(**{k: doc["scalars"][k] for k in ("U", "I", "P", "H", "K", "Q")})
        return cls(masses=masses, r_star=r, chart_point=vw, multipliers=mult,
                   scalars=scal, minors=tuple(doc["minors"]),
                   a_terms=tuple(doc["a_terms"]),
                   dziobek_residual=doc["dziobek_residual"],
                   sigma_sq_residuals=tuple(doc["sigma_sq_residuals"]),
                   iterations=doc["iterations"], converged=doc["converged"],
                   is_cocircular=doc["is_cocircular"], k_value=_json_number(doc, "k_value"),
                   meta=doc.get("meta", {}))

    @classmethod
    def from_json(cls, text: str) -> "SolveRecord":
        return cls.from_json_dict(json.loads(text))


def _json_number(doc: dict, key: str):
    """doc[key], which must be a JSON number (an int or a float, not a
    bool); ValueError naming key otherwise."""
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return value


def lagrangian_L(r, m, lam: float, sigma: float) -> float:
    """U + lambda M (I - 1) + sigma P as a function of the distance vector."""
    masses = _m(m)
    return (potential_U(r, masses) + lam * masses.M * (moment_I(r, masses) - 1.0)
            + sigma * ptolemy_P(r))


def _inverse_cubes(values) -> list:
    # numpy's vectorized power on purpose: a float x ** -3 (the C library's
    # pow) differs from it in the last bit on some inputs, and the recovered
    # masses keep the bits of the vectorized form; it also gives inf where
    # the power overflows, where a float power raises
    return (np.array(values) ** -3).tolist()


def _stationarity_system(r, masses: MassVector):
    values = _r6(r)
    mm, _ = _mass_cols(masses)
    A = np.array([[x, sign * (values[opp] / v)]
                  for x, sign, opp, v in zip(mm, PAIR_SIGN, OPPOSITE_SLOT, values)])
    b = np.array([x * n for x, n in zip(mm, _inverse_cubes(values))])
    return A, b


def _norm(x: np.ndarray):
    # np.linalg.norm of a 1-D array, by the path it takes for one
    return np.sqrt(x.dot(x))


def _relative_residual(A: np.ndarray, b: np.ndarray, lam: float, sigma: float) -> float:
    return float(_norm(A @ np.array([lam, sigma]) - b) / _norm(b))


def stationarity_residual(r, m, lam: float, sigma: float) -> float:
    """Relative residual of the six stationarity equations at (lam, sigma)."""
    A, b = _stationarity_system(r, _m(m))
    return _relative_residual(A, b, lam, sigma)


# np.linalg.lstsq's rcond for a 6x2 system: eps times the larger size
_LSTSQ_RCOND = np.finfo(float).eps * 6
_LSTSQ_SIGNATURE = "(m,n),(m,nrhs),()->(n,nrhs),(nrhs),(),(p)"


def _stacked_lstsq_kernel():
    """numpy.linalg._umath_linalg.lstsq, the stacked LAPACK kernel that
    np.linalg.lstsq calls for one system since numpy 2.0, where this numpy
    has it with the signature and float loop _least_squares calls; else
    None, and _least_squares solves every system by np.linalg.lstsq.  The
    kernel is private numpy API: numpy 1.x has lstsq_m and lstsq_n in its
    place."""
    try:
        from numpy.linalg._umath_linalg import lstsq
    except ImportError:
        return None
    if (getattr(lstsq, "signature", None) != _LSTSQ_SIGNATURE
            or "ddd->ddid" not in getattr(lstsq, "types", ())):
        return None
    return lstsq


_LSTSQ_KERNEL = _stacked_lstsq_kernel()


def _least_squares(A: np.ndarray, b: np.ndarray):
    """(lambda, sigma) of each 6x2 stationarity system of the (n, 6, 2)
    stack A and the (n, 6) stack b, in order, as Python floats; a system
    of rank below 2 raises IndeterminateShapeError at its turn.  A finite
    stack is one call of _LSTSQ_KERNEL with np.linalg.lstsq's rcond, so
    each row has the bits and the rank of np.linalg.lstsq(A[k], b[k],
    rcond=None).  A stack with an inf or NaN entry, one the kernel reports
    an SVD failure on, or any stack where numpy has no such kernel, is
    solved by np.linalg.lstsq row by row, which raises its LinAlgError at
    the failing row's turn."""
    solved = None
    if _LSTSQ_KERNEL is not None and np.isfinite(A).all() and np.isfinite(b).all():
        try:
            with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
                x, _, rank, _ = _LSTSQ_KERNEL(A, b[:, :, None], _LSTSQ_RCOND,
                                              signature="ddd->ddid")
            solved = zip(x[:, :, 0].tolist(), rank.tolist())
        except FloatingPointError:
            pass
    if solved is None:
        solved = ((x.tolist(), rank) for x, _, rank, _ in
                  (np.linalg.lstsq(Ak, bk, rcond=None) for Ak, bk in zip(A, b)))
    for (lam, sigma), rank in solved:
        if rank < 2:
            raise IndeterminateShapeError(
                "stationarity system is rank-deficient at this distance vector")
        yield lam, sigma


def recover_multipliers(r, m) -> Multipliers:
    """Best (lambda, sigma) for the stationarity equations, by 6x2 least
    squares, together with the relative residual norm."""
    A, b = _stationarity_system(r, _m(m))
    (lam, sigma), = _least_squares(A[None], b[None])
    return Multipliers(lam=lam, sigma=sigma,
                       stationarity_residual=_relative_residual(A, b, lam, sigma))


def hessian_L(r, m, mult: Multipliers) -> np.ndarray:
    """Second derivative of the Lagrangian in distance coordinates:
    diag(f_ij) + antidiag(sigma, -sigma, sigma, sigma, -sigma, sigma) with
    f_ij = m_i m_j (2 r_ij^-3 + lambda)."""
    values = _r6(r)
    mm, _ = _mass_cols(_m(m))
    lam, sigma = mult.lam, mult.sigma
    H = [[0.0] * 6 for _ in range(6)]
    for k, (x, n) in enumerate(zip(mm, _inverse_cubes(values))):
        H[k][k] = x * (2.0 * n + lam)
        H[k][5 - k] += sigma * PAIR_SIGN[k]
    return np.array(H)


def principal_minors(H: np.ndarray):
    """Leading principal minors of orders 1..6."""
    H = np.asarray(H, dtype=float)
    if H.shape != (6, 6):
        raise ValueError(f"expected a 6x6 matrix, got {H.shape}")
    return tuple(float(np.linalg.det(H[:k, :k])) for k in range(1, 7))


def sigma_sq_values(r, m, lam: float) -> np.ndarray:
    """The three opposite-pair products m1 m2 m3 m4 (r_ij^-3 - lam)
    (r_kl^-3 - lam), all equal to sigma^2 at a critical point; ordered by
    pairing (12,34), (14,23), (13,24)."""
    return np.array(_sigma_sq(r, m, lam))


def _sigma_sq(r, m, lam: float) -> tuple:
    """sigma_sq_values as a tuple of Python floats, inf where r^-3
    overflows."""
    n12, n13, n14, n23, n24, n34 = (_fpow(x, -3) for x in _r6(r))
    m1, m2, m3, m4 = _m(m).astuple()
    prod = m1 * m2 * m3 * m4
    return (prod * (n12 - lam) * (n34 - lam),
            prod * (n14 - lam) * (n23 - lam),
            prod * (n13 - lam) * (n24 - lam))


def sigma_sq_spread(r, m, lam: float) -> float:
    """Relative spread (max - min) / max |.| of the three sigma^2 products;
    zero at a critical point, NaN when a product is NaN."""
    s2 = _sigma_sq(r, m, lam)
    if any(math.isnan(x) for x in s2):
        return math.nan
    return (max(s2) - min(s2)) / max(max(abs(x) for x in s2), 1e-300)


def a_terms(r, m, mult: Multipliers) -> ATerms:
    """Quartic factors A0, A1, A2 entering the order-4..6 principal minors,
    ordered by pairing (12,34), (14,23), (13,24)."""
    r12, r13, r14, r23, r24, r34 = _r6(r)
    m1, m2, m3, m4 = _m(m).astuple()
    prod = m1 * m2 * m3 * m4
    lam, sig2 = mult.lam, mult.sigma ** 2
    raw, on_shell = [], []
    for a, b in ((r12, r34), (r14, r23), (r13, r24)):
        a3, b3 = _fpow(a, 3), _fpow(b, 3)
        raw.append(prod * (lam ** 2 * a3 * b3 + 2.0 * lam * a3 + 2.0 * lam * b3 + 4.0)
                   - a3 * b3 * sig2)
        on_shell.append(3.0 * prod * (lam * a3 + lam * b3 + 1.0))
    return ATerms(raw=tuple(raw), on_shell=tuple(on_shell))


def dziobek_residual(r, lam: float) -> float:
    """Deviation from the Dziobek relation: the three opposite-pair products
    (r_ij^-3 - lam)(r_kl^-3 - lam) must coincide."""
    n12, n13, n14, n23, n24, n34 = (_fpow(x, -3) for x in _r6(r))
    p_sides = (n12 - lam) * (n34 - lam)
    p_diag = (n13 - lam) * (n24 - lam)
    p_other = (n14 - lam) * (n23 - lam)
    return max(abs(p_sides - p_diag), abs(p_sides - p_other))


def _cocircular(k_value: float, r: tuple, tol: float = COCIRCULAR_TOL) -> bool:
    # the co-circularity rule, on K and the six distances as floats
    return bool(abs(k_value) <= tol * _fpow(max(r), 3))


def classify_cocircular(rec: SolveRecord, tol: float = COCIRCULAR_TOL) -> bool:
    """True iff |K(r*)| <= tol * (max r)^3; K is stored raw on the record so
    callers can re-threshold."""
    return _cocircular(rec.k_value, rec.r_star.astuple(), tol)


# --- optimization ----------------------------------------------------------

# the bodies i and j, numbered from 0, of each distance slot
_PAIR_I, _PAIR_J = (np.array(DISTANCE_PAIRS) - 1).T


def _pair_products(m: np.ndarray) -> tuple:
    """The pair products m_i m_j in slot order, (n, 6), and the total masses
    M, (n,), of the (n, 4) masses m: MassVector's products() and M of each
    row, with their bits, and as silent as those float products where
    they overflow."""
    with np.errstate(over="ignore"):
        return m[:, _PAIR_I] * m[:, _PAIR_J], m[:, 0] + m[:, 1] + m[:, 2] + m[:, 3]


def _u_coefficients(m: np.ndarray) -> np.ndarray:
    """The coefficients u_k of U(p) = sum u_k / p_k, with r = sqrt(2M /
    m_i m_j) p, for each row of the (n, 4) masses m, as an (n, 6) stack:
    (m_i m_j)^{3/2} / sqrt(2M), inf or NaN where they overflow, without a
    warning."""
    products, total = _pair_products(m)
    with np.errstate(over="ignore", invalid="ignore"):
        return products ** 1.5 / np.sqrt(2.0 * total)[:, None]


def _distance_factors(m: np.ndarray) -> np.ndarray:
    """The factors sqrt(2M / m_i m_j) of r = p * factor, p_to_r's
    expression, for each row of the (n, 4) masses m, as an (n, 6) stack."""
    products, total = _pair_products(m)
    return np.sqrt(2.0 * total[:, None] / products)


def _newton_polish(v, w, u, gtol):
    """Projected Newton on S^2 x S^2, at most MAX_NEWTON steps; quadratic
    near the nondegenerate minimum.  u is a tuple of floats.  Returns (v,
    w, U, rgnorm, iters, converged); a point outside E, or where U is not
    finite, is returned as it is, with U = rgnorm = inf."""
    z = (*v, *w)
    res = kernels.potential(z, u)
    if res is None or not math.isfinite(res[1]):
        return z[:3], z[3:], math.inf, math.inf, 0, False
    for nit in range(MAX_NEWTON + 1):
        _, U, g, h = res
        cv, cw, rg = kernels.tangent_gradient(z, g)
        if rg <= gtol * max(1.0, abs(U)):
            return z[:3], z[3:], U, rg, nit, True
        if nit == MAX_NEWTON:
            break
        step = kernels.newton_step(z, g, h, cv, cw)
        if step is None:
            break
        t = 1.0
        for _ in range(30):
            zn = kernels.retract(z, step, t)
            res = kernels.potential(zn, u)
            if res is not None and res[1] <= U + 1e-12 * abs(U):
                break
            t *= 0.5
        else:
            break
        z = zn
    return z[:3], z[3:], U, rg, nit, False


def _polish_record(v, w, u):
    """Full Newton steps from the endpoint that becomes the record, while
    each one shrinks the projected gradient, at most RECORD_NEWTON_STEPS.
    The gtol test of _newton_polish is relative to max(1, |U|) and stops
    where one more quadratic step still gains digits of r*.  Returns
    (v, w, steps)."""
    z = (*v, *w)
    _, _, g, h = kernels.potential(z, u)
    cv, cw, rg = kernels.tangent_gradient(z, g)
    steps = 0
    while steps < RECORD_NEWTON_STEPS:
        step = kernels.newton_step(z, g, h, cv, cw)
        if step is None:
            break
        zn = kernels.retract(z, step, 1.0)
        res = kernels.potential(zn, u)
        if res is None:
            break
        cvn, cwn, rgn = kernels.tangent_gradient(zn, res[2])
        if not rgn < rg:
            break
        z, (_, _, g, h), cv, cw, rg = zn, res, cvn, cwn, rgn
        steps += 1
    return z[:3], z[3:], steps


def _state(z, u):
    """The lane state at the (6, n) points z with the (6, n) coefficients
    u, one (28, n) array of rows z, g, h, cv, cw, rg, U and u, as
    kernels.potential_lanes and kernels.tangent_gradient_lanes give them,
    and potential_lanes' (n,) mask inside.  Both lane Newton stages keep
    each lane as one column of it, so that a set of lanes is one gather."""
    inside, U, g, h = kernels.potential_lanes(z, u)
    return np.vstack((z, g, h, *kernels.tangent_gradient_lanes(z, g), U, u)), inside


def _some(x, index, count):
    # the lanes index of the (r, n) rows x, or x itself where index keeps
    # all count of them in order
    return x if index.size == count else x[:, index]


def _newton_polish_lanes(z, u, gtol):
    """_newton_polish at every lane of the (6, n) rows z of points (v, w)
    and u of coefficients, for any n: (z, U, rgnorm, iters, converged), the
    points as (6, n) rows and the rest as (n,) rows.  It runs
    _newton_polish's loop on all lanes together, on the _state of its
    lanes, and each lane leaves where _newton_polish returns: converged,
    at MAX_NEWTON, at a pivot that is not positive or where the line search
    fails.  The loop ends once no lane steps."""
    # as in kernels.descend_lanes, the lanes raise where the scalar code
    # divides by zero and ignore numpy's floating-point flags
    with np.errstate(all="ignore"):
        count = z.shape[1]
        state, inside = _state(z, u)
        out = state[:22].copy()
        out_nit, out_ok = np.zeros(count, dtype=int), np.zeros(count, dtype=bool)
        # a point outside E, or where U is not finite, leaves at once, with
        # U = rg = inf
        entered = inside & np.isfinite(state[21])
        lane = np.flatnonzero(entered)
        state = _some(state, lane, count)
        for nit in range(MAX_NEWTON + 1):
            U = state[21]
            converged = state[20] <= gtol * np.fmax(np.abs(U), 1.0)
            going = np.flatnonzero(~converged) if nit < MAX_NEWTON else lane[:0]
            if going.size:
                x = _some(state, going, lane.size)
                step, ok = kernels.newton_step_lanes(x[:6], x[6:12], x[12:18], x[18], x[19])
                if not ok.all():
                    going, x, step = going[ok], x[:, ok], step[:, ok]
            # a lane at a pivot that is not positive leaves below; so does
            # every lane where all of them are at one
            if going.size:
                # backtracking from t = 1, per lane; new takes each lane's
                # first accepted trial: the first trial of every lane,
                # where later ones overwrite the lanes it rejects
                new = None
                t = np.ones(going.size)
                trying = np.arange(going.size)
                for _ in range(30):
                    if not trying.size:
                        break
                    y, s = _some(x, trying, going.size), _some(step, trying, going.size)
                    trial, hit = _state(kernels.retract_lanes(y[:6], s, t), y[22:])
                    hit &= trial[21] <= y[21] + 1e-12 * np.abs(y[21])
                    if new is None:
                        new = trial
                    else:
                        new[:, trying[hit]] = trial[:, hit]
                    trying, t = trying[~hit], t[~hit] * 0.5
                if trying.size:
                    keep = np.ones(going.size, dtype=bool)
                    keep[trying] = False
                    going, new = going[keep], new[:, keep]
            # the lanes of going moved; every other lane leaves with its
            # current point
            stay = np.ones(lane.size, dtype=bool)
            stay[going] = False
            done = lane[stay]
            out[:, done] = state[:22, stay]
            out_nit[done], out_ok[done] = nit, converged[stay]
            lane = lane[~stay]
            if not lane.size:
                break
            state = new
    U, rg = np.where(entered, out[21], math.inf), np.where(entered, out[20], math.inf)
    return out[:6], U, rg, out_nit, out_ok


def _polish_record_lanes(z, u):
    """_polish_record at every lane of the (6, n) rows z of points (v, w)
    and u of coefficients, for any n: (z, steps), (6, n) and (n,) rows.  It
    runs _polish_record's loop on all lanes together, on the _state of its
    lanes, and each lane leaves where _polish_record returns."""
    with np.errstate(all="ignore"):
        out_z, out_steps = z.copy(), np.zeros(z.shape[1], dtype=int)
        lane = np.arange(z.shape[1])
        state = _state(z, u)[0]
        for steps in range(RECORD_NEWTON_STEPS):
            if not lane.size:
                break
            step, ok = kernels.newton_step_lanes(state[:6], state[6:12], state[12:18],
                                                 state[18], state[19])
            going = np.flatnonzero(ok)
            x = _some(state, going, lane.size)
            new, better = _state(kernels.retract_lanes(x[:6], _some(step, going, lane.size), 1.0),
                                 x[22:])
            better &= new[20] < x[20]
            stay = np.ones(lane.size, dtype=bool)
            stay[going[better]] = False
            out_z[:, lane[stay]], out_steps[lane[stay]] = state[:6, stay], steps
            lane = lane[~stay]
            state = _some(new, np.flatnonzero(better), going.size)
        out_z[:, lane], out_steps[lane] = state[:6], RECORD_NEWTON_STEPS
    return out_z, out_steps


class _Row(NamedTuple):
    """One mass vector's multistart: U and iterations list its starts'
    endpoints, best is the start its record is built from (the accepted
    endpoint of lowest U, else the endpoint of lowest U, the first of
    equals either way), and clusters holds (canonical representative,
    member starts) per cluster of the accepted endpoints, the
    representative a tuple of six floats.  An endpoint is accepted iff it
    is a member of a cluster."""

    U: list
    iterations: list
    best: int
    clusters: list


def _constraints_hold(p):
    """|sum p^2 - 1| and |p12 p34 + p14 p23 - p13 p24| at most
    CONSTRAINT_TOL, for p six floats or six (n,) rows."""
    p12, p13, p14, p23, p24, p34 = p
    return ((abs(p12 * p12 + p13 * p13 + p14 * p14 + p23 * p23 + p24 * p24
                 + p34 * p34 - 1.0) <= CONSTRAINT_TOL)
            & (abs(p12 * p34 + p14 * p23 - p13 * p24) <= CONSTRAINT_TOL))


def _multistart_blocks(masses_list, starts, gtol: float):
    """The solves of SCAN_BLOCK_LANES // len(starts) mass vectors (at least
    one) at a time.  For each block, (masses, m, z, u, rows): m the (k, 4)
    stack of its k mass vectors; z and u the (6, n) endpoints and
    coefficients of its n = k len(starts) lanes, lane i len(starts) + j
    from start j of mass vector i; and rows an iterator over the _Row of
    its mass vectors in order, start j of a row at lane j of its own.  A
    block below kernels.LANES_MIN lanes runs on floats, in _solve_floats
    and _endpoints; a larger one runs descend_lanes, _newton_polish_lanes
    and _lane_rows on all its lanes, with the same bits.  A row's clusters
    are formed as the row is drawn.  The starts are only read."""
    per_row = len(starts)
    start_z = np.array([(s.v, s.w) for s in starts]).reshape(per_row, 6).T
    size = max(1, SCAN_BLOCK_LANES // per_row)
    for first in range(0, len(masses_list), size):
        block = masses_list[first:first + size]
        m = np.array([masses.astuple() for masses in block])
        u = np.repeat(_u_coefficients(m).T, per_row, axis=1)
        if u.shape[1] < kernels.LANES_MIN:
            z, U, iters, points = _solve_floats(start_z.T.tolist() * len(block),
                                                u.T.tolist(), gtol)
            rows = (_endpoints(masses, U[own], iters[own], points[own])
                    for masses, own in zip(block, _row_slices(len(block), per_row)))
        else:
            z, _, _, iters, _ = kernels.descend_lanes(np.tile(start_z, len(block)), u,
                                                      NEWTON_SWITCH, MAX_ITER)
            # a start outside E ends where it began, with U = inf: the Newton
            # polish leaves it as it is
            z, U, _, nit, converged = _newton_polish_lanes(z, u, gtol)
            rows = _lane_rows(block, m, z, U, iters + nit, converged)
        yield block, m, z, u, rows


def _row_slices(rows, per_row):
    return [slice(i * per_row, (i + 1) * per_row) for i in range(rows)]


def _solve_floats(starts, us, gtol):
    """_multistart_blocks' lanes one at a time on floats: kernels.descend
    and _newton_polish, looked up at each call, from each start of starts
    with its six coefficients in us, then the chart test.  Returns the
    (6, n) endpoints and lists of their U, iterations and p, the six floats
    of vw_to_p_floats, or None where the endpoint did not converge or
    failed the chart test."""
    ends, U, iters, points = [], [], [], []
    for zi, ui in zip(starts, us):
        v, w, _, _, it, _ = kernels.descend(zi[:3], zi[3:], ui, NEWTON_SWITCH, MAX_ITER)
        v, w, Ui, _, nit, converged = _newton_polish(v, w, ui, gtol)
        p = vw_to_p_floats(v, w)
        ends += v + w
        U.append(Ui)
        iters.append(it + nit)
        points.append(p if converged and _constraints_hold(p) else None)
    return np.array(ends).reshape(-1, 6).T, U, iters, points


def _endpoints(masses: MassVector, U, iters, points) -> _Row:
    """The _Row of one mass vector from its starts' endpoints on floats,
    their U, iterations and p from _solve_floats.  An endpoint with a p is
    accepted, its distances are p_to_r(p, masses), which raises
    DegeneratePointError where they are not positive and finite, and its
    canonical copy is taken under the relabelings that fix the masses,
    found once; the copies are clustered by _clusters.  It is kept beside
    _lane_rows for a solve's block of 8 starts: on one row of 8 lanes it
    took 38-41 us where _lane_rows took 111-118 us (best of 7 x 200 calls
    over 8 mass vectors, four runs, 2-vCPU x86-64 VM), some 7% of a
    minimize_U call."""
    relabelings = _admissible_slots(masses)
    accepted = [i for i, p in enumerate(points) if p is not None]
    canons = [_canonical(p_to_r(points[i], masses).astuple(), relabelings) for i in accepted]
    best = min(accepted or range(len(U)), key=U.__getitem__)
    return _Row(U, iters, best, _clusters(accepted, canons))


def _clusters(members, canons) -> list:
    """The clusters of the accepted endpoints members, in order, from their
    canonical copies canons: each joins the first cluster whose
    representative lies within CLUSTER_TOL times that representative's
    largest distance, else starts one.  Returns (representative, member
    indices) per cluster.  In Python floats."""
    clusters = []       # (representative, members, radius)
    for index, canon in zip(members, canons):
        for rep, group, radius in clusters:
            if math.dist(canon, rep) <= radius:
                group.append(index)
                break
        else:
            clusters.append((canon, [index], CLUSTER_TOL * max(canon)))
    return [(tuple(rep), group) for rep, group, _ in clusters]


def _lane_rows(block, m, z, U, iters, converged):
    """The _Row of each mass vector of a lane block, in order, from its
    (6, n) endpoints z, their (n,) U, iterations and convergence mask, and
    the (k, 4) masses m of its k rows.  The chart test, the distances
    r = p sqrt(2M / m_i m_j) (p_to_r's expression, one factor per row),
    the relabelings that fix each row's masses, the accepted endpoints'
    canonical copies and each row's best start are computed on all lanes
    together, with the bits of _endpoints.  So is the distance of each
    accepted endpoint from its row's first, over that one's cluster radius:
    a row where each of these is at most 1 - 1e-12 forms one cluster, as
    _clusters forms it, for math.dist is within an ulp of the distance and
    numpy's value of the quotient within a few; every other row runs
    _clusters on floats.  A row with an accepted endpoint whose distances
    are not all positive and finite raises p_to_r's DegeneratePointError
    at its turn, from the first such endpoint."""
    k = len(block)
    per_row = z.shape[1] // k
    with np.errstate(all="ignore"):
        p = np.array(vw_to_p_floats(z[:3], z[3:]))
        accepted = converged & _constraints_hold(p)
        lanes = np.flatnonzero(accepted)
        rows = lanes // per_row
        r = p[:, lanes] * _distance_factors(m).T[:, rows]
        degenerate = lanes[~(np.isfinite(r) & (r > 0.0)).all(axis=0)]
        # an endpoint whose masses only the identity fixes is its own copy
        admissible = _admissible_mask(m)[:, rows]
        tied = np.flatnonzero(admissible[1:].any(axis=0))
        r[:, tied] = _canonical_copies(r[:, tied], admissible[:, tied])
        # the rows with an endpoint that may lie outside the first one's
        # radius; NaN and inf land here too
        bounds = np.searchsorted(lanes, np.arange(k + 1) * per_row)
        first = r[:, bounds[rows]]
        q = (r - first) / (CLUSTER_TOL * first.max(axis=0))
        far = set(rows[~(np.sqrt((q * q).sum(axis=0)) <= 1.0 - 1e-12)].tolist())
    # U is finite or inf, never NaN, so argmin takes the first lowest, as
    # min() does
    any_accepted = accepted.reshape(k, per_row).any(axis=1)
    best = np.where(any_accepted, np.where(accepted, U, math.inf).reshape(k, per_row).argmin(axis=1),
                    U.reshape(k, per_row).argmin(axis=1)).tolist()
    raises = {lane // per_row: lane for lane in reversed(degenerate.tolist())}
    members = (lanes % per_row).tolist()
    firsts = r[:, np.minimum(bounds[:-1], lanes.size - 1)].T.tolist() if lanes.size else [None] * k
    bounds = bounds.tolist()
    fields = zip(block, U.reshape(k, per_row).tolist(), iters.reshape(k, per_row).tolist(),
                 best, bounds, bounds[1:], firsts)
    for i, (masses, Ui, iters_i, best_i, lo, hi, rep) in enumerate(fields):
        if i in raises:
            p_to_r(tuple(p[:, raises[i]].tolist()), masses)
        if i in far:
            clusters = _clusters(members[lo:hi], r[:, lo:hi].T.tolist())
        else:
            clusters = [(tuple(rep), members[lo:hi])] if hi > lo else []
        yield _Row(Ui, iters_i, best_i, clusters)


def _record_from_point(v, w, masses: MassVector, iterations: int,
                       converged: bool, meta: dict) -> SolveRecord:
    r_star = p_to_r(vw_to_p_floats(v, w), masses)
    # an overflowing H or U reads inf, which the record keeps
    with np.errstate(over="ignore", invalid="ignore"):
        scalars = ScalarReport.evaluate(r_star, masses)
    mult = recover_multipliers(r_star, masses)
    minors = principal_minors(hessian_L(r_star, masses, mult))
    terms = a_terms(r_star, masses, mult)
    s2 = _sigma_sq(r_star, masses, mult.lam)
    return SolveRecord(
        masses=masses,
        r_star=r_star,
        chart_point=VWPoint(v=v, w=w),
        multipliers=mult,
        scalars=scalars,
        minors=minors,
        a_terms=terms.raw,
        dziobek_residual=dziobek_residual(r_star, mult.lam),
        sigma_sq_residuals=tuple(x - mult.sigma ** 2 for x in s2),
        iterations=iterations,
        converged=converged,
        is_cocircular=converged and _cocircular(scalars.K, r_star.astuple()),
        k_value=scalars.K,
        meta=meta,
    )


def _draw_starts(opts: SolverOptions) -> list:
    """The starts of a solve: the equal-mass square image, then
    seeded_start(opts.seed, i) for i = 1 .. opts.starts - 1.  They depend
    on (seed, starts) only, not on the masses."""
    if opts.starts < 1:
        raise ValueError("need at least one start")
    return [square_chart_point()] + [seeded_start(opts.seed, i)
                                     for i in range(1, opts.starts)]


def minimize_U(m, opts: SolverOptions | None = None) -> SolveRecord:
    """Minimizer of the potential over the normalized cyclic-constraint
    manifold for the given masses.

    Starts from the equal-mass square image plus opts.starts - 1 seeded
    interior points.  The accepted endpoints must form one cluster (see
    _multistart_blocks; there is exactly one minimizer), otherwise
    UniquenessAlarmError is raised.  The record is built from the accepted
    endpoint of lowest U, polished to full precision by _polish_record; if
    no endpoint is accepted, the best iterate is returned with
    converged=False.
    """
    masses = _m(m)
    opts = opts or SolverOptions()
    (_, _, z, u, rows), = _multistart_blocks([masses], _draw_starts(opts), opts.gtol)
    row, = rows
    _require_one_cluster(row.clusters)
    zb, iterations, converged = z[:, row.best].tolist(), row.iterations[row.best], bool(row.clusters)
    v, w = zb[:3], zb[3:]
    if converged:
        v, w, steps = _polish_record(v, w, u[:, row.best].tolist())
        iterations += steps
    meta = {"schema": RECORD_SCHEMA, "rng": RNG_NAME,
            "seed": opts.seed, "starts": opts.starts}
    return _record_from_point(v, w, masses, iterations, converged, meta)


def _require_one_cluster(clusters):
    """Raises UniquenessAlarmError when the accepted endpoints of a solve
    form more than one cluster."""
    if len(clusters) > 1:
        gap = float(np.linalg.norm(np.subtract(clusters[1][0], clusters[0][0])))
        raise UniquenessAlarmError(
            f"multistart endpoints form {len(clusters)} clusters, the first two "
            f"{gap:.3e} apart in r-space (> {CLUSTER_TOL:g} x max r); this "
            "contradicts uniqueness of the minimizer and indicates a solver bug")


class _RowValues(NamedTuple):
    """The fields of a solve record that a scan row prints; K, U and lambda
    are None when the solve did not converge."""

    k_value: float | None
    U: float | None
    lam: float | None
    is_cocircular: bool
    iterations: int
    converged: bool


def _scan_values(masses_list):
    """For each mass vector, the row fields of the record minimize_U(masses)
    builds, in order, from starts drawn once per call by _draw_starts and
    only read.  The rows share _multistart_blocks, which descends,
    Newton-polishes and tests the starts of a block of rows together; the
    accepted endpoints the block's records would be built from are then
    polished together by _polish_record_lanes, and each row's fields come
    from its polished endpoint by the expressions the record uses, on
    stacks of the block's rows, without the rest of the record.  Per row,
    only the clusters are formed and the row's fields read off.  A row's
    UniquenessAlarmError, or the DegeneratePointError of its distances, is
    raised once the rows before it are yielded, as a solve of one row at a
    time raises it; so is the IndeterminateShapeError of its
    multipliers."""
    opts = SolverOptions()
    starts = _draw_starts(opts)
    per_row = len(starts)
    for block, m, z, u, rows in _multistart_blocks(masses_list, starts, opts.gtol):
        # the chosen lane of each row before the first that raises, its
        # iterations and whether it was accepted
        best, iterations, accepted, error = [], [], [], None
        try:
            for row in rows:
                _require_one_cluster(row.clusters)
                best.append(row.best)
                iterations.append(row.iterations[row.best])
                accepted.append(bool(row.clusters))
        except (DegeneratePointError, UniquenessAlarmError) as exc:
            error = exc
        polished = np.flatnonzero(accepted)
        lanes = polished * per_row + np.array(best, dtype=int)[polished]
        z, steps = _polish_record_lanes(z[:, lanes], u[:, lanes])
        values = _polished_rows(z, m[polished], [block[i] for i in polished.tolist()],
                                (np.array(iterations, dtype=int)[polished] + steps).tolist())
        for ok, n in zip(accepted, iterations):
            yield next(values) if ok else _RowValues(None, None, None, False, n, False)
        if error is not None:
            raise error


def _polished_rows(z, m, masses_list, iterations):
    """The _RowValues of rows with the (k, 4) masses m, one MassVector each
    in masses_list, at their (6, k) polished points z, with their
    iteration counts, in order.  r, K, U and the stationarity systems are
    evaluated for all rows together, each by the expression that p_to_r,
    K_term, potential_U or _stationarity_system evaluates for one row, so
    every row keeps the bits of a one-row call; lambda comes from one
    _least_squares over the stack.  A row whose distances are not all
    positive and finite raises p_to_r's DegeneratePointError at its turn,
    and a rank-deficient row IndeterminateShapeError."""
    # a degenerate row raises at its turn; its inf and NaN here mean nothing
    with np.errstate(all="ignore"):
        p = np.array(vw_to_p_floats(z[:3], z[3:]))
        r = p.T * _distance_factors(m)
        products = _pair_products(m)[0]
        A = np.stack((products, PAIR_SIGN * (r[:, OPPOSITE_SLOT] / r)), axis=2)
        b = products * r ** -3
        finite = (np.isfinite(r) & (r > 0.0)).all(axis=1).tolist()
        K, U = K_term(r).tolist(), potential_U(r, m).tolist()
    solutions = _least_squares(A, b)
    for k, (masses, rk) in enumerate(zip(masses_list, r.tolist())):
        if not finite[k]:
            p_to_r(tuple(p[:, k].tolist()), masses)
        lam, _ = next(solutions)
        yield _RowValues(K[k], U[k], lam, _cocircular(K[k], rk), iterations[k], True)


# --- certification ---------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    passed: bool
    value: float
    threshold: float


def _scaled_check(value: float, threshold: float) -> CheckResult:
    """value <= threshold, for a threshold scaled by the record itself.  A
    zero or non-finite scale gives a threshold that bounds nothing, so the
    check fails on it."""
    usable = math.isfinite(threshold) and threshold > 0.0
    return CheckResult(bool(usable and value <= threshold), value, threshold)


@dataclass(frozen=True)
class CertReport:
    """Outcome of certify_minimum, one entry per check."""

    checks: dict

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_json_dict(self) -> dict:
        return {"passed": self.passed,
                "checks": {name: {"passed": c.passed, "value": c.value,
                                  "threshold": c.threshold}
                           for name, c in self.checks.items()}}


def certify_minimum(rec: SolveRecord) -> CertReport:
    """Re-derive every certificate of a nondegenerate constrained minimum
    from the record's r*, masses and stored multipliers, against the
    thresholds above.

    Checks: lambda > 0; stationarity of the stored multipliers; constraint
    residuals; positivity of all six leading principal minors, in agreement
    with a Cholesky factorization; the Dziobek relation; mutual consistency
    of the three sigma^2 products; and consistency of the stored
    co-circularity flag with the stored K value.

    The Dziobek and sigma^2 thresholds scale with the record.  With
    n = r^-3 and S = max(max n, lambda), the Dziobek residual is a
    difference of products of two factors n_ij - lambda, so it is bounded
    by DZIOBEK_RTOL S^2; the sigma^2 spread is relative, and the rounding
    of each factor is amplified by cond = S / min |n - lambda|, so it is
    bounded by SIGMA_SQ_RTOL cond.  Each check reports the threshold used.
    """
    # an overflowing record gives inf and NaN, on which its checks fail;
    # numpy's floating-point warnings about them add nothing
    with np.errstate(all="ignore"):
        r = rec.r_star.astuple()
        masses = rec.masses
        mult = rec.multipliers
        checks = {}

        checks["lambda_positive"] = CheckResult(mult.lam > 0.0, mult.lam, 0.0)

        stat = stationarity_residual(r, masses, mult.lam, mult.sigma)
        checks["stationarity"] = CheckResult(stat <= STATIONARITY_TOL, stat, STATIONARITY_TOL)

        cons = max(abs(moment_I(r, masses) - 1.0), abs(ptolemy_P(r)))
        checks["constraints"] = CheckResult(cons <= CERT_CONSTRAINT_TOL, cons, CERT_CONSTRAINT_TOL)

        H = hessian_L(r, masses, mult)
        minors = principal_minors(H)
        minors_ok = min(minors) > 0.0
        try:
            np.linalg.cholesky(H)
            chol_ok = True
        except np.linalg.LinAlgError:
            chol_ok = False
        checks["minors_positive"] = CheckResult(minors_ok, min(minors), 0.0)
        checks["posdef_agreement"] = CheckResult(chol_ok == minors_ok,
                                                 float(chol_ok == minors_ok), 1.0)

        n = [_fpow(x, -3) for x in r]
        scale = max(max(n), mult.lam)
        gap = min(abs(x - mult.lam) for x in n)
        cond = scale / gap if gap > 0.0 else math.inf
        checks["dziobek"] = _scaled_check(dziobek_residual(r, mult.lam),
                                          DZIOBEK_RTOL * _fpow(scale, 2))
        checks["sigma_sq_consistent"] = _scaled_check(
            sigma_sq_spread(r, masses, mult.lam), SIGMA_SQ_RTOL * cond)

        k_ok = classify_cocircular(rec) == rec.is_cocircular
        checks["cocircular_consistent"] = CheckResult(
            k_ok, abs(rec.k_value), COCIRCULAR_TOL * _fpow(max(r), 3))
    return CertReport(checks=checks)
