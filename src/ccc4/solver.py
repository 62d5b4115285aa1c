"""Constrained minimization of the potential over {I = 1, P = 0} and
certification of the minimizer.

The optimizer works in the double-sphere chart: descent by the kernel
module, then a projected Newton polish, which is justified because every
critical point of the restricted potential is a nondegenerate minimum, so
no saddle handling is needed.  Multipliers are
recovered afterwards by linear least squares on the six stationarity
equations

    m_i m_j (r_ij^-3 - lambda) = +/- sigma r_kl / r_ij,

with signs (+, -, +, +, -, +) over the pairs (12, 13, 14, 23, 24, 34) and
(kl) the pair opposite (ij).  The decoupling gives an independent
stationarity residual for certification.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import kernels, serialize
from .chart import (P_FROM_VW, VWPoint, p_to_r, seeded_start, square_chart_point,
                    vw_to_p_array)
from .errors import IndeterminateShapeError, UniquenessAlarmError
from .geometry import (DistanceVector, MassVector, OPPOSITE_SLOT, PAIR_SIGN,
                       ScalarReport, _m, _r6, canonical_distance_tuple)

RNG_NAME = "numpy-pcg64"
RECORD_SCHEMA = "ccc4-solverecord-1"

# Fixed tolerances of the solver, and below them of certify_minimum.
CONSTRAINT_TOL = 1e-12       # |sum p^2 - 1| and |P(p)| at an accepted endpoint
NEWTON_SWITCH = 1e-6         # descent hands over to Newton below this
COCIRCULAR_TOL = 1e-6        # |K| threshold, scaled by (max r)^3
STATIONARITY_TOL = 1e-9      # relative residual of the stationarity equations
CERT_CONSTRAINT_TOL = 1e-9   # |I - 1| and |P| in r units
DZIOBEK_TOL = 1e-9           # spread of the opposite-pair products
SIGMA_SQ_TOL = 1e-9          # relative spread of the three sigma^2 products


@dataclass(frozen=True)
class SolverOptions:
    """Budgets, starts, seed and cluster radius of the multistart solve."""

    gtol: float = 1e-11              # projected-gradient norm, relative to max(1, |U|)
    max_iter: int = 500
    max_newton: int = 40
    starts: int = 8
    seed: int = 0
    cluster_tol: float = 1e-6        # endpoint agreement radius, relative to max r


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
            "chart_point": {"v": list(vw.v), "w": list(vw.w)},
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
        mult = Multipliers(lam=doc["multipliers"]["lambda"],
                           sigma=doc["multipliers"]["sigma"],
                           stationarity_residual=doc["multipliers"]["stationarity_residual"])
        scal = ScalarReport(**{k: doc["scalars"][k] for k in ("U", "I", "P", "H", "K", "Q")})
        return cls(masses=masses, r_star=r, chart_point=vw, multipliers=mult,
                   scalars=scal, minors=tuple(doc["minors"]),
                   a_terms=tuple(doc["a_terms"]),
                   dziobek_residual=doc["dziobek_residual"],
                   sigma_sq_residuals=tuple(doc["sigma_sq_residuals"]),
                   iterations=doc["iterations"], converged=doc["converged"],
                   is_cocircular=doc["is_cocircular"], k_value=doc["k_value"],
                   meta=doc.get("meta", {}))

    @classmethod
    def from_json(cls, text: str) -> "SolveRecord":
        return cls.from_json_dict(json.loads(text))


def lagrangian_L(r, m, lam: float, sigma: float) -> float:
    """U + lambda M (I - 1) + sigma P as a function of the distance vector."""
    from .geometry import moment_I, potential_U, ptolemy_P
    masses = _m(m)
    return (potential_U(r, masses) + lam * masses.M * (moment_I(r, masses) - 1.0)
            + sigma * ptolemy_P(r))


def _stationarity_system(r_arr: np.ndarray, masses: MassVector):
    mm = masses.products()
    rho = r_arr[list(OPPOSITE_SLOT)] / r_arr
    A = np.column_stack([mm, np.asarray(PAIR_SIGN) * rho])
    b = mm * r_arr ** -3
    return A, b


def stationarity_residual(r, m, lam: float, sigma: float) -> float:
    """Relative residual of the six stationarity equations at (lam, sigma)."""
    A, b = _stationarity_system(_r6(r), _m(m))
    return float(np.linalg.norm(A @ np.array([lam, sigma]) - b) / np.linalg.norm(b))


def recover_multipliers(r, m) -> Multipliers:
    """Best (lambda, sigma) for the stationarity equations, by 6x2 least
    squares, together with the relative residual norm."""
    r_arr = _r6(r)
    A, b = _stationarity_system(r_arr, _m(m))
    sol, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < 2:
        raise IndeterminateShapeError(
            "stationarity system is rank-deficient at this distance vector")
    lam, sigma = float(sol[0]), float(sol[1])
    return Multipliers(lam=lam, sigma=sigma,
                       stationarity_residual=stationarity_residual(r_arr, m, lam, sigma))


def hessian_L(r, m, mult: Multipliers) -> np.ndarray:
    """Second derivative of the Lagrangian in distance coordinates:
    diag(f_ij) + antidiag(sigma, -sigma, sigma, sigma, -sigma, sigma) with
    f_ij = m_i m_j (2 r_ij^-3 + lambda)."""
    r_arr = _r6(r)
    mm = _m(m).products()
    H = np.diag(mm * (2.0 * r_arr ** -3 + mult.lam))
    anti = mult.sigma * np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
    for k in range(6):
        H[k, 5 - k] += anti[k]
    return H


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
    r12, r13, r14, r23, r24, r34 = _r6(r)
    m4 = float(np.prod(_m(m).array))
    return np.array([
        m4 * (r12 ** -3 - lam) * (r34 ** -3 - lam),
        m4 * (r14 ** -3 - lam) * (r23 ** -3 - lam),
        m4 * (r13 ** -3 - lam) * (r24 ** -3 - lam),
    ])


def sigma_sq_spread(r, m, lam: float) -> float:
    """Relative spread (max - min) / max |.| of the three sigma^2 products;
    zero at a critical point."""
    s2 = sigma_sq_values(r, m, lam)
    return float((s2.max() - s2.min()) / max(np.abs(s2).max(), 1e-300))


def a_terms(r, m, mult: Multipliers) -> ATerms:
    """Quartic factors A0, A1, A2 entering the order-4..6 principal minors,
    ordered by pairing (12,34), (14,23), (13,24)."""
    r12, r13, r14, r23, r24, r34 = _r6(r)
    m4 = float(np.prod(_m(m).array))
    lam, sig2 = mult.lam, mult.sigma ** 2
    raw = []
    for a, b in ((r12, r34), (r14, r23), (r13, r24)):
        a3, b3 = a ** 3, b ** 3
        raw.append(m4 * (lam ** 2 * a3 * b3 + 2.0 * lam * a3 + 2.0 * lam * b3 + 4.0)
                   - a3 * b3 * sig2)
    on_shell = [3.0 * m4 * (lam * a ** 3 + lam * b ** 3 + 1.0)
                for a, b in ((r12, r34), (r14, r23), (r13, r24))]
    return ATerms(raw=tuple(raw), on_shell=tuple(on_shell))


def dziobek_residual(r, lam: float) -> float:
    """Deviation from the Dziobek relation: the three opposite-pair products
    (r_ij^-3 - lam)(r_kl^-3 - lam) must coincide."""
    r12, r13, r14, r23, r24, r34 = _r6(r)
    p_sides = (r12 ** -3 - lam) * (r34 ** -3 - lam)
    p_diag = (r13 ** -3 - lam) * (r24 ** -3 - lam)
    p_other = (r14 ** -3 - lam) * (r23 ** -3 - lam)
    return max(abs(p_sides - p_diag), abs(p_sides - p_other))


def classify_cocircular(rec: SolveRecord, tol: float = COCIRCULAR_TOL) -> bool:
    """True iff |K(r*)| <= tol * (max r)^3; K is stored raw on the record so
    callers can re-threshold."""
    scale = max(rec.r_star.astuple())
    return bool(abs(rec.k_value) <= tol * scale ** 3)


# --- optimization ----------------------------------------------------------

def _u_coefficients(masses: MassVector) -> np.ndarray:
    # U(p) = sum u_k / p_k with r = sqrt(2M / m_i m_j) p
    return masses.products() ** 1.5 / math.sqrt(2.0 * masses.M)


def _tangent_basis(x: np.ndarray) -> np.ndarray:
    k = int(np.argmin(np.abs(x)))
    e = np.zeros(3)
    e[k] = 1.0
    b1 = e - x[k] * x
    b1 /= np.linalg.norm(b1)
    x0, x1, x2 = x.tolist()
    c0, c1, c2 = b1.tolist()
    # x cross b1, term by term as np.cross computes it
    return np.column_stack([b1, (x1 * c2 - x2 * c1, x2 * c0 - x0 * c2,
                                 x0 * c1 - x1 * c0)])


def _newton_polish(v, w, u, gtol, max_newton):
    """Projected Newton on S^2 x S^2; quadratic near the nondegenerate
    minimum.  Returns (v, w, U, rgnorm, iters, converged)."""
    z = np.concatenate([v, w])
    U = math.inf
    rg = math.inf
    for nit in range(max_newton + 1):
        p = P_FROM_VW @ z
        if p.min() <= 0.0:
            return z[:3], z[3:], math.inf, math.inf, nit, False
        U = float(np.sum(u / p))
        gz = P_FROM_VW.T @ (-u / p ** 2)
        vv, ww = z[:3], z[3:]
        cv, cw = gz[:3] @ vv, gz[3:] @ ww
        rv = gz[:3] - cv * vv
        rw = gz[3:] - cw * ww
        rg = math.sqrt(rv @ rv + rw @ rw)
        if rg <= gtol * max(1.0, abs(U)):
            return vv, ww, U, rg, nit, True
        if nit == max_newton:
            return vv, ww, U, rg, nit, False
        Hz = (P_FROM_VW.T * (2.0 * u / p ** 3)) @ P_FROM_VW
        B = np.zeros((6, 4))
        B[:3, :2] = _tangent_basis(vv)
        B[3:, 2:] = _tangent_basis(ww)
        Hred = B.T @ Hz @ B
        Hred[:2, :2] -= cv * np.eye(2)
        Hred[2:, 2:] -= cw * np.eye(2)
        gred = B.T @ gz
        try:
            step = B @ np.linalg.solve(Hred, -gred)
        except np.linalg.LinAlgError:
            return vv, ww, U, rg, nit, False
        t = 1.0
        accepted = False
        for _ in range(30):
            vn = vv + t * step[:3]
            wn = ww + t * step[3:]
            vn /= np.linalg.norm(vn)
            wn /= np.linalg.norm(wn)
            pn = P_FROM_VW @ np.concatenate([vn, wn])
            if pn.min() > 0.0 and np.sum(u / pn) <= U + 1e-12 * abs(U):
                accepted = True
                break
            t *= 0.5
        if not accepted:
            return vv, ww, U, rg, nit, False
        z = np.concatenate([vn, wn])
    return z[:3], z[3:], U, rg, max_newton, False


def _solve_from(vw: VWPoint, u: np.ndarray, opts: SolverOptions):
    v, w, U, rg, iters, status = kernels.descend(
        vw.v, vw.w, u, NEWTON_SWITCH, opts.max_iter)
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if not math.isfinite(U):
        return v, w, math.inf, math.inf, iters, False
    v, w, U, rg, nit, ok = _newton_polish(v, w, u, opts.gtol, opts.max_newton)
    return v, w, U, rg, iters + nit, ok


class _Endpoint(NamedTuple):
    v: np.ndarray
    w: np.ndarray
    U: float
    iterations: int
    r: DistanceVector | None     # None unless the endpoint was accepted


def _multistart(masses: MassVector, starts, opts: SolverOptions):
    """Solve from every start; accept an endpoint when descent plus Newton
    converged and |sum p^2 - 1|, |p12 p34 + p14 p23 - p13 p24| <=
    CONSTRAINT_TOL (chart units, free of the mass scale); cluster accepted
    endpoints, up to admissible relabelings, within opts.cluster_tol times
    the largest distance of each cluster's representative.  Returns one
    _Endpoint per start and (canonical representative, member indices) per
    cluster."""
    u = _u_coefficients(masses)
    endpoints, clusters = [], []
    for index, start in enumerate(starts):
        v, w, U, _, iters, ok = _solve_from(start, u, opts)
        r = None
        if ok:
            p = vw_to_p_array(v, w)
            if (abs(p @ p - 1.0) <= CONSTRAINT_TOL
                    and abs(p[0] * p[5] + p[2] * p[3] - p[1] * p[4]) <= CONSTRAINT_TOL):
                r = p_to_r(p, masses)
        endpoints.append(_Endpoint(v, w, U, iters, r))
        if r is None:
            continue
        canon = np.array(canonical_distance_tuple(r, masses))
        for rep, members in clusters:
            if np.linalg.norm(canon - rep) <= opts.cluster_tol * rep.max():
                members.append(index)
                break
        else:
            clusters.append((canon, [index]))
    return endpoints, clusters


def _record_from_point(v, w, masses: MassVector, iterations: int,
                       converged: bool, meta: dict) -> SolveRecord:
    r_star = p_to_r(vw_to_p_array(v, w), masses)
    r_arr = r_star.array
    scalars = ScalarReport.evaluate(r_star, masses)
    mult = recover_multipliers(r_arr, masses)
    minors = principal_minors(hessian_L(r_arr, masses, mult))
    terms = a_terms(r_arr, masses, mult)
    s2 = sigma_sq_values(r_arr, masses, mult.lam)
    return SolveRecord(
        masses=masses,
        r_star=r_star,
        chart_point=VWPoint(v=v, w=w),
        multipliers=mult,
        scalars=scalars,
        minors=minors,
        a_terms=terms.raw,
        dziobek_residual=dziobek_residual(r_arr, mult.lam),
        sigma_sq_residuals=tuple(float(x) for x in s2 - mult.sigma ** 2),
        iterations=iterations,
        converged=converged,
        is_cocircular=False,
        k_value=scalars.K,
        meta=meta,
    )


def minimize_U(m, opts: SolverOptions | None = None) -> SolveRecord:
    """Minimizer of the potential over the normalized cyclic-constraint
    manifold for the given masses.

    Starts from the equal-mass square image plus opts.starts - 1 seeded
    interior points.  The accepted endpoints must form one cluster (see
    _multistart; there is exactly one minimizer), otherwise
    UniquenessAlarmError is raised.  The record is built from the accepted
    endpoint of lowest U; if no endpoint is accepted, the best iterate is
    returned with converged=False.
    """
    masses = _m(m)
    opts = opts or SolverOptions()
    if opts.starts < 1:
        raise ValueError("need at least one start")
    starts = [square_chart_point()]
    starts += [seeded_start(opts.seed, i) for i in range(1, opts.starts)]
    endpoints, clusters = _multistart(masses, starts, opts)

    if len(clusters) > 1:
        gap = float(np.linalg.norm(clusters[1][0] - clusters[0][0]))
        raise UniquenessAlarmError(
            f"multistart endpoints form {len(clusters)} clusters, the first two "
            f"{gap:.3e} apart in r-space (> {opts.cluster_tol:g} x max r); this "
            "contradicts uniqueness of the minimizer and indicates a solver bug")

    meta = {"schema": RECORD_SCHEMA, "rng": RNG_NAME,
            "seed": opts.seed, "starts": opts.starts}
    accepted = [e for e in endpoints if e.r is not None]
    best = min(accepted or endpoints, key=lambda e: e.U)
    rec = _record_from_point(best.v, best.w, masses, best.iterations,
                             bool(accepted), meta)
    if accepted:
        rec = replace(rec, is_cocircular=classify_cocircular(rec))
    return rec


# --- certification ---------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    passed: bool
    value: float
    threshold: float


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
    from the record's r*, masses and stored multipliers, against the fixed
    thresholds above.

    Checks: lambda > 0; stationarity of the stored multipliers; constraint
    residuals; positivity of all six leading principal minors, in agreement
    with a Cholesky factorization; the Dziobek relation; mutual consistency
    of the three sigma^2 products; and consistency of the stored
    co-circularity flag with the stored K value.
    """
    r_arr = rec.r_star.array
    masses = rec.masses
    mult = rec.multipliers
    checks = {}

    checks["lambda_positive"] = CheckResult(mult.lam > 0.0, mult.lam, 0.0)

    stat = stationarity_residual(r_arr, masses, mult.lam, mult.sigma)
    checks["stationarity"] = CheckResult(stat <= STATIONARITY_TOL, stat, STATIONARITY_TOL)

    scalars = ScalarReport.evaluate(r_arr, masses)
    cons = max(abs(scalars.I - 1.0), abs(scalars.P))
    checks["constraints"] = CheckResult(cons <= CERT_CONSTRAINT_TOL, cons, CERT_CONSTRAINT_TOL)

    H = hessian_L(r_arr, masses, mult)
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

    dz = dziobek_residual(r_arr, mult.lam)
    checks["dziobek"] = CheckResult(dz <= DZIOBEK_TOL, dz, DZIOBEK_TOL)

    spread = sigma_sq_spread(r_arr, masses, mult.lam)
    checks["sigma_sq_consistent"] = CheckResult(spread <= SIGMA_SQ_TOL, spread, SIGMA_SQ_TOL)

    k_ok = classify_cocircular(rec) == rec.is_cocircular
    checks["cocircular_consistent"] = CheckResult(
        k_ok, abs(rec.k_value), COCIRCULAR_TOL * max(rec.r_star.astuple()) ** 3)
    return CertReport(checks=checks)
