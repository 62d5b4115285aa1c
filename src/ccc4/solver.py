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
from .errors import IndeterminateShapeError, UniquenessAlarmError
from .geometry import (DistanceVector, K_term, MassVector, OPPOSITE_SLOT, PAIR_SIGN,
                       ScalarReport, _admissible_slots, _canonical, _fpow, _m,
                       _mass_cols, _r6, moment_I, potential_U, ptolemy_P)

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

# Descents run together, so that a scan's memory does not grow with the
# grid: a block and its results take about 1.5 kB a lane.  On the
# 13824 starts of scan --grid 12, blocks of 2048 descended at 8.1 us a
# lane, 1024 and 4096 at 8.5 us, 512 at 12.0 us and 16384 at 9.6 us.
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


def recover_multipliers(r, m) -> Multipliers:
    """Best (lambda, sigma) for the stationarity equations, by 6x2 least
    squares, together with the relative residual norm."""
    A, b = _stationarity_system(r, _m(m))
    sol, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < 2:
        raise IndeterminateShapeError(
            "stationarity system is rank-deficient at this distance vector")
    lam, sigma = float(sol[0]), float(sol[1])
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

def _u_coefficients(masses: MassVector) -> tuple:
    # U(p) = sum u_k / p_k with r = sqrt(2M / m_i m_j) p
    return tuple((masses.products() ** 1.5 / math.sqrt(2.0 * masses.M)).tolist())


def _newton_polish(v, w, u, gtol):
    """Projected Newton on S^2 x S^2, at most MAX_NEWTON steps; quadratic
    near the nondegenerate minimum.  u is a tuple of floats.  Returns (v,
    w, U, rgnorm, iters, converged)."""
    z = (*v, *w)
    res = kernels.potential(z, u)
    for nit in range(MAX_NEWTON + 1):
        if res is None:
            return z[:3], z[3:], math.inf, math.inf, nit, False
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


class _Endpoint(NamedTuple):
    v: tuple
    w: tuple
    U: float
    iterations: int
    r: DistanceVector | None     # None unless the endpoint was accepted


def _multistarts(masses_list, starts, gtol: float):
    """For each mass vector, in order, the solve from every start, by
    descent and then Newton: (u, endpoints, clusters) with u =
    _u_coefficients(masses) and the endpoints and clusters of _endpoints.
    The starts of SCAN_BLOCK_LANES // len(starts) mass vectors at a time
    (at least one) are descended together by kernels.descend_lanes.  The
    starts are only read."""
    pairs = [(s.v.tolist(), s.w.tolist()) for s in starts]
    rows = max(1, SCAN_BLOCK_LANES // len(pairs))
    for first in range(0, len(masses_list), rows):
        block = masses_list[first:first + rows]
        us = [_u_coefficients(masses) for masses in block]
        descents = kernels.descend_lanes(pairs * len(block),
                                         [u for u in us for _ in pairs],
                                         NEWTON_SWITCH, MAX_ITER)
        for i, (masses, u) in enumerate(zip(block, us)):
            own = descents[i * len(pairs):(i + 1) * len(pairs)]
            yield (u, *_endpoints(masses, u, own, gtol))


def _endpoints(masses: MassVector, u: tuple, descents, gtol: float):
    """Newton from each descent endpoint, a 6-tuple of kernels.descend;
    accept an endpoint when both converged and |sum p^2 - 1|,
    |p12 p34 + p14 p23 - p13 p24| <= CONSTRAINT_TOL (chart units, free of
    the mass scale); cluster accepted endpoints, up to admissible
    relabelings, within CLUSTER_TOL times the largest distance of each
    cluster's representative.  Returns one _Endpoint per descent and
    (canonical representative, member indices) per cluster, the
    representative as a tuple of floats.  The bookkeeping is done in
    Python floats."""
    relabelings = _admissible_slots(masses)
    endpoints, clusters = [], []
    for index, (v, w, U, _, iters, _) in enumerate(descents):
        ok = math.isfinite(U)
        if ok:
            v, w, U, _, nit, ok = _newton_polish(v, w, u, gtol)
            iters += nit
        else:
            U = math.inf            # a start outside E
        r = None
        if ok:
            p = vw_to_p_floats(v, w)
            p12, p13, p14, p23, p24, p34 = p
            if (abs(p12 * p12 + p13 * p13 + p14 * p14 + p23 * p23 + p24 * p24
                    + p34 * p34 - 1.0) <= CONSTRAINT_TOL
                    and abs(p12 * p34 + p14 * p23 - p13 * p24) <= CONSTRAINT_TOL):
                r = p_to_r(p, masses)
        endpoints.append(_Endpoint(v, w, U, iters, r))
        if r is None:
            continue
        canon = _canonical(r.astuple(), relabelings)
        for rep, members in clusters:
            if math.dist(canon, rep) <= CLUSTER_TOL * max(rep):
                members.append(index)
                break
        else:
            clusters.append((canon, [index]))
    return endpoints, clusters


def _record_from_point(v, w, masses: MassVector, iterations: int,
                       converged: bool, meta: dict) -> SolveRecord:
    r_star = p_to_r(vw_to_p_floats(v, w), masses)
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
    _multistarts; there is exactly one minimizer), otherwise
    UniquenessAlarmError is raised.  The record is built from the accepted
    endpoint of lowest U, polished to full precision by _polish_record; if
    no endpoint is accepted, the best iterate is returned with
    converged=False.
    """
    masses = _m(m)
    opts = opts or SolverOptions()
    row, = _multistarts([masses], _draw_starts(opts), opts.gtol)
    v, w, iterations, converged = _polished_endpoint(masses, *row)
    meta = {"schema": RECORD_SCHEMA, "rng": RNG_NAME,
            "seed": opts.seed, "starts": opts.starts}
    return _record_from_point(v, w, masses, iterations, converged, meta)


def _polished_endpoint(masses: MassVector, u: tuple, endpoints, clusters):
    """The point a record of minimize_U is built from, given the endpoints
    and clusters of its multistart: (v, w, iterations, converged), v and w
    triples of floats.  Raises UniquenessAlarmError when the accepted
    endpoints form more than one cluster; polishes the accepted endpoint of
    lowest U by _polish_record, or returns the best iterate with converged
    False if no endpoint is accepted."""
    if len(clusters) > 1:
        gap = float(np.linalg.norm(np.subtract(clusters[1][0], clusters[0][0])))
        raise UniquenessAlarmError(
            f"multistart endpoints form {len(clusters)} clusters, the first two "
            f"{gap:.3e} apart in r-space (> {CLUSTER_TOL:g} x max r); this "
            "contradicts uniqueness of the minimizer and indicates a solver bug")

    accepted = [e for e in endpoints if e.r is not None]
    best = min(accepted or endpoints, key=lambda e: e.U)
    v, w, iterations = best.v, best.w, best.iterations
    if accepted:
        v, w, steps = _polish_record(v, w, u)
        iterations += steps
    return v, w, iterations, bool(accepted)


class _RowValues(NamedTuple):
    """The fields of a solve record that a scan row prints; K, U and lambda
    are None when the solve did not converge."""

    k_value: float | None
    U: float | None
    lam: float | None
    is_cocircular: bool
    iterations: int
    converged: bool


def _scan_values(masses_list, opts: SolverOptions, starts):
    """For each mass vector, the row fields of the record minimize_U(masses,
    opts) builds, in order, from starts drawn once by _draw_starts(opts)
    and only read.  The rows share one _multistarts, which descends the
    starts of many rows together; each row's fields come from the same
    polished endpoint by the functions the record uses, without the rest
    of the record."""
    for masses, row in zip(masses_list, _multistarts(masses_list, starts, opts.gtol)):
        v, w, iterations, converged = _polished_endpoint(masses, *row)
        if not converged:
            yield _RowValues(None, None, None, False, iterations, False)
            continue
        r = p_to_r(vw_to_p_floats(v, w), masses)
        k = K_term(r)
        yield _RowValues(k, potential_U(r, masses), recover_multipliers(r, masses).lam,
                         _cocircular(k, r.astuple()), iterations, True)


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
