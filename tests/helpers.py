"""Shared generators for randomized tests, reference routes the tests
compare ccc4 against, and the environment for running ccc4 in a child
process."""

import math
import os
from pathlib import Path

import numpy as np

from ccc4 import kernels
from ccc4.chart import INTERIOR_MARGIN, P_FROM_VW, VWPoint, in_region_E, vw_to_p_array
from ccc4.geometry import (PAIR_SIGN, K_term, MassVector, Q_term, cayley_menger_H,
                           moment_I, potential_U, ptolemy_P, triangle_margins)
from ccc4.inverse import shape_to_distances
from ccc4.oracle import IdentityRow, circumradius, fd_gradient, sample_cyclic_shapes
from ccc4.serialize import format_float

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


def invariants_numpy(r, m):
    """(U, I, P, K, Q) of one distance vector by numpy expressions on a
    (6,) array: U and I as np.sum over the six slots, P, K and Q on the
    array's np.float64 entries.  Reference for the column expressions of
    ccc4.geometry."""
    arr = np.array(r, dtype=float)
    m1, m2, m3, m4 = (float(x) for x in m)
    products = np.array([m1 * m2, m1 * m3, m1 * m4, m2 * m3, m2 * m4, m3 * m4])
    r12, r13, r14, r23, r24, r34 = arr
    s12, s13, s14, s23, s24, s34 = (r12 * r12, r13 * r13, r14 * r14,
                                    r23 * r23, r24 * r24, r34 * r34)
    return (float(np.sum(products / arr, axis=-1)),
            float(np.sum(products * arr ** 2, axis=-1) / (2.0 * (m1 + m2 + m3 + m4))),
            float(r12 * r34 + r14 * r23 - r13 * r24),
            float(r12 * r13 * r23 - r12 * r14 * r24 + r13 * r14 * r34 - r23 * r24 * r34),
            float(r12 * r34 * (-s12 - s34 + s23 + s14 + s13 + s24)
                  + r14 * r23 * (s12 + s34 - s23 - s14 + s13 + s24)
                  - r13 * r24 * (s12 + s34 + s23 + s14 - s13 - s24)))


def sample_interior_one_draw_at_a_time(rng, max_draws=10**6):
    """Reference rejection sampler in numpy: one draw (v, w) of six normal
    variates per loop, folded by v1 -> |v1|, v3 -> |v3|, w2 -> |w2| and
    accepted by the tests of chart.sample_interior.  Returns (point,
    draws used)."""
    for draw in range(1, max_draws + 1):
        v = rng.normal(size=3)
        w = rng.normal(size=3)
        v[0], v[2], w[1] = abs(v[0]), abs(v[2]), abs(w[1])
        vw = VWPoint(v=v, w=w)
        if vw_to_p_array(vw.v, vw.w).min() > INTERIOR_MARGIN and in_region_E(vw):
            return vw, draw
    raise RuntimeError(f"no interior point found in {max_draws} draws")


def sample_interior_unfolded(n, seed):
    """n points of E by plain rejection from uniform S^2 x S^2, with the
    margin test of chart.sample_interior but no fold, as a (n, 6) array of
    (v, w) rows."""
    rng = np.random.default_rng(seed)
    rows = []
    count = 0
    while count < n:
        z = rng.normal(size=(100000, 2, 3))
        z /= np.linalg.norm(z, axis=2, keepdims=True)
        z = z.reshape(-1, 6)
        keep = z[(z @ P_FROM_VW.T).min(axis=1) > INTERIOR_MARGIN]
        rows.append(keep)
        count += len(keep)
    return np.concatenate(rows)[:n]


def descend_reference(v, w, u, gtol, max_iter):
    """Reference route of kernels.descend: the same projected-gradient
    descent written around kernels.potential, which returns p, U, the
    gradient and the Hessian diagonal at every trial point.  The flat loop
    must return the same six outputs bit for bit."""
    _normalize3, potential = kernels._normalize3, kernels.potential
    v1, v2, v3 = float(v[0]), float(v[1]), float(v[2])
    w1, w2, w3 = float(w[0]), float(w[1]), float(w[2])
    u = tuple(float(x) for x in u)

    v1, v2, v3 = _normalize3(v1, v2, v3)
    w1, w2, w3 = _normalize3(w1, w2, w3)

    res = potential((v1, v2, v3, w1, w2, w3), u)
    if res is None:
        return ([v1, v2, v3], [w1, w2, w3], math.inf, math.inf, 0, kernels.STALLED)
    _, U, g, _ = res

    pv1 = pv2 = pv3 = pw1 = pw2 = pw3 = 0.0
    pd1 = pd2 = pd3 = pe1 = pe2 = pe3 = 0.0
    have_prev = False

    status = kernels.MAXITER
    iters = 0
    rgnorm = math.inf
    while iters < max_iter:
        gv1, gv2, gv3, gw1, gw2, gw3 = g
        cv = gv1 * v1 + gv2 * v2 + gv3 * v3
        cw = gw1 * w1 + gw2 * w2 + gw3 * w3
        d1 = gv1 - cv * v1
        d2 = gv2 - cv * v2
        d3 = gv3 - cv * v3
        e1 = gw1 - cw * w1
        e2 = gw2 - cw * w2
        e3 = gw3 - cw * w3
        g2 = d1 * d1 + d2 * d2 + d3 * d3 + e1 * e1 + e2 * e2 + e3 * e3
        rgnorm = math.sqrt(g2)
        if rgnorm <= gtol * max(1.0, abs(U)):
            status = kernels.CONVERGED
            break

        if have_prev:
            s1 = v1 - pv1
            s2 = v2 - pv2
            s3 = v3 - pv3
            s4 = w1 - pw1
            s5 = w2 - pw2
            s6 = w3 - pw3
            y1 = d1 - pd1
            y2 = d2 - pd2
            y3 = d3 - pd3
            y4 = e1 - pe1
            y5 = e2 - pe2
            y6 = e3 - pe3
            ss = s1 * s1 + s2 * s2 + s3 * s3 + s4 * s4 + s5 * s5 + s6 * s6
            sy = s1 * y1 + s2 * y2 + s3 * y3 + s4 * y4 + s5 * y5 + s6 * y6
            if sy > 0.0:
                alpha = ss / sy
                if alpha < 1e-14:
                    alpha = 1e-14
                elif alpha > 1e4:
                    alpha = 1e4
            else:
                alpha = 1e-2
        else:
            alpha = 0.1 / (1.0 + rgnorm)

        pv1, pv2, pv3, pw1, pw2, pw3 = v1, v2, v3, w1, w2, w3
        pd1, pd2, pd3, pe1, pe2, pe3 = d1, d2, d3, e1, e2, e3
        have_prev = True

        accepted = False
        a = alpha
        for _ in range(kernels._MAX_BACKTRACK):
            t1, t2, t3 = _normalize3(v1 - a * d1, v2 - a * d2, v3 - a * d3)
            r1, r2, r3 = _normalize3(w1 - a * e1, w2 - a * e2, w3 - a * e3)
            trial = potential((t1, t2, t3, r1, r2, r3), u)
            if trial is not None and trial[1] <= U - kernels._ARMIJO * a * g2:
                accepted = True
                break
            a *= 0.5
        if not accepted:
            status = kernels.STALLED
            break
        v1, v2, v3, w1, w2, w3 = t1, t2, t3, r1, r2, r3
        _, U, g, _ = trial
        iters += 1

    return ([v1, v2, v3], [w1, w2, w3], U, rgnorm, iters, status)


def _tangent_basis(x):
    k = int(np.argmin(np.abs(x)))
    e = np.zeros(3)
    e[k] = 1.0
    b1 = e - x[k] * x
    b1 /= np.linalg.norm(b1)
    return np.column_stack([b1, np.cross(x, b1)])


def newton_step_numpy(v, w, u):
    """The projected Newton step of U on S^2 x S^2 at unit (v, w) by dense
    numpy algebra: solve (B^T H_z B - diag(cv, cv, cw, cw)) x = -B^T g_z in
    a tangent basis B, step = B x.

    Returns (step, bound): bound is eps ||Hred^-1|| (||g_z|| + (||H_z|| +
    |cv| + |cw|) ||step||), the first-order change of the step when g_z, H_z
    and the radial terms carry one rounding error each, so two correct
    solvers that round differently agree to a small multiple of it."""
    u = np.asarray(u, dtype=float)
    z = np.concatenate([v, w])
    p = P_FROM_VW @ z
    gz = P_FROM_VW.T @ (-u / p ** 2)
    Hz = (P_FROM_VW.T * (2.0 * u / p ** 3)) @ P_FROM_VW
    cv, cw = gz[:3] @ z[:3], gz[3:] @ z[3:]
    B = np.zeros((6, 4))
    B[:3, :2] = _tangent_basis(z[:3])
    B[3:, 2:] = _tangent_basis(z[3:])
    Hred = B.T @ Hz @ B - np.diag([cv, cv, cw, cw])
    step = B @ np.linalg.solve(Hred, -B.T @ gz)
    bound = np.finfo(float).eps * np.linalg.norm(np.linalg.inv(Hred), 2) * (
        np.linalg.norm(gz)
        + (np.linalg.norm(Hz, 2) + abs(cv) + abs(cw)) * np.linalg.norm(step))
    return step, bound


def lagrange_root_mp(masses, r, lam, sigma, dps=50):
    """Root of the 8 Lagrange equations of the constrained problem, found
    by mpmath.findroot at dps digits from the float guess (r, lam, sigma):
    the six stationarity equations

        m_i m_j (r_ij^-3 - lam) - sign_ij sigma r_kl / r_ij = 0,

    I = 1 and P = 0.  Returns the six distances as mpf."""
    import mpmath

    with mpmath.workdps(dps):
        m = [mpmath.mpf(x) for x in masses]
        M = sum(m)
        mm = [m[i] * m[j] for i, j in _PAIRS]

        def equations(*x):
            d, lam_, sigma_ = x[:6], x[6], x[7]
            out = [mm[k] * (d[k] ** -3 - lam_) - PAIR_SIGN[k] * sigma_ * d[5 - k] / d[k]
                   for k in range(6)]
            out.append(sum(mm[k] * d[k] ** 2 for k in range(6)) / (2 * M) - 1)
            out.append(d[0] * d[5] + d[2] * d[3] - d[1] * d[4])
            return out

        guess = [mpmath.mpf(float(x)) for x in r] + [mpmath.mpf(lam), mpmath.mpf(sigma)]
        root = mpmath.findroot(equations, guess)
        return [root[k] for k in range(6)]


def relative_distance_mp(r, root, dps=50):
    """max_k |r_k - root_k| / root_k for float r and mpf root, as a float."""
    import mpmath

    with mpmath.workdps(dps):
        return float(max(abs(float(x) - y) / y for x, y in zip(r, root)))


def identity_battery_one_sample_at_a_time(samples, seed):
    """Reference route of oracle.run_identity_battery: the same draws and
    residuals, evaluated one sample at a time on one-vector invariants, so
    the stacked battery must reproduce every row bit for bit."""
    rng = np.random.default_rng(seed)
    rows = []

    worst = 0.0
    for _ in range(samples):
        arr = rng.uniform(0.05, 10.0, 6)
        res = abs(0.5 * cayley_menger_H(arr)
                  - (ptolemy_P(arr) * Q_term(arr) - K_term(arr) ** 2))
        worst = max(worst, res / (1.0 + arr.max()) ** 8)
    rows.append(IdentityRow("pech_identity", samples, worst, 1e-9))

    sq = np.array([1.0, math.sqrt(2.0), 1.0, 1.0, math.sqrt(2.0), 1.0])
    ones = np.ones(6)
    rows.append(IdentityRow("pech_anchor_points", 2,
                            max(abs(Q_term(sq) - 8.0), abs(Q_term(ones) - 2.0)),
                            1e-12))

    n_shapes = max(100, samples // 10)
    worst_k = worst_h = worst_grad = worst_rc = 0.0
    for shape in sample_cyclic_shapes(n_shapes, seed + 1):
        arr = shape_to_distances(shape).array
        worst_k = max(worst_k, abs(K_term(arr)))
        worst_h = max(worst_h, abs(cayley_menger_H(arr)))
        q2 = 2.0 * Q_term(arr)
        grad_p = np.array([arr[5], -arr[4], arr[3], arr[2], -arr[1], arr[0]])
        fd_h = fd_gradient(cayley_menger_H, arr)
        worst_grad = max(worst_grad, float(np.max(
            np.abs(fd_h - q2 * grad_p) / np.abs(q2 * grad_p))))
        rc = circumradius(arr)
        worst_rc = max(worst_rc, abs(q2 - 4.0 / rc ** 2 * float(np.prod(arr))) / abs(q2))
    rows.append(IdentityRow("cyclic_K_vanishes", n_shapes, worst_k, 1e-10))
    rows.append(IdentityRow("cyclic_H_vanishes", n_shapes, worst_h, 1e-9))
    rows.append(IdentityRow("gradient_parallelism", n_shapes, worst_grad, 1e-6))
    rows.append(IdentityRow("circumradius_relation", n_shapes, worst_rc, 1e-9))

    n_hom = max(100, samples // 10)
    worst_hom = 0.0
    for _ in range(n_hom):
        arr = rng.uniform(0.2, 3.0, 6)
        masses = MassVector.from_iterable(rng.uniform(0.2, 5.0, 4))
        k = float(rng.uniform(0.1, 10.0))
        scaled = k * arr
        r12, r13, r14, r23, r24, r34 = arr
        scale_p = r12 * r34 + r14 * r23 + r13 * r24
        scale_k = (r12 * r13 * r23 + r12 * r14 * r24
                   + r13 * r14 * r34 + r23 * r24 * r34)
        scale_q = 6.0 * float(np.max(arr)) ** 4
        checks = [
            (potential_U(scaled, masses), potential_U(arr, masses) / k,
             potential_U(arr, masses) / k),
            (moment_I(scaled, masses), moment_I(arr, masses) * k ** 2,
             moment_I(arr, masses) * k ** 2),
            (ptolemy_P(scaled), ptolemy_P(arr) * k ** 2, scale_p * k ** 2),
            (K_term(scaled), K_term(arr) * k ** 3, scale_k * k ** 3),
            (Q_term(scaled), Q_term(arr) * k ** 4, scale_q * k ** 4),
        ]
        for got, want, scale in checks:
            worst_hom = max(worst_hom, abs(got - want) / (1e-12 * abs(scale)))
        res_h = abs(cayley_menger_H(scaled) - cayley_menger_H(arr) * k ** 6)
        worst_hom = max(worst_hom, res_h / (1e-9 * (1.0 + scaled.max()) ** 8))
    rows.append(IdentityRow("homogeneity_degrees", n_hom, worst_hom, 1.0))
    return rows


def recover_masses_numpy(r):
    """Reference route of inverse.recover_masses on numpy arrays: the same
    rounds, each re-deriving r^-3, the multipliers and the candidate masses
    from the distance array.  Returns (masses, lam, sigma, compat_residual,
    stationarity_residual, sigma_sq_spread, rounds), or raises as
    recover_masses raises."""
    from ccc4.errors import IndeterminateShapeError, InfeasibleShapeError
    from ccc4.geometry import OPPOSITE_SLOT
    from ccc4.inverse import COMPAT_TOL, MAX_ROUNDS
    from ccc4.solver import recover_multipliers

    def dziobek(arr):
        n12, n13, n14, n23, n24, n34 = n = arr ** -3
        scale = float(np.max(n))

        def solve_pair(a, b, c, d):
            den = (a + b) - (c + d)
            if abs(den) <= 1e-13 * scale:
                raise IndeterminateShapeError("coincide")
            return (a * b - c * d) / den

        lam_a = solve_pair(n12, n34, n13, n24)
        lam_b = solve_pair(n14, n23, n13, n24)
        return lam_a, lam_b, abs(lam_a - lam_b)

    def candidates(arr, lam):
        n = arr ** -3
        den = n - lam
        if np.any(np.abs(den) <= 1e-12 * np.abs(n)):
            raise IndeterminateShapeError("unbounded")
        c = np.asarray(PAIR_SIGN) * (arr[list(OPPOSITE_SLOT)] / arr) / den
        signs = np.sign(c)
        if signs.min() != signs.max():
            raise InfeasibleShapeError("mixed signs")
        d = c * signs[0]
        return np.array([math.sqrt(d[0] * d[1] / d[3]), math.sqrt(d[0] * d[3] / d[1]),
                         math.sqrt(d[1] * d[3] / d[0]), math.sqrt(d[2] * d[4] / d[0])])

    arr = np.array(r, dtype=float)
    masses = None
    for rounds in range(1, MAX_ROUNDS + 1):
        lam_a, lam_b, compat = dziobek(arr)
        try:
            cand = candidates(arr, 0.5 * (lam_a + lam_b))
        except InfeasibleShapeError:
            if compat > 1e-9 * float(np.max(arr ** -3)):
                raise InfeasibleShapeError("disagree", compat)
            raise
        cand *= 4.0 / cand.sum()
        if masses is not None and np.max(np.abs(cand - masses)) <= 1e-14:
            masses = cand
            break
        masses = cand
        arr = arr / math.sqrt(moment_I(arr, MassVector.from_iterable(masses)))
    lam_a, lam_b, compat = dziobek(arr)
    if compat > COMPAT_TOL:
        raise InfeasibleShapeError("disagree", compat)
    if 0.5 * (lam_a + lam_b) <= 0.0:
        raise InfeasibleShapeError("not positive", 0.5 * (lam_a + lam_b))
    mv = MassVector.from_iterable(masses)
    mult = recover_multipliers(arr, mv)
    r12, r13, r14, r23, r24, r34 = arr
    lam = mult.lam
    prod = float(np.prod(mv.array))
    s2 = np.array([prod * (r12 ** -3 - lam) * (r34 ** -3 - lam),
                   prod * (r14 ** -3 - lam) * (r23 ** -3 - lam),
                   prod * (r13 ** -3 - lam) * (r24 ** -3 - lam)])
    spread = float((s2.max() - s2.min()) / max(np.abs(s2).max(), 1e-300))
    return (mv.astuple(), mult.lam, mult.sigma, float(compat),
            mult.stationarity_residual, spread, rounds)


def cyclic_draws_dirichlet(n, seed, min_gap, radius_range):
    """Reference route of oracle._cyclic_draws: one rng.dirichlet(ones(4))
    and one rng.uniform per shape, in numpy.  Yields (angles, radius)."""
    rng = np.random.default_rng(seed)
    alpha = np.ones(4)
    for _ in range(n):
        g1, g2, g3, _ = (min_gap + rng.dirichlet(alpha)
                         * (2.0 * math.pi - 4.0 * min_gap)).tolist()
        yield (0.0, g1, g1 + g2, g1 + g2 + g3), float(rng.uniform(*radius_range))


def dumps_reference(obj):
    """Reference route of serialize.dumps: each container joins the texts
    of its items, which are built recursively."""
    return _emit_reference(obj, 0) + "\n"


def _emit_reference(obj, level):
    pad = "  " * level
    inner = "  " * (level + 1)
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{out}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = (f'{inner}"{k}": {_emit_reference(v, level + 1)}' for k, v in obj.items())
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = (f"{inner}{_emit_reference(v, level + 1)}" for v in obj)
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")
