"""Scalar kernels: the potential with its derivatives, the descent loop
and the projected Newton step.

Plain float scalars keep the inner loops reasonably fast in pure python.
The objective in chart coordinates is

    U(v, w) = sum_k u_k / p_k,   p = halved sums/differences of (v, w),

with u_k = (m_i m_j)^{3/2} / sqrt(2M), minimized over the product of unit
spheres by projected-gradient steps (Barzilai-Borwein trial step, Armijo
backtracking, renormalization retraction) and then by Newton steps on the
reduced 4x4 system (see solver._newton_polish).  Steps that would cross
the boundary p_k <= 0 are rejected, which is all the region handling the
problem needs: the potential blows up there.

`potential` returns U with its gradient and Hessian diagonal, which the
Newton steps use.  `descend` writes the same expressions out in one flat
loop instead: most of its work is line-search trials, which need only p
and U, so it computes the gradient only at accepted points.

`descend_lanes` runs many descents at once.  From LANES_MIN lanes up it
steps them together on numpy rows, each expression in descend's order and
built only from + - * / sqrt and comparisons, which numpy rounds as Python
floats do; so every lane ends with descend's bits, and the loop raises
where descend divides by zero.
"""

import math

import numpy as np

CONVERGED = 0
MAXITER = 1
STALLED = 2

_ARMIJO = 1e-4
_MAX_BACKTRACK = 40


def _normalize3(x1, x2, x3):
    n = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    return x1 / n, x2 / n, x3 / n


def potential(z, u):
    """U and its first two derivatives at z = (v1, v2, v3, w1, w2, w3).

    u holds the six coefficients as Python floats.  Returns None outside
    the feasible region min p_k > 0, else (p, U, g, h): p the six halved
    sums/differences, g the Euclidean gradient of U with respect to
    (v1, v2, v3, w1, w2, w3), and h_k = 2 u_k / p_k^3 the Hessian of U in
    p, which is diagonal because U is a sum of one-variable terms.
    """
    v1, v2, v3, w1, w2, w3 = z
    u1, u2, u3, u4, u5, u6 = u
    p1 = 0.5 * (v1 + w1)
    p2 = 0.5 * (v2 + w2)
    p3 = 0.5 * (v3 + w3)
    p4 = 0.5 * (v3 - w3)
    p5 = 0.5 * (w2 - v2)
    p6 = 0.5 * (v1 - w1)
    if not (p1 > 0.0 and p2 > 0.0 and p3 > 0.0 and p4 > 0.0 and p5 > 0.0 and p6 > 0.0):
        return None
    U = u1 / p1 + u2 / p2 + u3 / p3 + u4 / p4 + u5 / p5 + u6 / p6
    q1 = -u1 / (p1 * p1)
    q2 = -u2 / (p2 * p2)
    q3 = -u3 / (p3 * p3)
    q4 = -u4 / (p4 * p4)
    q5 = -u5 / (p5 * p5)
    q6 = -u6 / (p6 * p6)
    return ((p1, p2, p3, p4, p5, p6), U,
            (0.5 * (q1 + q6), 0.5 * (q2 - q5), 0.5 * (q3 + q4),
             0.5 * (q1 - q6), 0.5 * (q2 + q5), 0.5 * (q3 - q4)),
            (-2.0 * q1 / p1, -2.0 * q2 / p2, -2.0 * q3 / p3,
             -2.0 * q4 / p4, -2.0 * q5 / p5, -2.0 * q6 / p6))


def tangent_gradient(z, g):
    """(cv, cw, rg): the radial components cv = g_v . v and cw = g_w . w of
    the gradient g at the point z of S^2 x S^2, and the norm rg of its
    projection onto the tangent space."""
    v1, v2, v3, w1, w2, w3 = z
    gv1, gv2, gv3, gw1, gw2, gw3 = g
    cv = gv1 * v1 + gv2 * v2 + gv3 * v3
    cw = gw1 * w1 + gw2 * w2 + gw3 * w3
    d1 = gv1 - cv * v1
    d2 = gv2 - cv * v2
    d3 = gv3 - cv * v3
    e1 = gw1 - cw * w1
    e2 = gw2 - cw * w2
    e3 = gw3 - cw * w3
    return cv, cw, math.sqrt(d1 * d1 + d2 * d2 + d3 * d3 + e1 * e1 + e2 * e2 + e3 * e3)


def _tangent_pair(x1, x2, x3):
    # orthonormal basis (a, b) of the tangent plane at the unit vector x:
    # a from the axis least aligned with x, b = x cross a
    if abs(x1) <= abs(x2) and abs(x1) <= abs(x3):
        a1, a2, a3 = _normalize3(1.0 - x1 * x1, -x1 * x2, -x1 * x3)
    elif abs(x2) <= abs(x3):
        a1, a2, a3 = _normalize3(-x2 * x1, 1.0 - x2 * x2, -x2 * x3)
    else:
        a1, a2, a3 = _normalize3(-x3 * x1, -x3 * x2, 1.0 - x3 * x3)
    return (a1, a2, a3,
            x2 * a3 - x3 * a2, x3 * a1 - x1 * a3, x1 * a2 - x2 * a1)


def newton_step(z, g, h, cv, cw):
    """Newton step of U restricted to S^2 x S^2 at z, as a vector of R^6
    tangent to both spheres; g and h come from potential(z) and cv, cw from
    tangent_gradient(z, g).

    The Riemannian Hessian, H_z - cv I on the v sphere and H_z - cw I on
    the w sphere with H_z = P^T diag(h) P, is reduced to a 4x4 system in
    two tangent bases and solved by Cholesky.  Returns None when a pivot is
    not positive: the reduced Hessian is not positive definite there.
    """
    v1, v2, v3, w1, w2, w3 = z
    gv1, gv2, gv3, gw1, gw2, gw3 = g
    h1, h2, h3, h4, h5, h6 = h
    # H_z couples v_i only with itself and w_i: H_z = [[S, T], [T, S]] with
    # diagonal blocks S = diag(s) and T = diag(t)
    s1 = 0.25 * (h1 + h6)
    s2 = 0.25 * (h2 + h5)
    s3 = 0.25 * (h3 + h4)
    t1 = 0.25 * (h1 - h6)
    t2 = 0.25 * (h2 - h5)
    t3 = 0.25 * (h3 - h4)
    a1, a2, a3, b1, b2, b3 = _tangent_pair(v1, v2, v3)
    c1, c2, c3, d1, d2, d3 = _tangent_pair(w1, w2, w3)
    # reduced Hessian H and gradient f in the basis (a, b | c, d)
    H11 = s1 * a1 * a1 + s2 * a2 * a2 + s3 * a3 * a3 - cv
    H21 = s1 * b1 * a1 + s2 * b2 * a2 + s3 * b3 * a3
    H22 = s1 * b1 * b1 + s2 * b2 * b2 + s3 * b3 * b3 - cv
    H31 = t1 * c1 * a1 + t2 * c2 * a2 + t3 * c3 * a3
    H32 = t1 * c1 * b1 + t2 * c2 * b2 + t3 * c3 * b3
    H33 = s1 * c1 * c1 + s2 * c2 * c2 + s3 * c3 * c3 - cw
    H41 = t1 * d1 * a1 + t2 * d2 * a2 + t3 * d3 * a3
    H42 = t1 * d1 * b1 + t2 * d2 * b2 + t3 * d3 * b3
    H43 = s1 * d1 * c1 + s2 * d2 * c2 + s3 * d3 * c3
    H44 = s1 * d1 * d1 + s2 * d2 * d2 + s3 * d3 * d3 - cw
    f1 = a1 * gv1 + a2 * gv2 + a3 * gv3
    f2 = b1 * gv1 + b2 * gv2 + b3 * gv3
    f3 = c1 * gw1 + c2 * gw2 + c3 * gw3
    f4 = d1 * gw1 + d2 * gw2 + d3 * gw3
    # H = L L^T; "not x > 0" also rejects a nan pivot
    if not H11 > 0.0:
        return None
    L11 = math.sqrt(H11)
    L21 = H21 / L11
    L31 = H31 / L11
    L41 = H41 / L11
    x = H22 - L21 * L21
    if not x > 0.0:
        return None
    L22 = math.sqrt(x)
    L32 = (H32 - L31 * L21) / L22
    L42 = (H42 - L41 * L21) / L22
    x = H33 - L31 * L31 - L32 * L32
    if not x > 0.0:
        return None
    L33 = math.sqrt(x)
    L43 = (H43 - L41 * L31 - L42 * L32) / L33
    x = H44 - L41 * L41 - L42 * L42 - L43 * L43
    if not x > 0.0:
        return None
    L44 = math.sqrt(x)
    # L y = -f, then L^T x = y
    y1 = -f1 / L11
    y2 = (-f2 - L21 * y1) / L22
    y3 = (-f3 - L31 * y1 - L32 * y2) / L33
    y4 = (-f4 - L41 * y1 - L42 * y2 - L43 * y3) / L44
    x4 = y4 / L44
    x3 = (y3 - L43 * x4) / L33
    x2 = (y2 - L32 * x3 - L42 * x4) / L22
    x1 = (y1 - L21 * x2 - L31 * x3 - L41 * x4) / L11
    return (x1 * a1 + x2 * b1, x1 * a2 + x2 * b2, x1 * a3 + x2 * b3,
            x3 * c1 + x4 * d1, x3 * c2 + x4 * d2, x3 * c3 + x4 * d3)


def retract(z, step, t):
    """The point z + t step, each triple renormalized onto its sphere."""
    v1, v2, v3, w1, w2, w3 = z
    s1, s2, s3, s4, s5, s6 = step
    return (_normalize3(v1 + t * s1, v2 + t * s2, v3 + t * s3)
            + _normalize3(w1 + t * s4, w2 + t * s5, w3 + t * s6))


def descend(v, w, u, gtol, max_iter):
    """Minimize U over S^2 x S^2 from (v, w).

    Returns (v, w, U, rgnorm, iters, status); status is CONVERGED once the
    projected-gradient norm is <= gtol * max(1, |U|), MAXITER at the
    iteration cap, STALLED if the line search cannot make progress.

    One flat loop: the renormalization and the potential are written out in
    the order of _normalize3 and potential, so every iterate has their
    bits, but a trial step computes only p and U, and the gradient is
    computed once a trial passes the Armijo test.
    """
    u1, u2, u3, u4, u5, u6 = (float(x) for x in u)

    x1, x2, x3 = float(v[0]), float(v[1]), float(v[2])
    n = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    v1, v2, v3 = x1 / n, x2 / n, x3 / n
    x1, x2, x3 = float(w[0]), float(w[1]), float(w[2])
    n = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    w1, w2, w3 = x1 / n, x2 / n, x3 / n

    p1 = 0.5 * (v1 + w1)
    p2 = 0.5 * (v2 + w2)
    p3 = 0.5 * (v3 + w3)
    p4 = 0.5 * (v3 - w3)
    p5 = 0.5 * (w2 - v2)
    p6 = 0.5 * (v1 - w1)
    if not (p1 > 0.0 and p2 > 0.0 and p3 > 0.0 and p4 > 0.0 and p5 > 0.0 and p6 > 0.0):
        return ([v1, v2, v3], [w1, w2, w3], math.inf, math.inf, 0, STALLED)
    U = u1 / p1 + u2 / p2 + u3 / p3 + u4 / p4 + u5 / p5 + u6 / p6

    # previous point and projected gradient, for the BB step
    pv1 = pv2 = pv3 = pw1 = pw2 = pw3 = 0.0
    pd1 = pd2 = pd3 = pe1 = pe2 = pe3 = 0.0
    have_prev = False

    status = MAXITER
    iters = 0
    rgnorm = math.inf
    while iters < max_iter:
        # the gradient at the current point, as potential computes it
        q1 = -u1 / (p1 * p1)
        q2 = -u2 / (p2 * p2)
        q3 = -u3 / (p3 * p3)
        q4 = -u4 / (p4 * p4)
        q5 = -u5 / (p5 * p5)
        q6 = -u6 / (p6 * p6)
        gv1 = 0.5 * (q1 + q6)
        gv2 = 0.5 * (q2 - q5)
        gv3 = 0.5 * (q3 + q4)
        gw1 = 0.5 * (q1 - q6)
        gw2 = 0.5 * (q2 + q5)
        gw3 = 0.5 * (q3 - q4)
        # project onto the tangent spaces of the two spheres
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
            status = CONVERGED
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

        # Armijo backtracking; a trial point gets p and U only
        a = alpha
        for _ in range(_MAX_BACKTRACK):
            x1, x2, x3 = v1 - a * d1, v2 - a * d2, v3 - a * d3
            n = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
            t1, t2, t3 = x1 / n, x2 / n, x3 / n
            x1, x2, x3 = w1 - a * e1, w2 - a * e2, w3 - a * e3
            n = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
            r1, r2, r3 = x1 / n, x2 / n, x3 / n
            p1 = 0.5 * (t1 + r1)
            p2 = 0.5 * (t2 + r2)
            p3 = 0.5 * (t3 + r3)
            p4 = 0.5 * (t3 - r3)
            p5 = 0.5 * (r2 - t2)
            p6 = 0.5 * (t1 - r1)
            if p1 > 0.0 and p2 > 0.0 and p3 > 0.0 and p4 > 0.0 and p5 > 0.0 and p6 > 0.0:
                Ut = u1 / p1 + u2 / p2 + u3 / p3 + u4 / p4 + u5 / p5 + u6 / p6
                if Ut <= U - _ARMIJO * a * g2:
                    break
            a *= 0.5
        else:
            status = STALLED
            break
        v1, v2, v3, w1, w2, w3 = t1, t2, t3, r1, r2, r3
        U = Ut
        iters += 1

    return ([v1, v2, v3], [w1, w2, w3], U, rgnorm, iters, status)


# Lanes from which descend_lanes steps them together, and below which the
# lanes still running go back to descend.  A lockstep iteration costs about
# 85 us plus 0.25 us a lane against 3-5 us for one of descend.  Least of 20
# interleaved runs on a 2-vCPU host, descend per lane against LANES_MIN 24:
# 50 seeded starts 2.04 vs 2.03 ms, the 64 starts of scan --grid 2 2.42 vs
# 2.33 ms, the 512 of --grid 4 19.8 vs 4.6 ms.  At 32 the 50 starts took
# 2.34 ms, at 48 2.9 ms: once fewer than LANES_MIN lanes run, descend runs
# them again from their starts.
LANES_MIN = 24

# p_k = 0.5 * (z[i] + s * z[j]) with i = _P_INDEX[k], j = _P_INDEX[6 + k] and
# s = _P_SIGN[k] for z = (v, w), and in the same pattern the gradient from
# q_k = -u_k / p_k^2; x + (-y) rounds as x - y
_P_INDEX = np.array([0, 1, 2, 2, 4, 0, 3, 4, 5, 5, 1, 3])
_P_SIGN = np.array([[1.0], [1.0], [1.0], [-1.0], [-1.0], [-1.0]])
_G_INDEX = np.array([0, 1, 2, 0, 1, 2, 5, 4, 3, 5, 4, 3])
_G_SIGN = np.array([[1.0], [-1.0], [1.0], [-1.0], [1.0], [-1.0]])


def _halved(x, index, sign):
    ab = x.take(index, axis=0)
    ab[6:] *= sign
    out = ab[:6] + ab[6:]
    out *= 0.5
    return out


def _sum6(x):
    # the six rows of x added left to right, as descend adds its six terms
    out = x[0] + x[1]
    out += x[2]
    out += x[3]
    out += x[4]
    out += x[5]
    return out


def _unit_pairs(x):
    """Each triple of the (6, n) rows x divided by its norm, the norm taken
    as _normalize3 takes it; raises where a norm is zero, as a Python float
    division does."""
    x = x.reshape(2, 3, -1)
    xx = x * x
    n = xx[:, 0] + xx[:, 1]
    n += xx[:, 2]
    n = np.sqrt(n)
    if not n.all():
        raise ZeroDivisionError("float division by zero")
    return (x / n[:, None]).reshape(6, -1)


def descend_lanes(starts, us, gtol, max_iter):
    """descend(v, w, u, gtol, max_iter) for every lane, with starts[i] =
    (v, w) and us[i] = u; returns the list of their 6-tuples.

    Below LANES_MIN lanes this calls descend once per lane.  From LANES_MIN
    on it runs descend's loop on all lanes together, retiring each lane
    once it converges, stalls or reaches max_iter; once fewer than
    LANES_MIN lanes remain, descend runs those again from their starts.
    descend is looked up at each call, so a wrapper set on the module sees
    every call."""
    if len(starts) < LANES_MIN:
        return [descend(v, w, u, gtol, max_iter) for (v, w), u in zip(starts, us)]
    # Python floats raise on nothing but a division by zero, which the lane
    # loop checks for and raises as descend does; it ignores numpy's
    # floating-point flags as descend's arithmetic sets none
    with np.errstate(all="ignore"):
        return _lockstep(starts, us, gtol, max_iter)


def _lockstep(starts, us, gtol, max_iter):
    """The lane loop of descend_lanes.  The state of the running lanes,
    which have all made the same number of iterations, is kept in (6, n)
    and (n,) arrays; zd stacks the point z = (v, w) on its projected
    gradient d, as the BB step needs both at the previous point."""
    count = len(starts)
    z = _unit_pairs(np.array([(*v, *w) for v, w in starts], dtype=float).T)
    u = np.array(us, dtype=float).T
    p = _halved(z, _P_INDEX, _P_SIGN)

    out_z = z.copy()
    out_U = np.full(count, math.inf)
    out_rg = np.full(count, math.inf)
    out_iters = np.zeros(count, dtype=int)
    out_status = np.full(count, STALLED)

    # a start outside E stops at once with U = inf
    lane = np.flatnonzero((p > 0.0).all(axis=0))
    z, p, u = z.take(lane, axis=1), p.take(lane, axis=1), u.take(lane, axis=1)
    U = _sum6(u / p)
    rg = np.full(lane.size, math.inf)
    zd_prev = None

    def retire(mask, status, iters, *more):
        # record the lanes of mask, drop them from the state and return the
        # arrays of more without them
        nonlocal z, p, U, u, rg, lane, zd_prev
        done = lane[mask]
        out_z[:, done] = z[:, mask]
        out_U[done] = U[mask]
        out_rg[done] = rg[mask]
        out_iters[done] = iters
        out_status[done] = status
        keep = np.flatnonzero(~mask)
        z, p, u = z.take(keep, axis=1), p.take(keep, axis=1), u.take(keep, axis=1)
        U, rg, lane = U.take(keep), rg.take(keep), lane.take(keep)
        if zd_prev is not None:
            zd_prev = zd_prev.take(keep, axis=1)
        return [x.take(keep, axis=-1) for x in more]

    iters = 0
    while lane.size >= LANES_MIN:
        if iters >= max_iter:
            retire(np.ones(lane.size, dtype=bool), MAXITER, iters)
            break
        # the gradient at the current points, projected onto the spheres
        pp = p * p
        if not pp.all():
            raise ZeroDivisionError("float division by zero")
        g = _halved(-u / pp, _G_INDEX, _G_SIGN).reshape(2, 3, -1)
        z3 = z.reshape(2, 3, -1)
        gz = g * z3
        c = gz[:, 0] + gz[:, 1]
        c += gz[:, 2]
        zd = np.concatenate((z, (g - c[:, None] * z3).reshape(6, -1)))
        g2 = _sum6(zd[6:] * zd[6:])
        rg = np.sqrt(g2)
        # fmax, as max(1.0, x), gives 1.0 for x = NaN
        converged = rg <= gtol * np.fmax(np.abs(U), 1.0)
        if converged.any():
            zd, g2 = retire(converged, CONVERGED, iters, zd, g2)
            if lane.size < LANES_MIN:
                break
        d = zd[6:]

        if zd_prev is None:
            alpha = 0.1 / (1.0 + rg)
        else:
            # the steps s of z and y of d since the previous point
            sy = zd - zd_prev
            ss, sy = _sum6((sy[:6] * sy.reshape(2, 6, -1)).swapaxes(0, 1))
            alpha = np.where(sy > 0.0, np.minimum(np.maximum(ss / sy, 1e-14), 1e4), 1e-2)
        zd_prev = zd

        # Armijo backtracking, per lane: lanes whose trial fails try again
        # at half the step
        t = _unit_pairs(z - alpha * d)
        pt = _halved(t, _P_INDEX, _P_SIGN)
        Ut = _sum6(u / pt)
        ok = (pt > 0.0).all(axis=0) & (Ut <= U - _ARMIJO * alpha * g2)
        trying = np.flatnonzero(~ok)
        a = alpha[trying]
        for _ in range(_MAX_BACKTRACK - 1):
            if not trying.size:
                break
            a = a * 0.5
            tt = _unit_pairs(z[:, trying] - a * d[:, trying])
            ptt = _halved(tt, _P_INDEX, _P_SIGN)
            Utt = _sum6(u[:, trying] / ptt)
            ok = (ptt > 0.0).all(axis=0) & (Utt <= U[trying] - _ARMIJO * a * g2[trying])
            hit = trying[ok]
            t[:, hit], pt[:, hit], Ut[hit] = tt[:, ok], ptt[:, ok], Utt[ok]
            trying, a = trying[~ok], a[~ok]
        if trying.size:
            stalled = np.zeros(lane.size, dtype=bool)
            stalled[trying] = True
            t, pt, Ut = retire(stalled, STALLED, iters, t, pt, Ut)
        z, p, U = t, pt, Ut
        iters += 1

    results = [(zi[:3], zi[3:], Ui, rgi, it, st)
               for zi, Ui, rgi, it, st in zip(out_z.T.tolist(), out_U.tolist(),
                                              out_rg.tolist(), out_iters.tolist(),
                                              out_status.tolist())]
    # the lanes still running when fewer than LANES_MIN were left
    for i in lane.tolist():
        v, w = starts[i]
        results[i] = descend(v, w, us[i], gtol, max_iter)
    return results
