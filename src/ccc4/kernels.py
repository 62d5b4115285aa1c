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
"""

import math

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
