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
and U, so it computes the gradient only at accepted points.  The loop is
`descend_from`, which starts from a given state: the point, the previous
point and projected gradient (none before the first step) and the
iteration count; `descend` normalizes its start and calls it.

`descend_lanes` runs many descents at once, on (6, n) rows of starts and
coefficients, for any n.  It steps them together on numpy rows, each
expression in descend's order and built only from + - * / sqrt and
comparisons, which numpy rounds as Python floats do; so every lane ends
with descend's bits, and the loop raises where descend divides by zero.
Once fewer than LANES_MIN lanes are still running, descend_from goes on
with each of them from its state in the lanes, so no iteration is made
twice.  Whether a block of solves runs on lanes at all is decided once,
in solver._multistart_blocks: a block below LANES_MIN lanes runs descend
and the scalar Newton steps one lane at a time instead.

The Newton steps that polish the descents' endpoints run on lanes too.
potential_lanes, tangent_gradient_lanes, newton_step_lanes and
retract_lanes are potential, tangent_gradient, newton_step and retract on
(6, n) rows, in the scalar order; where the scalar code returns None or
branches, a lane form returns a mask or takes the branch per lane, and its
callers, solver._newton_polish_lanes and solver._polish_record_lanes, keep
a lane only as long as the scalar loop goes on.  Every lane ends with the
scalar bits, and the lane forms raise where the scalar code divides by
zero.
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

    One flat loop, descend_from's: the renormalization and the potential
    are written out in the order of _normalize3 and potential, so every
    iterate has their bits, but a trial step computes only p and U, and the
    gradient is computed once a trial passes the Armijo test.
    """
    x1, x2, x3 = float(v[0]), float(v[1]), float(v[2])
    n = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    v1, v2, v3 = x1 / n, x2 / n, x3 / n
    x1, x2, x3 = float(w[0]), float(w[1]), float(w[2])
    n = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    return descend_from((v1, v2, v3, x1 / n, x2 / n, x3 / n), u, gtol, max_iter)


def descend_from(z, u, gtol, max_iter, prev=None, iters=0):
    """descend's loop from the point z = (v1, v2, v3, w1, w2, w3) of S^2 x
    S^2, taken as it is, after iters iterations: prev holds the previous
    point and its projected gradient (d, e) as 12 floats, or is None before
    the first step, where the BB step is not yet defined.  Returns what
    descend returns; a point outside E stops at once with U = inf."""
    u1, u2, u3, u4, u5, u6 = (float(x) for x in u)
    v1, v2, v3, w1, w2, w3 = z

    p1 = 0.5 * (v1 + w1)
    p2 = 0.5 * (v2 + w2)
    p3 = 0.5 * (v3 + w3)
    p4 = 0.5 * (v3 - w3)
    p5 = 0.5 * (w2 - v2)
    p6 = 0.5 * (v1 - w1)
    if not (p1 > 0.0 and p2 > 0.0 and p3 > 0.0 and p4 > 0.0 and p5 > 0.0 and p6 > 0.0):
        return ([v1, v2, v3], [w1, w2, w3], math.inf, math.inf, iters, STALLED)
    U = u1 / p1 + u2 / p2 + u3 / p3 + u4 / p4 + u5 / p5 + u6 / p6

    # previous point and projected gradient, for the BB step
    have_prev = prev is not None
    if have_prev:
        pv1, pv2, pv3, pw1, pw2, pw3, pd1, pd2, pd3, pe1, pe2, pe3 = prev

    status = MAXITER
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


# LANES_MIN has two uses.  descend_lanes steps its lanes together from it
# on, and hands the lanes still running once fewer are left to
# descend_from, which goes on from where each lane is; and
# solver._multistart_blocks runs a block of fewer lanes on floats and a
# larger one on lanes.  descend_lanes, least of 20 interleaved runs on a
# 2-vCPU host, all lanes on descend_from / LANES_MIN 24 / 32 / 48 / 64:
# 50 seeded starts 2.41 / 1.41 / 1.41 / 1.50 / 1.83 ms, the 512 starts of
# scan --grid 4 17.5 / 2.63 / 2.50 / 2.58 / 2.58 ms; so the hand-over is
# fastest at 24-32 running lanes.  The block's whole chain per row, floats
# against lanes, log10 m_i uniform on [-3, 3], least of 4-30 runs
# (solver._scan_values per row for rows of 8 starts, minimize_U for one
# row): rows of 8 starts, 24 lanes 1028 / 1450 us, 64 lanes 658 / 592,
# 96 lanes 646 / 513, 256 lanes 605 / 287, 512 lanes 669 / 295; one row
# of n starts, n = 24 3105 / 4853 us, 64 7305 / 7093, 96 10437 / 9063,
# 128 14161 / 11052, 200 23160 / 14807; so the switch breaks even between
# 24 and 64 lanes either way.  One value serves both uses for now.
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
    # the six rows of x added left to right, as descend adds its six terms.
    # numpy sums fewer than 8 terms one at a time from the initial value,
    # whatever the layout; from -0.0, as -0.0 + x is x for every x, also
    # -0.0 itself, where the default +0.0 would turn a sum of -0.0 into +0.0
    return np.add.reduce(x, axis=0, initial=-0.0)


def _sum3(x):
    # x[:, 0] + x[:, 1] + x[:, 2], added left to right, as the scalar code
    # adds the three terms of a dot product; see _sum6
    return np.add.reduce(x, axis=1, initial=-0.0)


def _unit_triples(x):
    """Each triple of the (3k, n) rows x divided by its norm, the norm taken
    as _normalize3 takes it; raises where a norm is zero, as a Python float
    division does."""
    t = x.reshape(len(x) // 3, 3, x.shape[1])
    n = np.sqrt(_sum3(t * t))
    if not n.all():
        raise ZeroDivisionError("float division by zero")
    return (t / n[:, None]).reshape(x.shape)


def _projected(z, g):
    """The radial components c = (cv, cw) of the (6, n) gradients g at the
    points z and their projections d onto the tangent spaces, (2, n) and
    (6, n), as tangent_gradient computes them."""
    n = z.shape[1]
    z3 = z.reshape(2, 3, n)
    g3 = g.reshape(2, 3, n)
    c = _sum3(g3 * z3)
    return c, (g3 - c[:, None] * z3).reshape(6, n)


def descend_lanes(z, u, gtol, max_iter):
    """descend at every lane of the (6, n) rows z of starts (v, w) and u of
    coefficients, for any n: (z, U, rgnorm, iters, status), the endpoints
    as (6, n) rows and the rest as (n,) rows, each lane with the bits of
    descend(v, w, u, gtol, max_iter).

    descend's loop runs on all lanes together, retiring each lane once it
    converges, stalls or reaches max_iter.  The state of the running lanes,
    which have all made the same number of iterations, is kept in (6, n)
    and (n,) arrays; zd stacks the point z = (v, w) on its projected
    gradient d, as the BB step needs both at the previous point.  Once
    fewer than LANES_MIN lanes are running, descend_from goes on with each
    of them from where it is, so a batch below LANES_MIN goes on in
    descend_from from its normalized starts."""
    # Python floats raise on nothing but a division by zero, which the lane
    # loop checks for and raises as descend does; it ignores numpy's
    # floating-point flags as descend's arithmetic sets none
    with np.errstate(all="ignore"):
        count = z.shape[1]
        z = _unit_triples(z)
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
        while iters < max_iter and lane.size >= LANES_MIN:
            # the gradient at the current points, projected onto the spheres
            pp = p * p
            if not pp.all():
                raise ZeroDivisionError("float division by zero")
            zd = np.concatenate((z, _projected(z, _halved(-u / pp, _G_INDEX, _G_SIGN))[1]))
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
            t = _unit_triples(z - alpha * d)
            pt = _halved(t, _P_INDEX, _P_SIGN)
            Ut = _sum6(u / pt)
            ok = (pt > 0.0).all(axis=0) & (Ut <= U - _ARMIJO * alpha * g2)
            trying = np.flatnonzero(~ok)
            a = alpha[trying]
            for _ in range(_MAX_BACKTRACK - 1):
                if not trying.size:
                    break
                a = a * 0.5
                tt = _unit_triples(z[:, trying] - a * d[:, trying])
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
        if iters >= max_iter:
            retire(np.ones(lane.size, dtype=bool), MAXITER, iters)

        # the lanes still running once fewer than LANES_MIN were left go on in
        # descend's loop, from their point, previous step and iteration count
        prev = [None] * lane.size if zd_prev is None else zd_prev.T.tolist()
        for i, zi, ui, prev_i in zip(lane.tolist(), z.T.tolist(), u.T.tolist(), prev):
            v, w, out_U[i], out_rg[i], out_iters[i], out_status[i] = descend_from(
                zi, ui, gtol, max_iter, prev_i, iters)
            out_z[:, i] = v + w
        return out_z, out_U, out_rg, out_iters, out_status


# Lane forms of potential, tangent_gradient, newton_step and retract, for the
# (6, n) rows of n points: the scalar expressions on (n,) rows, so that each
# lane has the bits of the scalar call.  Where the scalar code branches, a
# lane form returns a mask, and its caller keeps a lane only as long as the
# scalar call would go on.

def potential_lanes(z, u):
    """potential at every lane of the (6, n) rows z and u: (inside, U, g,
    h), inside the mask of the lanes where every p_k > 0, at which
    potential returns (p, U, g, h); the values of the other lanes mean
    nothing.  Raises where potential divides by zero at an inside lane."""
    p = _halved(z, _P_INDEX, _P_SIGN)
    inside = (p > 0.0).all(axis=0)
    pp = p * p
    if (inside & ~pp.all(axis=0)).any():
        raise ZeroDivisionError("float division by zero")
    q = -u / pp
    return inside, _sum6(u / p), _halved(q, _G_INDEX, _G_SIGN), -2.0 * q / p


def tangent_gradient_lanes(z, g):
    """tangent_gradient at every lane of the (6, n) rows z and g: (cv, cw,
    rg) as (n,) rows."""
    c, d = _projected(z, g)
    return c[0], c[1], np.sqrt(_sum6(d * d))


# b = x cross a: b_i = x_{i+1} a_{i+2} - x_{i+2} a_{i+1}, indices mod 3
_NEXT = np.array([1, 2, 0])
_LAST = np.array([2, 0, 1])


def _tangent_pairs(z):
    """_tangent_pair of v and of w at every lane of the (6, n) rows z, as
    (2, 3, n) arrays a and b, v first; each lane takes the branch
    _tangent_pair takes, from the axis k least aligned with x."""
    n = z.shape[1]
    x = z.reshape(2, 3, n)
    ax = np.abs(x)
    first = (ax[:, 0] <= ax[:, 1]) & (ax[:, 0] <= ax[:, 2])
    second = ~first & (ax[:, 1] <= ax[:, 2])
    k = np.stack((first, second, ~(first | second)), axis=1)
    xk = np.where(first, x[:, 0], np.where(second, x[:, 1], x[:, 2]))[:, None]
    a = _unit_triples(np.where(k, 1.0 - xk * xk, -xk * x).reshape(6, n)).reshape(2, 3, n)
    return a, x[:, _NEXT] * a[:, _LAST] - x[:, _LAST] * a[:, _NEXT]


# The ten entries H11, H21, H22, H31, H32, H33, H41, H42, H43, H44 of
# newton_step's reduced Hessian are sums over i of (coef_i X_i) Y_i, with
# coef X taken from (s a, s b, s c, s d, t c, t d) and Y from (a, b, c, d)
_H_LEFT = np.array([0, 1, 1, 4, 4, 2, 5, 5, 3, 3])
_H_RIGHT = np.array([0, 0, 1, 0, 1, 2, 0, 1, 2, 3])
# the sphere of each of a, b, c, d
_SPHERE = np.array([0, 0, 1, 1])


def newton_step_lanes(z, g, h, cv, cw):
    """newton_step at every lane of the (6, n) rows z, g and h and the (n,)
    rows cv and cw: (step, ok), step the (6, n) steps and ok the mask of
    the lanes where every pivot is > 0, at which newton_step returns its
    step; the steps of the other lanes mean nothing."""
    n = z.shape[1]
    # s_i = 0.25 (h_i + h_{7-i}) and t_i = 0.25 (h_i - h_{7-i})
    s = 0.25 * (h[:3] + h[:2:-1])
    t = 0.25 * (h[:3] - h[:2:-1])
    a, b = _tangent_pairs(z)
    basis = np.stack((a[0], b[0], a[1], b[1]))
    left = np.concatenate((s * basis, t * basis[2:]))
    H = left[_H_LEFT] * basis[_H_RIGHT]
    H11, H21, H22, H31, H32, H33, H41, H42, H43, H44 = _sum3(H)
    H11 -= cv
    H22 -= cv
    H33 -= cw
    H44 -= cw
    f1, f2, f3, f4 = _sum3(basis * g.reshape(2, 3, n)[_SPHERE])
    ok = H11 > 0.0
    L11 = np.sqrt(H11)
    L21 = H21 / L11
    L31 = H31 / L11
    L41 = H41 / L11
    x = H22 - L21 * L21
    ok &= x > 0.0
    L22 = np.sqrt(x)
    L32 = (H32 - L31 * L21) / L22
    L42 = (H42 - L41 * L21) / L22
    x = H33 - L31 * L31 - L32 * L32
    ok &= x > 0.0
    L33 = np.sqrt(x)
    L43 = (H43 - L41 * L31 - L42 * L32) / L33
    x = H44 - L41 * L41 - L42 * L42 - L43 * L43
    ok &= x > 0.0
    L44 = np.sqrt(x)
    y1 = -f1 / L11
    y2 = (-f2 - L21 * y1) / L22
    y3 = (-f3 - L31 * y1 - L32 * y2) / L33
    y4 = (-f4 - L41 * y1 - L42 * y2 - L43 * y3) / L44
    x4 = y4 / L44
    x3 = (y3 - L43 * x4) / L33
    x2 = (y2 - L32 * x3 - L42 * x4) / L22
    x1 = (y1 - L21 * x2 - L31 * x3 - L41 * x4) / L11
    return np.concatenate((x1 * a[0] + x2 * b[0], x3 * a[1] + x4 * b[1])), ok


def retract_lanes(z, step, t):
    """retract at every lane of the (6, n) rows z and step, with t a float
    or an (n,) row."""
    return _unit_triples(z + t * step)
