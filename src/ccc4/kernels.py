"""Descent kernel.

Plain float scalars keep the inner loop reasonably fast in pure python.
The objective in chart coordinates is

    U(v, w) = sum_k u_k / p_k,   p = halved sums/differences of (v, w),

with u_k = (m_i m_j)^{3/2} / sqrt(2M), minimized over the product of unit
spheres by projected-gradient steps (Barzilai-Borwein trial step, Armijo
backtracking, renormalization retraction).  Steps that would cross the
boundary p_k <= 0 are rejected, which is all the region handling the
problem needs: the potential blows up there.
"""

import math

CONVERGED = 0
MAXITER = 1
STALLED = 2

_ARMIJO = 1e-4
_MAX_BACKTRACK = 40


def _pack(v, w):
    return float(v[0]), float(v[1]), float(v[2]), float(w[0]), float(w[1]), float(w[2])


def eval_potential(v, w, u):
    """Potential and its Euclidean gradient with respect to (v, w).

    Returns (U, gv, gw) as (float, list[3], list[3]); U is inf (with zero
    gradient) outside the feasible region min p_k > 0.
    """
    v1, v2, v3, w1, w2, w3 = _pack(v, w)
    u1, u2, u3, u4, u5, u6 = (float(u[0]), float(u[1]), float(u[2]),
                              float(u[3]), float(u[4]), float(u[5]))
    p1 = 0.5 * (v1 + w1)
    p2 = 0.5 * (v2 + w2)
    p3 = 0.5 * (v3 + w3)
    p4 = 0.5 * (v3 - w3)
    p5 = 0.5 * (w2 - v2)
    p6 = 0.5 * (v1 - w1)
    if min(p1, p2, p3, p4, p5, p6) <= 0.0:
        return math.inf, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]
    U = u1 / p1 + u2 / p2 + u3 / p3 + u4 / p4 + u5 / p5 + u6 / p6
    q1 = -u1 / (p1 * p1)
    q2 = -u2 / (p2 * p2)
    q3 = -u3 / (p3 * p3)
    q4 = -u4 / (p4 * p4)
    q5 = -u5 / (p5 * p5)
    q6 = -u6 / (p6 * p6)
    gv = [0.5 * (q1 + q6), 0.5 * (q2 - q5), 0.5 * (q3 + q4)]
    gw = [0.5 * (q1 - q6), 0.5 * (q2 + q5), 0.5 * (q3 - q4)]
    return U, gv, gw


def descend(v, w, u, gtol, max_iter):
    """Minimize U over S^2 x S^2 from (v, w).

    Returns (v, w, U, rgnorm, iters, status); status is CONVERGED once the
    projected-gradient norm is <= gtol * max(1, |U|), MAXITER at the
    iteration cap, STALLED if the line search cannot make progress.
    """
    v1, v2, v3, w1, w2, w3 = _pack(v, w)
    u1, u2, u3, u4, u5, u6 = (float(u[0]), float(u[1]), float(u[2]),
                              float(u[3]), float(u[4]), float(u[5]))

    def evaluate(a1, a2, a3, b1, b2, b3):
        p1 = 0.5 * (a1 + b1)
        p2 = 0.5 * (a2 + b2)
        p3 = 0.5 * (a3 + b3)
        p4 = 0.5 * (a3 - b3)
        p5 = 0.5 * (b2 - a2)
        p6 = 0.5 * (a1 - b1)
        if min(p1, p2, p3, p4, p5, p6) <= 0.0:
            return None
        return (u1 / p1 + u2 / p2 + u3 / p3 + u4 / p4 + u5 / p5 + u6 / p6,
                p1, p2, p3, p4, p5, p6)

    def normalize3(x1, x2, x3):
        n = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
        return x1 / n, x2 / n, x3 / n

    v1, v2, v3 = normalize3(v1, v2, v3)
    w1, w2, w3 = normalize3(w1, w2, w3)

    res = evaluate(v1, v2, v3, w1, w2, w3)
    if res is None:
        return ([v1, v2, v3], [w1, w2, w3], math.inf, math.inf, 0, STALLED)
    U = res[0]

    # previous point and projected gradient, for the BB step
    pv1 = pv2 = pv3 = pw1 = pw2 = pw3 = 0.0
    pd1 = pd2 = pd3 = pe1 = pe2 = pe3 = 0.0
    have_prev = False

    status = MAXITER
    iters = 0
    rgnorm = math.inf
    while iters < max_iter:
        _, p1, p2, p3, p4, p5, p6 = res
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

        accepted = False
        a = alpha
        for _ in range(_MAX_BACKTRACK):
            t1, t2, t3 = normalize3(v1 - a * d1, v2 - a * d2, v3 - a * d3)
            r1, r2, r3 = normalize3(w1 - a * e1, w2 - a * e2, w3 - a * e3)
            trial = evaluate(t1, t2, t3, r1, r2, r3)
            if trial is not None and trial[0] <= U - _ARMIJO * a * g2:
                accepted = True
                break
            a *= 0.5
        if not accepted:
            status = STALLED
            break
        v1, v2, v3, w1, w2, w3 = t1, t2, t3, r1, r2, r3
        res = trial
        U = trial[0]
        iters += 1

    return ([v1, v2, v3], [w1, w2, w3], U, rgnorm, iters, status)
