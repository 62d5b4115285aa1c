import math

import numpy as np
import pytest

from ccc4 import kernels
from ccc4.chart import (P_FROM_VW, sample_interior, seeded_start, square_chart_point,
                        vw_to_p_array)
from ccc4.geometry import MassVector
from ccc4.solver import NEWTON_SWITCH, SolverOptions, _draw_starts, _newton_polish

from helpers import descend_reference, newton_step_numpy


def u_coeffs(masses):
    m = MassVector.from_iterable(masses)
    return m.products() ** 1.5 / math.sqrt(2.0 * m.M)


def test_descend_converges_from_square():
    sq = square_chart_point()
    u = u_coeffs((1.0, 1.0, 1.0, 1.0))
    v, w, U, rg, iters, status = kernels.descend(sq.v, sq.w, u, 1e-9, 500)
    assert status == kernels.CONVERGED
    assert rg <= 1e-9 * max(1.0, abs(U))
    assert U == pytest.approx(4.0 + math.sqrt(2.0), rel=1e-12)
    assert iters < 100


def test_descend_deterministic():
    vw = sample_interior(np.random.default_rng(7))
    u = u_coeffs((2.0, 1.0, 3.0, 0.5))
    first = kernels.descend(vw.v, vw.w, u, 1e-8, 500)
    second = kernels.descend(vw.v, vw.w, u, 1e-8, 500)
    assert first[0] == second[0] and first[1] == second[1]
    assert first[2] == second[2] and first[4] == second[4]


def test_potential_matches_chart():
    u = u_coeffs((1.0, 2.0, 0.5, 1.5))
    for seed in range(5):
        vw = sample_interior(np.random.default_rng(seed + 100))
        _, U, g, _ = kernels.potential((*vw.v, *vw.w), u)
        p = vw_to_p_array(vw.v, vw.w)
        assert U == pytest.approx(float(np.sum(u / p)), rel=1e-14)


def test_potential_gradient_finite_difference():
    u = u_coeffs((1.0, 2.0, 0.5, 1.5))
    vw = sample_interior(np.random.default_rng(11))
    _, U0, g, _ = kernels.potential((*vw.v, *vw.w), u)
    gv, gw = g[:3], g[3:]
    h = 1e-7
    for block, grad in (("v", gv), ("w", gw)):
        for k in range(3):
            vp, wp = vw.v.copy(), vw.w.copy()
            vm, wm = vw.v.copy(), vw.w.copy()
            if block == "v":
                vp[k] += h
                vm[k] -= h
            else:
                wp[k] += h
                wm[k] -= h
            up = kernels.potential((*vp, *wp), u)[1]
            um = kernels.potential((*vm, *wm), u)[1]
            assert (up - um) / (2 * h) == pytest.approx(grad[k], rel=1e-6)


def test_potential_hessian_central_differences():
    # H_z = P^T diag(h) P against central differences of the gradient
    rng = np.random.default_rng(12)
    step = 1e-6
    for _ in range(200):
        u = u_coeffs(10.0 ** rng.uniform(-1.0, 1.0, 4))
        vw = sample_interior(rng)
        z = np.concatenate([vw.v, vw.w])
        _, _, _, h = kernels.potential(z.tolist(), u)
        Hz = P_FROM_VW.T @ np.diag(h) @ P_FROM_VW
        for j in range(6):
            e = np.zeros(6)
            e[j] = step
            gp = np.array(kernels.potential((z + e).tolist(), u)[2])
            gm = np.array(kernels.potential((z - e).tolist(), u)[2])
            fd = (gp - gm) / (2.0 * step)
            assert np.allclose(fd, Hz[:, j], rtol=1e-5, atol=1e-6 * np.abs(Hz).max())


def test_newton_step_matches_numpy_algebra():
    # at sampled starts and where descent hands over to Newton; the two
    # routes round differently, by at most their first-order rounding bound
    rng = np.random.default_rng(13)
    checked = 0
    for index in range(200):
        u = u_coeffs(10.0 ** rng.uniform(-3.0, 3.0, 4))
        vw = sample_interior(rng)
        v, w = vw.v, vw.w
        if index % 2:
            v, w, *_ = kernels.descend(v, w, u, NEWTON_SWITCH, 500)
            v, w = np.array(v), np.array(w)
        z = (*v, *w)
        _, _, g, h = kernels.potential(z, u)
        cv, cw, _ = kernels.tangent_gradient(z, g)
        got = kernels.newton_step(z, g, h, cv, cw)
        if got is None:
            # a sampled start may lie where the reduced Hessian is not
            # positive definite; the descent's endpoints may not
            assert index % 2 == 0
            continue
        want, bound = newton_step_numpy(v, w, u)
        assert np.linalg.norm(np.array(got) - want) <= 4.0 * bound
        checked += 1
    assert checked >= 150


def test_newton_polish_fails_on_a_nonpositive_pivot():
    # at this point the reduced Hessian of -U has a negative first pivot
    u = u_coeffs((1.0, 2.0, 0.5, 1.5))
    vw = sample_interior(np.random.default_rng(14))
    z = (*vw.v, *vw.w)
    _, _, g, h = kernels.potential(z, tuple(-u))
    cv, cw, _ = kernels.tangent_gradient(z, g)
    assert kernels.newton_step(z, g, h, cv, cw) is None
    *_, iters, ok = _newton_polish(vw.v, vw.w, tuple(-u), 1e-11)
    assert iters == 0 and ok is False


def test_descend_rejects_infeasible_start():
    u = u_coeffs((1.0, 1.0, 1.0, 1.0))
    v = np.array([0.0, 1.0, 0.0])
    w = np.array([1.0, 0.0, 0.0])
    out = kernels.descend(v, w, u, 1e-9, 100)
    assert out[5] == kernels.STALLED
    assert math.isinf(out[2])



def test_descend_matches_reference_bit_for_bit():
    # the flat loop against the loop around kernels.potential, on the
    # default starts (start 5 runs into the 500 cap on a few percent of
    # these masses), seeded starts, small iteration caps and a start
    # outside E
    rng = np.random.default_rng(21)
    starts = [(s.v, s.w) for s in _draw_starts(SolverOptions())]
    starts += [(s.v, s.w) for s in (seeded_start(3, i) for i in range(8))]
    starts.append((np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])))
    cases = 0
    statuses = set()
    for index in range(180):
        u = tuple(u_coeffs(10.0 ** rng.uniform(-3.0, 3.0, 4)).tolist())
        max_iter = (500, 500, 500, 3)[index % 4]
        for v, w in starts:
            got = kernels.descend(v, w, u, NEWTON_SWITCH, max_iter)
            want = descend_reference(v, w, u, NEWTON_SWITCH, max_iter)
            assert [repr(x) for x in got] == [repr(x) for x in want]
            statuses.add(got[5])
            cases += 1
    assert cases >= 3000
    assert statuses == {kernels.CONVERGED, kernels.MAXITER, kernels.STALLED}
