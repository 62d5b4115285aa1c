import math

import numpy as np
import pytest

from ccc4 import kernels
from ccc4.chart import square_chart_point, vw_to_p_array, sample_interior
from ccc4.geometry import MassVector


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


def test_eval_potential_matches_chart():
    u = u_coeffs((1.0, 2.0, 0.5, 1.5))
    for seed in range(5):
        vw = sample_interior(np.random.default_rng(seed + 100))
        U, gv, gw = kernels.eval_potential(vw.v, vw.w, u)
        p = vw_to_p_array(vw.v, vw.w)
        assert U == pytest.approx(float(np.sum(u / p)), rel=1e-14)


def test_eval_potential_gradient_finite_difference():
    u = u_coeffs((1.0, 2.0, 0.5, 1.5))
    vw = sample_interior(np.random.default_rng(11))
    U0, gv, gw = kernels.eval_potential(vw.v, vw.w, u)
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
            up = kernels.eval_potential(vp, wp, u)[0]
            um = kernels.eval_potential(vm, wm, u)[0]
            assert (up - um) / (2 * h) == pytest.approx(grad[k], rel=1e-6)


def test_descend_rejects_infeasible_start():
    u = u_coeffs((1.0, 1.0, 1.0, 1.0))
    v = np.array([0.0, 1.0, 0.0])
    w = np.array([1.0, 0.0, 0.0])
    out = kernels.descend(v, w, u, 1e-9, 100)
    assert out[5] == kernels.STALLED
    assert math.isinf(out[2])

