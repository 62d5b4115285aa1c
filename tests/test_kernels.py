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


def test_descend_lanes_match_descend_bit_for_bit(monkeypatch):
    # the lane loop against descend, lane by lane, in batches below, at and
    # above LANES_MIN: the default starts, seeded starts and a start outside
    # E; log10 m_i uniform on [-3, 3], and mass products that overflow, so
    # that u holds inf or NaN; iteration caps 500 and 3
    rng = np.random.default_rng(22)
    starts = [(s.v, s.w) for s in _draw_starts(SolverOptions())]
    starts += [(s.v, s.w) for s in (seeded_start(3, i) for i in range(8))]
    starts.append((np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0])))
    us = [tuple(u_coeffs(10.0 ** rng.uniform(-3.0, 3.0, 4)).tolist()) for _ in range(180)]
    with np.errstate(over="ignore", invalid="ignore"):
        us += [tuple(u_coeffs(m).tolist())
               for m in ((1e200, 1e200, 1.0, 1.0), (1.5e308, 1.5e308, 1.0, 1.0))]
    assert any(math.isinf(x) for x in us[-2]) and any(math.isnan(x) for x in us[-1])
    lanes = [(start, u) for u in us for start in starts]
    lanes = [lanes[i] for i in rng.permutation(len(lanes))]
    low = kernels.LANES_MIN
    sizes = [low - 1, low, low + 1, 300, len(lanes)]

    descend, calls = kernels.descend, []

    def counted(*args):
        calls.append(args)
        return descend(*args)

    monkeypatch.setattr(kernels, "descend", counted)
    cases = 0
    statuses = set()
    for max_iter in (500, 3):
        first = 0
        for size in sizes:
            batch = lanes[first:first + size]
            first += len(batch)
            calls.clear()
            got = kernels.descend_lanes([s for s, _ in batch], [u for _, u in batch],
                                        NEWTON_SWITCH, max_iter)
            # one descend per lane below LANES_MIN, on stragglers only above
            assert len(calls) == len(batch) if len(batch) < low else len(calls) < len(batch)
            assert len(got) == len(batch)
            for ((v, w), u), lane in zip(batch, got):
                want = descend(v, w, u, NEWTON_SWITCH, max_iter)
                assert [repr(x) for x in lane] == [repr(x) for x in want]
                statuses.add(lane[5])
                cases += 1
    assert cases >= 3000
    assert statuses == {kernels.CONVERGED, kernels.MAXITER, kernels.STALLED}


def test_descend_lanes_raise_where_descend_divides_by_zero():
    # p12 and p34 of the first start are positive, but their squares
    # underflow, so descend's gradient divides by zero; the second start has
    # v = 0, which descend cannot normalize.  The lanes raise as it does,
    # with every lane on the first start, and with one lane of the batch on
    # the second
    u = tuple(u_coeffs((1.0, 1.0, 1.0, 1.0)).tolist())
    square = square_chart_point()
    good = (square.v.tolist(), square.w.tolist())
    underflow = ([2e-170, 0.6, 0.8], [-1e-170, 0.8, 0.6])
    zero = ([0.0, 0.0, 0.0], good[1])
    low = kernels.LANES_MIN
    for bad, batch in ((underflow, [underflow] * low), (zero, [good] * (low - 1) + [zero])):
        with pytest.raises(ZeroDivisionError):
            kernels.descend(*bad, u, NEWTON_SWITCH, 500)
        with pytest.raises(ZeroDivisionError):
            kernels.descend_lanes(batch, [u] * low, NEWTON_SWITCH, 500)
