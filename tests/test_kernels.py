import math

import numpy as np
import pytest

from ccc4 import kernels, solver
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


def test_newton_polish_leaves_a_point_where_U_is_not_finite():
    # as it leaves a point outside E: a descent ends at such a point where
    # the mass products overflow, and the multistart does not polish it
    with np.errstate(over="ignore", invalid="ignore"):
        us = [tuple(u_coeffs(m).tolist())
              for m in ((1e200, 1e200, 1.0, 1.0), (1.5e308, 1.5e308, 1.0, 1.0))]
    start = seeded_start(4, 1)
    v, w = start.v.tolist(), start.w.tolist()
    low = kernels.LANES_MIN
    for u in us:
        assert not math.isfinite(kernels.potential((*v, *w), u)[1])
        want = (tuple(v), tuple(w), math.inf, math.inf, 0, False)
        assert _newton_polish(v, w, u, 1e-11) == want
        lanes = _per_lane(solver._newton_polish_lanes(*_as_lanes([(v, w)] * low, [u] * low),
                                                      1e-11)[:5], tuple)
        assert lanes == [want] * low


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


def _as_lanes(points, us):
    # (v, w) points and coefficient 6-tuples as the (6, n) rows z and u that
    # the lane functions take
    return (np.array([(*v, *w) for v, w in points], dtype=float).reshape(-1, 6).T,
            np.array(us, dtype=float).reshape(-1, 6).T)


def _per_lane(out, triple):
    # the arrays (z, *rows) a lane function returns, as one result per lane
    # in the form of its scalar function: (v, w, *fields), v and w of type
    # triple
    z, *rows = out
    return [(triple(zi[:3]), triple(zi[3:]), *fields)
            for zi, *fields in zip(z.T.tolist(), *(row.tolist() for row in rows))]


def test_descend_lanes_match_descend_bit_for_bit(monkeypatch):
    # the lane loop against descend, lane by lane, in batches of 0 and 1
    # lanes and below, at and above LANES_MIN: the default starts, seeded starts and a start outside
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
    sizes = [0, 1, low - 1, low, low + 1, 300, len(lanes)]

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
            got = _per_lane(kernels.descend_lanes(*_as_lanes([s for s, _ in batch],
                                                             [u for _, u in batch]),
                                                  NEWTON_SWITCH, max_iter), list)
            # no descend at any size: the lanes left below LANES_MIN, or
            # all of a smaller batch, go on in descend_from
            assert not calls
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
            kernels.descend_lanes(*_as_lanes(batch, [u] * low), NEWTON_SWITCH, 500)


def _hand_over(lanes, max_iter):
    """Where the lockstep loop of descend_lanes hands its running lanes to
    descend_from, and how many, worked out from each lane's (outside,
    descend outcome) in the order the loop retires lanes: "start" before
    the first iteration, when the starts outside E leave fewer than
    LANES_MIN lanes; "converged" after a mid-iteration retirement of
    converged lanes; "stalled" after the end-of-iteration retirement of
    stalled lanes; None where no lane is handed over."""
    low = kernels.LANES_MIN
    running = [want for outside, want in lanes if not outside]
    if len(running) < low:
        return ("start", len(running)) if running else (None, 0)
    for i in range(max_iter):
        running = [w for w in running if not (w[5] == kernels.CONVERGED and w[4] == i)]
        if len(running) < low:
            return ("converged", len(running)) if running else (None, 0)
        running = [w for w in running if not (w[5] == kernels.STALLED and w[4] == i)]
        if i + 1 < max_iter and len(running) < low:
            return ("stalled", len(running)) if running else (None, 0)
    return None, 0


def test_descend_lanes_hand_over_keeps_descends_bits(monkeypatch):
    # batches of LANES_MIN lanes and more, each of LANES_MIN - 1 varied
    # lanes behind a lead of copies of one lane that sends the loop to
    # descend_from in one of three ways: starts outside E, which leave
    # before the first iteration; a start that converges at iteration 2,
    # retired mid-iteration; and a NaN coefficient, whose lane stalls at
    # the end of iteration 0.  The lanes handed over go on from where they
    # are, with descend's bits, and descend itself is not called
    rng = np.random.default_rng(23)
    low = kernels.LANES_MIN
    starts = [(s.v, s.w) for s in _draw_starts(SolverOptions())]
    starts += [(s.v, s.w) for s in (seeded_start(6, i) for i in range(8))]
    square = square_chart_point()
    outside = (np.array([0.0, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
    with np.errstate(over="ignore", invalid="ignore"):
        nan_u = tuple(u_coeffs((1.5e308, 1.5e308, 1.0, 1.0)).tolist())
    leads = {"start": (outside, tuple(u_coeffs((1.0, 2.0, 3.0, 4.0)).tolist())),
             "converged": ((square.v, square.w), tuple(u_coeffs((1.0, 1.01, 1.0, 1.01)).tolist())),
             "stalled": ((square.v, square.w), nan_u)}
    wants = {}

    def want(lane, max_iter):
        (v, w), u = lane
        key = (tuple(v), tuple(w), u, max_iter)
        if key not in wants:
            wants[key] = kernels.descend(v, w, u, NEWTON_SWITCH, max_iter)
        return wants[key]

    batches = []
    for max_iter in (500, 3):
        for size in (low, low + 1, 300, 2048):
            for route, lead in leads.items():
                tail = [(starts[rng.integers(len(starts))],
                         tuple(u_coeffs(10.0 ** rng.uniform(-3.0, 3.0, 4)).tolist()))
                        for _ in range(low - 1)]
                if route == "start":
                    # a lane handed over before its first iteration stalls there
                    tail[0] = (tail[0][0], nan_u)
                lanes = [(lead, route == "start")] * (size - len(tail))
                lanes += [(lane, False) for lane in tail]
                lanes = [lanes[i] for i in rng.permutation(len(lanes))]
                outcomes = [(out, want(lane, max_iter)) for lane, out in lanes]
                assert _hand_over(outcomes, max_iter) == (route, len(tail))
                batches.append((max_iter, [lane for lane, _ in lanes],
                                [w for _, w in outcomes]))

    descend, descend_from = kernels.descend, kernels.descend_from
    calls, handed = [], []

    def counted(*args):
        calls.append(args)
        return descend(*args)

    def recorded(*args):
        handed.append(descend_from(*args))
        return handed[-1]

    monkeypatch.setattr(kernels, "descend", counted)
    monkeypatch.setattr(kernels, "descend_from", recorded)
    statuses = set()
    for max_iter, batch, wanted in batches:
        handed.clear()
        got = _per_lane(kernels.descend_lanes(*_as_lanes([s for s, _ in batch],
                                                         [u for _, u in batch]),
                                              NEWTON_SWITCH, max_iter), list)
        assert len(handed) == low - 1
        assert len(got) == len(batch)
        for lane, want_lane in zip(got, wanted):
            assert [repr(x) for x in lane] == [repr(x) for x in want_lane]
        statuses.update(end[5] for end in handed)
    assert calls == []
    assert statuses == {kernels.CONVERGED, kernels.MAXITER, kernels.STALLED}


def _newton_lanes(seed):
    """(point, u) lanes for the lane Newton: the descent endpoints of the
    default and seeded starts for log10 m_i uniform on [-6, 6], the seeded
    starts themselves, which take more steps and meet pivots that are not
    positive, and, first, three lanes that leave at once: a start outside
    E, the negated u of test_newton_polish_fails_on_a_nonpositive_pivot and
    a start scaled off its spheres, where every trial of the line search
    raises U."""
    rng = np.random.default_rng(seed)
    starts = [(s.v.tolist(), s.w.tolist()) for s in _draw_starts(SolverOptions())]
    starts += [(s.v.tolist(), s.w.tolist()) for s in (seeded_start(4, i) for i in range(8))]
    us = [tuple(u_coeffs(10.0 ** rng.uniform(-6.0, 6.0, 4)).tolist()) for _ in range(140)]
    lane_us = [u for u in us for _ in starts]
    descents = _per_lane(kernels.descend_lanes(*_as_lanes(starts * len(us), lane_us),
                                               NEWTON_SWITCH, 500), list)
    lanes = [((v, w), u) for (v, w, U, *_), u in zip(descents, lane_us) if math.isfinite(U)]
    lanes += [(starts[i % len(starts)], u) for i, u in enumerate(us)]
    lanes = [lanes[i] for i in rng.permutation(len(lanes))]
    u = tuple(u_coeffs((1.0, 2.0, 0.5, 1.5)).tolist())
    pivot = sample_interior(np.random.default_rng(14))
    scaled = seeded_start(4, 3)
    return [(([0.0, 1.0, 0.0], [1.0, 0.0, 0.0]), u),
            ((pivot.v.tolist(), pivot.w.tolist()), tuple(-x for x in u)),
            (([2.0 * x for x in scaled.v.tolist()], [2.0 * x for x in scaled.w.tolist()]), u)] + lanes


def _counted(monkeypatch, name):
    # the solver function name, wrapped to record its calls
    original, calls = getattr(solver, name), []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(solver, name, counted)
    return original, calls


@pytest.mark.parametrize("max_newton", [solver.MAX_NEWTON, 1, 0])
def test_newton_polish_lanes_match_newton_polish_bit_for_bit(max_newton, monkeypatch):
    # batches of 0 and 1 lanes, and batches below, at and above LANES_MIN
    # and of 2048 lanes, each led by the three lanes that leave at once
    monkeypatch.setattr(solver, "MAX_NEWTON", max_newton)
    lanes = _newton_lanes(31)
    special, rest = lanes[:3], lanes[3:]
    newton_polish, calls = _counted(monkeypatch, "_newton_polish")
    scalar = newton_polish(*special[0][0], special[0][1], 1e-11)
    assert scalar[2:] == (math.inf, math.inf, 0, False)
    for (v, w), u in special[1:]:
        z = (*v, *w)
        _, _, g, h = kernels.potential(z, u)
        cv, cw, _ = kernels.tangent_gradient(z, g)
        # the pivot lane stops in newton_step, the scaled one after it
        assert (kernels.newton_step(z, g, h, cv, cw) is None) == (u[0] < 0.0)
        assert newton_polish(v, w, u, 1e-11)[4:] == (0, False)
    low = kernels.LANES_MIN
    first, outcomes = 0, set()
    for size in (0, 1, low - 1, low, low + 1, 2048):
        lead = special if size > len(special) else []
        batch = lead + rest[first:first + size - len(lead)]
        first += size - len(lead)
        calls.clear()
        got = _per_lane(solver._newton_polish_lanes(
            *_as_lanes([p for p, _ in batch], [u for _, u in batch]), 1e-11)[:5], tuple)
        assert not calls
        assert len(got) == len(batch)
        for ((v, w), u), lane in zip(batch, got):
            want = newton_polish(v, w, u, 1e-11)
            assert [repr(x) for x in lane] == [repr(x) for x in want]
            outcomes.add((lane[4] == max_newton, lane[5]))
    assert first > 2000
    # lanes stop unconverged at the cap, and converge below a cap of 0
    assert (True, False) in outcomes
    assert any(ok for _, ok in outcomes) == (max_newton > 0)
    # a pass where every lane that would step is at a pivot that is not
    # positive: the pivot lane alone, and beside lanes already converged
    converged = [(lane[:2], u) for lane, (_, u) in zip(got, batch) if lane[5]]
    if max_newton > 0:
        assert converged
    for batch in ([special[1]], [special[1]] + converged[:low], converged[:3] + [special[1]]):
        got = _per_lane(solver._newton_polish_lanes(
            *_as_lanes([p for p, _ in batch], [u for _, u in batch]), 1e-11)[:5], tuple)
        for ((v, w), u), lane in zip(batch, got):
            want = newton_polish(v, w, u, 1e-11)
            assert [repr(x) for x in lane] == [repr(x) for x in want]


def test_polish_record_lanes_match_polish_record_bit_for_bit(monkeypatch):
    # from the converged Newton endpoints, which record polishes start
    # from, and from seeded starts inside E, in batches of 0 and 1 lanes,
    # below, at and above LANES_MIN and of 2048 lanes
    lanes = _newton_lanes(32)[3:]
    polished = _per_lane(solver._newton_polish_lanes(
        *_as_lanes([p for p, _ in lanes], [u for _, u in lanes]), 1e-11)[:5], tuple)
    points = [((v, w), u) for (v, w, *_, ok), (_, u) in zip(polished, lanes) if ok]
    starts = [seeded_start(5, i) for i in range(300)]
    points += [((s.v.tolist(), s.w.tolist()), u) for s, (_, u) in zip(starts, lanes)]
    points = [points[i] for i in np.random.default_rng(33).permutation(len(points))]
    polish_record, calls = _counted(monkeypatch, "_polish_record")
    low = kernels.LANES_MIN
    first, steps = 0, set()
    for size in (0, 1, low - 1, low, low + 1, 2048):
        batch = points[first:first + size]
        first += size
        calls.clear()
        got = _per_lane(solver._polish_record_lanes(
            *_as_lanes([p for p, _ in batch], [u for _, u in batch])), tuple)
        assert not calls
        assert len(got) == len(batch) == size
        for ((v, w), u), lane in zip(batch, got):
            want = polish_record(v, w, u)
            assert [repr(x) for x in lane] == [repr(x) for x in want]
            steps.add(lane[2])
    assert first == low * 3 + 2049
    assert {0, 1} <= steps


def test_lane_newton_hands_on_the_values_at_its_endpoints(monkeypatch):
    # the g, h, cv, cw and rg the lane Newton returns have the bits that
    # potential_lanes and tangent_gradient_lanes give at its endpoints, at
    # every lane, those that leave at once included; the record polish
    # started from them ends as one that evaluates them itself; and no
    # Newton step runs on no lane
    lanes = _newton_lanes(34)
    z, u = _as_lanes([p for p, _ in lanes], [u for _, u in lanes])
    stepped = []
    newton_step_lanes = kernels.newton_step_lanes

    def counted(z, *rest):
        stepped.append(z.shape[1])
        return newton_step_lanes(z, *rest)

    monkeypatch.setattr(kernels, "newton_step_lanes", counted)
    end, _, _, _, ok, at = solver._newton_polish_lanes(z, u, 1e-11)
    assert stepped and 0 not in stepped
    assert at.shape == (15, z.shape[1])
    with np.errstate(all="ignore"):
        assert _bits(at) == _bits(solver._at(end, u)[0])
    lane = np.flatnonzero(ok)
    polished = solver._polish_record_lanes(end[:, lane], u[:, lane], at[:, lane])
    want = solver._polish_record_lanes(end[:, lane], u[:, lane])
    assert _bits(polished[0]) == _bits(want[0])
    assert polished[1].tolist() == want[1].tolist()
    assert 0 not in stepped


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def test_lane_sums_add_left_to_right():
    # _sum6 and _sum3 are one numpy sum over the short axis; they must
    # have the bits of adding the terms one by one from the first, on
    # contiguous arrays, on gathered copies, on strided views and on
    # signed zeros, infinities and NaN; a sum of -0.0 alone stays -0.0,
    # which numpy's default start, +0.0, would turn into +0.0
    rng = np.random.default_rng(8)
    special = np.array([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7e308])
    for n in (1, 2, 7, 64, 2048):
        six = rng.standard_normal((6, 2 * n)) * 10.0 ** rng.uniform(-20.0, 20.0, (6, 2 * n))
        three = rng.standard_normal((10, 3, 2 * n)) * 10.0 ** rng.uniform(-20.0, 20.0,
                                                                         (10, 3, 2 * n))
        six[:, ::5] = rng.choice(special, six[:, ::5].shape)
        three[:, :, ::5] = rng.choice(special, three[:, :, ::5].shape)
        six[:, 0], three[:, :, 0] = -0.0, -0.0
        pick = rng.integers(0, 2 * n, n)
        for x, y in ((six[:, :n], three[:, :, :n]), (six.take(pick, axis=1),
                                                     three.take(pick, axis=2)),
                     (six[:, ::2], three[:, :, ::2]),
                     (six.reshape(2, 6, n).swapaxes(0, 1)[:, 0], three[:, :, ::-2])):
            with np.errstate(all="ignore"):
                want6 = x[0] + x[1]
                for k in range(2, 6):
                    want6 = want6 + x[k]
                want3 = (y[:, 0] + y[:, 1]) + y[:, 2]
                assert _bits(kernels._sum6(x)) == _bits(want6)
                assert _bits(kernels._sum3(y)) == _bits(want3)


def test_stacked_least_squares_kernel_is_numpys_lstsq_kernel():
    # _least_squares calls numpy's private stacked lstsq kernel, which
    # numpy 2 names numpy.linalg._umath_linalg.lstsq; a numpy that renames
    # it or changes its signature or float loop sends every system to the
    # public call row by row, the same bits at a per-row cost
    if int(np.__version__.split(".")[0]) < 2:
        pytest.skip("numpy 1.x has no numpy.linalg._umath_linalg.lstsq")
    from numpy.linalg import _umath_linalg
    kernel = getattr(_umath_linalg, "lstsq", None)
    assert solver._LSTSQ_KERNEL is not None, (
        f"numpy {np.__version__}: numpy.linalg._umath_linalg.lstsq is "
        f"{kernel!r} with signature {getattr(kernel, 'signature', None)!r} and "
        f"loops {getattr(kernel, 'types', None)!r}, not {solver._LSTSQ_SIGNATURE!r} "
        "with 'ddd->ddid'; solver._least_squares falls back to np.linalg.lstsq per row")
    assert solver._LSTSQ_KERNEL is kernel


def test_stacked_least_squares_kernel_is_refused_unless_it_matches(monkeypatch):
    # no kernel of that name, or one of another signature or without the
    # float loop, leaves _least_squares on the public call
    import sys
    import types
    kernel = solver._LSTSQ_KERNEL
    for stub in (types.SimpleNamespace(),
                 types.SimpleNamespace(lstsq=types.SimpleNamespace(
                     signature="(m,n),(m,nrhs),()->(n,nrhs)", types=["ddd->ddid"])),
                 types.SimpleNamespace(lstsq=types.SimpleNamespace(
                     signature=solver._LSTSQ_SIGNATURE, types=["fff->ffif"]))):
        monkeypatch.setitem(sys.modules, "numpy.linalg._umath_linalg", stub)
        assert solver._stacked_lstsq_kernel() is None
    if kernel is not None:
        monkeypatch.setitem(sys.modules, "numpy.linalg._umath_linalg",
                            types.SimpleNamespace(lstsq=kernel))
        assert solver._stacked_lstsq_kernel() is kernel


@pytest.mark.parametrize("n", [0, 1, 64, 2048])
@pytest.mark.parametrize("stacked", [True, False])
def test_stacked_least_squares_has_the_bits_of_lstsq_per_row(n, stacked, monkeypatch):
    # solver._least_squares solves a whole stack in one call of the
    # kernel that np.linalg.lstsq runs for one system, or without that
    # kernel by the public call row by row: each row must get the public
    # call's solution bits, and raise at its turn where the public rank
    # is below 2, for entries with log10 |x| in [-30, 30], zero columns
    # and proportional columns
    from ccc4.errors import IndeterminateShapeError
    if not stacked:
        monkeypatch.setattr(solver, "_LSTSQ_KERNEL", None)
    rng = np.random.default_rng(n)
    A = rng.choice((-1.0, 1.0), (n, 6, 2)) * 10.0 ** rng.uniform(-30.0, 30.0, (n, 6, 2))
    b = rng.choice((-1.0, 1.0), (n, 6)) * 10.0 ** rng.uniform(-30.0, 30.0, (n, 6))
    A[1::7, :, 1] = 0.0
    A[3::7, :, 1] = 3.0 * A[3::7, :, 0]
    want = [np.linalg.lstsq(A[k], b[k], rcond=None) for k in range(n)]
    full = [k for k in range(n) if want[k][2] == 2]
    deficient = [k for k in range(n) if want[k][2] < 2]
    assert n < 64 or len(full) > n // 2 and len(deficient) >= n // 7
    # the full-rank rows, then the first deficient one, which raises
    order = full + deficient[:1]
    got = solver._least_squares(A[order], b[order])
    for k in full:
        assert _bits(next(got)) == _bits(want[k][0])
    if deficient:
        with pytest.raises(IndeterminateShapeError):
            next(got)
    else:
        assert next(got, None) is None
    for k in deficient:
        got = solver._least_squares(A[[full[0], k]], b[[full[0], k]])
        assert _bits(next(got)) == _bits(want[full[0]][0])
        with pytest.raises(IndeterminateShapeError):
            next(got)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("entry", [(0, 2, 1), (1, 4)])
def test_stacked_least_squares_on_a_nonfinite_entry_does_what_lstsq_does(value, entry):
    # an inf or NaN in row 1 of A or of b: rows 0 and 2 keep their bits,
    # and row 1 gets the public call's solution or its LinAlgError
    rng = np.random.default_rng(4)
    A, b = rng.standard_normal((3, 6, 2)), rng.standard_normal((3, 6))
    (A if len(entry) == 3 else b)[(1,) + entry[1:]] = value
    got = solver._least_squares(A, b)
    assert _bits(next(got)) == _bits(np.linalg.lstsq(A[0], b[0], rcond=None)[0])
    try:
        want = np.linalg.lstsq(A[1], b[1], rcond=None)[0]
    except np.linalg.LinAlgError as exc:
        with pytest.raises(np.linalg.LinAlgError, match=str(exc)):
            next(got)
    else:
        assert _bits(next(got)) == _bits(want)
        assert _bits(next(got)) == _bits(np.linalg.lstsq(A[2], b[2], rcond=None)[0])


def test_block_canonical_copies_equal_canonical_per_endpoint():
    # a block's relabeling masks and canonical copies against
    # geometry._admissible_entries and _canonical row by row, on masses
    # drawn from three values times one factor (ties, and ratios within
    # and just outside RELABEL_RTOL) and distances drawn from three values
    # (copies that tie on their first distances)
    from ccc4.geometry import (RELABEL_RTOL, _RELABEL_TABLE, _admissible_entries,
                               _admissible_mask, _canonical, _canonical_copies)
    rng = np.random.default_rng(12)
    count = 3000
    values = 10.0 ** rng.uniform(-2.0, 2.0, (count, 3))
    m = np.take_along_axis(values, rng.integers(0, 3, (count, 4)), axis=1)
    m *= 10.0 ** rng.uniform(-3.0, 3.0, (count, 1))
    m[::9, 1] = m[::9, 0] * (1.0 + rng.choice((0.9, 1.1), count)[::9] * RELABEL_RTOL)
    r = rng.choice((0.7, 1.0, 1.3), (6, count)) * 10.0 ** rng.uniform(-1.0, 1.0, count)
    r[:, ::2] = rng.uniform(0.5, 2.0, (6, count))[:, ::2]
    admissible = _admissible_mask(m)
    got = _canonical_copies(r, admissible).T.tolist()
    relabelings = []
    for k, masses in enumerate(m):
        entries = _admissible_entries(masses)
        assert [t[0] for t, ok in zip(_RELABEL_TABLE, admissible[:, k]) if ok] == \
            [perm for perm, _ in entries]
        relabelings.append(len(entries) - 1)
        assert tuple(got[k]) == _canonical(r[:, k].tolist(), [s for _, s in entries[1:]])
    # the stabilizers in the dihedral group have 1, 2, 4 or 8 elements
    assert set(relabelings) == {0, 1, 3, 7}
