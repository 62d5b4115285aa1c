import math

import numpy as np
import pytest

from ccc4 import chart
from ccc4.chart import (PCoords, VWPoint, in_region_E, p_to_r, p_to_vw,
                        r_to_p, sample_interior, square_chart_point, vw_to_p,
                        vw_to_p_array)
from ccc4.errors import DegeneratePointError, RegionViolationError
from ccc4.geometry import DistanceVector, MassVector
from ccc4.inverse import shape_to_distances
from ccc4.oracle import sample_cyclic_shapes

from helpers import (normalized_to_unit_inertia, random_masses,
                     sample_interior_one_draw_at_a_time)

SQRT2 = math.sqrt(2.0)
SQUARE = DistanceVector(1.0, SQRT2, 1.0, 1.0, SQRT2, 1.0)
UNIT = MassVector(1.0, 1.0, 1.0, 1.0)


def test_r_to_p_square_values():
    p = r_to_p(SQUARE, UNIT)
    s = 1.0 / (2.0 * SQRT2)
    assert p.astuple() == pytest.approx((s, 0.5, s, s, 0.5, s), abs=1e-15)
    assert p.sum_sq == pytest.approx(1.0, abs=1e-15)


def test_round_trip_r_p():
    rng = np.random.default_rng(30)
    for m in random_masses(20, seed=31):
        arr = rng.uniform(0.3, 2.0, 6)
        r = DistanceVector.from_iterable(arr)
        back = p_to_r(r_to_p(r, m), m)
        assert np.allclose(back.array, arr, rtol=1e-14, atol=0.0)


def test_p_to_r_boundary_error():
    p = PCoords(0.0, 0.4, 0.4, 0.4, 0.4, 0.4)
    with pytest.raises(DegeneratePointError):
        p_to_r(p, UNIT)


def test_p_to_r_uniform():
    p = PCoords.from_iterable([1.0 / math.sqrt(6.0)] * 6)
    r = p_to_r(p, UNIT)
    assert r.astuple() == pytest.approx((2.0 / math.sqrt(3.0),) * 6, rel=1e-15)


def test_p_to_vw_square():
    vw = p_to_vw(r_to_p(SQUARE, UNIT))
    assert vw.v == pytest.approx([1.0 / SQRT2, 0.0, 1.0 / SQRT2], abs=1e-15)
    assert vw.w == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)
    assert in_region_E(vw)


def test_parseval_identity():
    rng = np.random.default_rng(32)
    for _ in range(100):
        p = rng.uniform(0.01, 1.0, 6)
        p12, p13, p14, p23, p24, p34 = p
        v = np.array([p12 + p34, p13 - p24, p14 + p23])
        w = np.array([p12 - p34, p13 + p24, p14 - p23])
        assert v @ v + w @ w == pytest.approx(2.0 * p @ p, rel=1e-14)


def test_round_trip_p_vw():
    rng = np.random.default_rng(33)
    for _ in range(100):
        p = PCoords.from_iterable(rng.uniform(0.05, 1.0, 6))
        vw = p_to_vw(p)
        # bypass the VWPoint renormalization: the raw linear map inverts exactly
        back = vw_to_p_array(np.array([p.p12 + p.p34, p.p13 - p.p24, p.p14 + p.p23]),
                             np.array([p.p12 - p.p34, p.p13 + p.p24, p.p14 - p.p23]))
        assert np.allclose(back, p.array, rtol=0.0, atol=1e-15)
        assert vw is not None


def test_manifold_points_map_to_unit_spheres():
    # on {I = 1, P = 0} the image satisfies |v| = |w| = 1 exactly
    for i, shape in enumerate(sample_cyclic_shapes(200, seed=34)):
        m = random_masses(1, seed=1000 + i)[0]
        arr = normalized_to_unit_inertia(shape_to_distances(shape).array, m)
        p = r_to_p(arr, m)
        assert abs(p.sum_sq - 1.0) <= 1e-13
        p12, p13, p14, p23, p24, p34 = p.astuple()
        v = np.array([p12 + p34, p13 - p24, p14 + p23])
        w = np.array([p12 - p34, p13 + p24, p14 - p23])
        assert abs(v @ v - 1.0) <= 1e-12
        assert abs(w @ w - 1.0) <= 1e-12


def test_unit_inertia_maps_to_unit_p_norm():
    rng = np.random.default_rng(35)
    for m in random_masses(50, seed=36):
        arr = normalized_to_unit_inertia(rng.uniform(0.3, 2.0, 6), m)
        assert abs(r_to_p(arr, m).sum_sq - 1.0) <= 1e-13


def test_region_E_cases():
    assert in_region_E(square_chart_point())
    assert not in_region_E(VWPoint(v=np.array([1.0, 0.0, 0.0]),
                                   w=np.array([0.0, -1.0, 0.0])))
    assert not in_region_E(VWPoint(v=np.array([0.0, 1.0, 0.0]),
                                   w=np.array([1.0, 0.0, 0.0])))


def test_region_E_implies_w2_bound():
    # the first two region inequalities force w2 >= |v2| on the spheres
    rng = np.random.default_rng(37)
    count = 0
    while count < 100000:
        v = rng.normal(size=(1000, 3))
        w = rng.normal(size=(1000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        mask = ((v[:, 0] >= np.abs(w[:, 0])) & (v[:, 2] >= np.abs(w[:, 2]))
                & (w[:, 1] >= 0.0))
        assert np.all(w[mask, 1] >= np.abs(v[mask, 1]) - 1e-15)
        count += int(mask.sum())


def test_vw_to_p_region_violation():
    vw = VWPoint(v=np.array([0.0, 1.0, 0.0]), w=np.array([1.0, 0.0, 0.0]))
    with pytest.raises(RegionViolationError):
        vw_to_p(vw)


def test_sampler_determinism_and_interior():
    a = sample_interior(np.random.default_rng(42))
    b = sample_interior(np.random.default_rng(42))
    assert np.array_equal(a.v, b.v) and np.array_equal(a.w, b.w)
    for i in range(10000):
        vw = sample_interior(np.random.default_rng(i))
        assert in_region_E(vw)
        assert vw_to_p_array(vw.v, vw.w).min() > 1e-4


def test_sampler_is_stream_exact():
    # the batched sampler returns the bits of the one-draw-at-a-time loop
    draws = {}
    for seed in range(2000):
        got = sample_interior(np.random.default_rng(seed))
        want, draws[seed] = sample_interior_one_draw_at_a_time(
            np.random.default_rng(seed))
        assert got.v.tobytes() == want.v.tobytes(), seed
        assert got.w.tobytes() == want.w.tobytes(), seed
    # both batch boundaries are crossed: acceptance in the 2nd and 5th batch
    assert chart.SAMPLE_BATCH == 64
    assert draws[7] == 81 and draws[51] == 271
    assert sum(d > chart.SAMPLE_BATCH for d in draws.values()) > 400


def test_sampler_draw_bound(monkeypatch):
    # default_rng(51) first accepts at draw 271
    monkeypatch.setattr(chart, "MAX_DRAWS", 270)
    with pytest.raises(RuntimeError):
        sample_interior(np.random.default_rng(51))
    monkeypatch.setattr(chart, "MAX_DRAWS", 271)
    want, _ = sample_interior_one_draw_at_a_time(np.random.default_rng(51))
    got = sample_interior(np.random.default_rng(51))
    assert got.v.tobytes() == want.v.tobytes() and got.w.tobytes() == want.w.tobytes()


def test_sampler_measure_consistency():
    # two independent Monte-Carlo estimates of the region fraction agree
    def fraction(seed, n=200000):
        rng = np.random.default_rng(seed)
        v = rng.normal(size=(n, 3))
        w = rng.normal(size=(n, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        mask = ((v[:, 0] >= np.abs(w[:, 0])) & (v[:, 2] >= np.abs(w[:, 2]))
                & (w[:, 1] >= 0.0))
        return float(mask.mean())

    f1, f2 = fraction(38), fraction(39)
    assert 0.01 < f1 < 0.5
    assert abs(f1 - f2) < 0.01


def test_vwpoint_renormalizes():
    vw = VWPoint(v=np.array([2.0, 0.0, 0.0]), w=np.array([0.0, 0.0, 3.0]))
    assert np.linalg.norm(vw.v) == pytest.approx(1.0, abs=1e-15)
    assert np.linalg.norm(vw.w) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        VWPoint(v=np.zeros(3), w=np.array([1.0, 0.0, 0.0]))
