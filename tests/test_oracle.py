import math

import numpy as np
import pytest

from ccc4 import oracle
from ccc4.errors import NonRealizableError
from ccc4.geometry import (DistanceVector, K_term, MassVector, Q_term, cayley_menger_H,
                           moment_I, potential_U, ptolemy_P)
from ccc4.inverse import shape_to_distances
from ccc4.oracle import (PlanarConfig, cartesian_cc_residual, circumradius,
                         embed_cyclic, embed_planar_lsq, fd_gradient, fd_hessian,
                         multistart_uniqueness, run_identity_battery,
                         sample_cyclic_shapes)
from ccc4.solver import minimize_U

from helpers import (cyclic_draws_dirichlet, identity_battery_one_sample_at_a_time,
                     random_planar_distance_vectors)

SQRT2 = math.sqrt(2.0)
SQUARE = DistanceVector(1.0, SQRT2, 1.0, 1.0, SQRT2, 1.0)
UNIT = MassVector(1.0, 1.0, 1.0, 1.0)


def test_planar_config_requires_centered_mass():
    with pytest.raises(ValueError):
        PlanarConfig(positions=np.ones((4, 2)), masses=UNIT)
    PlanarConfig(positions=np.zeros((4, 2)), masses=UNIT)
    # the check is relative to the configuration's size: the square of
    # circumradius k passes, and with body 1 moved out to 1.5 k, which puts
    # the center of mass k / 8 off the origin, it fails at every scale
    for e in range(-150, 151):
        k = 10.0 ** e
        square = [(k, 0.0), (0.0, k), (-k, 0.0), (0.0, -k)]
        PlanarConfig(positions=square, masses=UNIT)
        with pytest.raises(ValueError):
            PlanarConfig(positions=[(1.5 * k, 0.0)] + square[1:], masses=UNIT)


def test_embed_square():
    cfg = embed_cyclic(SQUARE, UNIT)
    assert np.allclose(cfg.distances(), SQUARE.array, rtol=1e-12)
    assert np.allclose(cfg.masses.array @ cfg.positions, 0.0, atol=1e-14)
    # vertices of a square: all at circumradius sqrt(2)/2 from the center
    radii = np.linalg.norm(cfg.positions, axis=1)
    assert np.allclose(radii, SQRT2 / 2.0, rtol=1e-12)


def test_embed_round_trips_random_shapes():
    for shape in sample_cyclic_shapes(1000, seed=60):
        r = shape_to_distances(shape)
        cfg = embed_cyclic(r, UNIT)
        assert np.max(np.abs(cfg.distances() - r.array)) <= 1e-9 * r.array.max()


def test_embed_rejects_non_cyclic():
    with pytest.raises(NonRealizableError):
        embed_cyclic(np.ones(6), UNIT)   # tetrahedron: P = 1


def test_cartesian_residual_square():
    cfg = embed_cyclic(SQUARE, UNIT)
    assert cartesian_cc_residual(cfg, fit=True) <= 1e-9


def test_cartesian_residual_random_config_bounded_away():
    rng = np.random.default_rng(61)
    for _ in range(10):
        pos = rng.normal(size=(4, 2))
        pos -= pos.mean(axis=0)
        cfg = PlanarConfig(positions=pos, masses=UNIT)
        assert cartesian_cc_residual(cfg, fit=True) > 1e-4


def _cartesian_residual_numpy(pos, masses, lambda_q):
    F = np.zeros((4, 2))
    for i in range(4):
        for j in range(4):
            if i != j:
                diff = pos[j] - pos[i]
                F[i] += masses[i] * masses[j] * diff / np.linalg.norm(diff) ** 3
    return float(np.max(np.linalg.norm(F - lambda_q * masses[:, None] * pos, axis=1)))


def test_cartesian_residual_agrees_with_the_numpy_route():
    # the float route sums the forces in another order and takes hypot for
    # the norms: the residuals agree to rounding, relative to the forces
    rng = np.random.default_rng(63)
    for _ in range(200):
        masses = MassVector.from_iterable(10.0 ** rng.uniform(-2.0, 2.0, 4))
        pos = rng.normal(size=(4, 2))
        pos -= masses.array @ pos / masses.M
        cfg = PlanarConfig(positions=pos, masses=masses)
        lam = float(rng.uniform(0.1, 2.0))
        want = _cartesian_residual_numpy(cfg.positions, masses.array, lam)
        assert cartesian_cc_residual(cfg, lambda_q=lam) == pytest.approx(want, rel=1e-12)


def test_coincident_bodies_give_an_infinite_residual():
    cfg = PlanarConfig(positions=[[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]],
                       masses=UNIT)
    assert cartesian_cc_residual(cfg, fit=True) == math.inf
    assert cartesian_cc_residual(cfg, lambda_q=0.5) == math.inf


def test_embed_square_beyond_the_range_of_the_eighth_power():
    # (max r)^8 overflows above 1e38, where the float power raised before
    cfg = embed_cyclic(SQUARE.scaled(1e40), UNIT)
    assert np.allclose(cfg.distances(), SQUARE.array * 1e40, rtol=1e-12)
    assert cartesian_cc_residual(cfg, fit=True) <= 1e-9 * 1e-80


def test_embed_square_at_every_scale():
    # the triangle margins scale with r: against an absolute margin the
    # square was not realizable below 1e-12
    for e in range(-100, 101):
        k = 10.0 ** e
        cfg = embed_cyclic(SQUARE.scaled(k), UNIT)
        assert np.allclose(cfg.distances(), SQUARE.array * k, rtol=1e-12)
        # relative to the largest pair force m_i m_j / r_ij^2 = k^-2
        assert cartesian_cc_residual(cfg, fit=True) * k * k <= 1e-14, k


def test_cartesian_residual_rotation_invariant():
    cfg = embed_cyclic(SQUARE, UNIT)
    res0 = cartesian_cc_residual(cfg, lambda_q=0.3)
    angle = 0.7
    R = np.array([[math.cos(angle), -math.sin(angle)],
                  [math.sin(angle), math.cos(angle)]])
    rotated = PlanarConfig(positions=cfg.positions @ R.T, masses=UNIT)
    assert cartesian_cc_residual(rotated, lambda_q=0.3) == pytest.approx(res0, rel=1e-12)


def test_cartesian_residual_requires_lambda_or_fit():
    cfg = embed_cyclic(SQUARE, UNIT)
    with pytest.raises(ValueError):
        cartesian_cc_residual(cfg)


def test_circumradius_square():
    assert circumradius(SQUARE) == pytest.approx(SQRT2 / 2.0, rel=1e-14)


def test_circumradius_scaling_and_identity():
    for shape in sample_cyclic_shapes(200, seed=62):
        arr = shape_to_distances(shape).array
        rc = circumradius(arr)
        assert rc == pytest.approx(shape.radius, rel=1e-11)
        assert circumradius(2.5 * arr) == pytest.approx(2.5 * rc, rel=1e-11)
        # 2 Q = (4 / rc^2) prod r on cyclic vectors
        assert 2.0 * Q_term(arr) == pytest.approx(
            4.0 / rc ** 2 * float(np.prod(arr)), rel=1e-9)


def test_circumradius_rejects_inconsistent_triangles():
    with pytest.raises(NonRealizableError):
        circumradius(np.array([1.0, 1.2, 1.0, 1.0, 1.5, 1.0]))


def test_fd_gradient_of_ptolemy_is_analytic():
    for arr in random_planar_distance_vectors(20, seed=63):
        grad = np.array([arr[5], -arr[4], arr[3], arr[2], -arr[1], arr[0]])
        assert np.allclose(fd_gradient(ptolemy_P, arr), grad, atol=1e-8)


def test_fd_gradient_of_potential_and_inertia():
    m = MassVector(1.2, 0.7, 2.0, 1.5)
    mm = m.products()
    for arr in random_planar_distance_vectors(10, seed=64):
        gu = fd_gradient(lambda x: potential_U(x, m), arr)
        assert np.allclose(gu, -mm / arr ** 2, rtol=1e-6)
        gi = fd_gradient(lambda x: moment_I(x, m), arr)
        assert np.allclose(gi, mm * arr / m.M, rtol=1e-6)


def test_gradient_parallelism_on_cyclic_vectors():
    for shape in sample_cyclic_shapes(100, seed=65):
        arr = shape_to_distances(shape).array
        fd_h = fd_gradient(cayley_menger_H, arr)
        want = 2.0 * Q_term(arr) * np.array([arr[5], -arr[4], arr[3],
                                             arr[2], -arr[1], arr[0]])
        assert np.max(np.abs(fd_h - want) / np.abs(want)) <= 1e-6


def test_fd_hessian_quadratic_exact():
    A = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]) + 0.5
    f = lambda x: 0.5 * float(x @ A @ x)
    arr = np.array([1.0, 1.1, 0.9, 1.2, 0.8, 1.05])
    assert np.allclose(fd_hessian(f, arr, h=1e-4), A, atol=1e-6)


def test_multistart_uniqueness_reports():
    rep = multistart_uniqueness(UNIT, n_starts=20, seed=66)
    assert rep.cluster_count == 1
    assert not rep.theorem_violated
    assert rep.failures == ()
    assert rep.clusters[0][1] == 20

    rep = multistart_uniqueness(MassVector(3.0, 1.0, 2.0, 1.0), n_starts=10, seed=67)
    assert rep.cluster_count == 1

    rep = multistart_uniqueness(UNIT, n_starts=1, seed=68)
    assert rep.cluster_count == 1


@pytest.mark.parametrize("n_starts", [0, -3])
def test_multistart_uniqueness_rejects_no_starts(n_starts):
    # no start gives no cluster, which would read as "no violation"
    with pytest.raises(ValueError, match="at least one start"):
        multistart_uniqueness(UNIT, n_starts=n_starts)


def test_uniqueness_report_json():
    rep = multistart_uniqueness(UNIT, n_starts=3, seed=70)
    doc = rep.to_json_dict()
    assert doc["cluster_count"] == 1
    assert len(doc["clusters"][0]["r"]) == 6


def test_non_cocircular_minimizer_fails_cartesian_equations():
    rec = minimize_U(MassVector(10.0, 1.0, 1.0, 1.0))
    assert not rec.is_cocircular
    cfg = embed_planar_lsq(rec.r_star, rec.masses)
    assert cartesian_cc_residual(cfg, fit=True) > 1e-3


def test_identity_battery_passes():
    rows = run_identity_battery(500, seed=71)
    names = [row.name for row in rows]
    assert names == ["pech_identity", "pech_anchor_points", "cyclic_K_vanishes",
                     "cyclic_H_vanishes", "gradient_parallelism",
                     "circumradius_relation", "homogeneity_degrees"]
    for row in rows:
        assert row.passed, f"{row.name}: {row.max_residual} > {row.threshold}"


def test_converse_holds_across_random_masses():
    # every non-co-circular minimizer stays far from solving the Cartesian
    # equations, even in its best planar embedding
    from helpers import random_masses
    checked = 0
    for m in random_masses(8, seed=72):
        rec = minimize_U(m)
        assert rec.converged
        if rec.is_cocircular:
            continue
        cfg = embed_planar_lsq(rec.r_star, rec.masses)
        assert cartesian_cc_residual(cfg, fit=True) > 1e-3
        checked += 1
    assert checked >= 6


def test_embed_and_circumradius_stable_on_thin_shapes():
    # near-degenerate quadrilaterals exercise the sorted-edge area form
    for shape in sample_cyclic_shapes(500, seed=77, min_gap=0.02,
                                      radius_range=(0.1, 5.0)):
        r = shape_to_distances(shape)
        cfg = embed_cyclic(r, UNIT)
        assert np.max(np.abs(cfg.distances() - r.array)) <= 1e-12 * r.array.max()
        assert circumradius(r.array) == pytest.approx(shape.radius, rel=1e-12)


def test_stacked_fd_gradient_equals_its_rows_bit_for_bit():
    rng = np.random.default_rng(91)
    r = rng.uniform(0.05, 10.0, (200, 6))
    for f in (cayley_menger_H, ptolemy_P, Q_term):
        got = fd_gradient(f, r)
        assert got.shape == (200, 6)
        assert np.array_equal(got, [fd_gradient(f, row) for row in r])
    assert np.array_equal(fd_gradient(Q_term, r, h=1e-4),
                          [fd_gradient(Q_term, row, h=1e-4) for row in r])
    with pytest.raises(ValueError):
        fd_gradient(Q_term, np.ones((4, 5)))


@pytest.mark.parametrize("samples, seed", [(1, 0), (100, 1), (500, 71), (10000, 1)])
def test_stacked_battery_equals_the_one_sample_route(samples, seed):
    assert run_identity_battery(samples, seed) == \
        identity_battery_one_sample_at_a_time(samples, seed)


def test_stacked_battery_equals_the_one_sample_route_across_chunks(monkeypatch):
    monkeypatch.setattr(oracle, "BATTERY_CHUNK", 7)
    assert run_identity_battery(150, 5) == identity_battery_one_sample_at_a_time(150, 5)


def test_identity_rows_hold_python_floats():
    for row in run_identity_battery(100, seed=1):
        assert type(row.max_residual) is float, row.name


def test_nan_residual_fails_its_row(monkeypatch):
    # the fourth K value the battery asks for belongs to the fourth Pech sample
    seen = [0]

    def k_with_one_nan(r):
        values = np.array(K_term(r), dtype=float, ndmin=1)
        if seen[0] <= 3 < seen[0] + values.size:
            values[3 - seen[0]] = math.nan
        seen[0] += values.size
        return values if np.ndim(r) == 2 else float(values[0])

    monkeypatch.setattr(oracle, "K_term", k_with_one_nan)
    rows = {row.name: row for row in run_identity_battery(100, seed=1)}
    assert not rows.pop("pech_identity").passed
    assert all(row.passed for row in rows.values())


def test_cyclic_draws_equal_numpy_dirichlet_draws():
    # four standard exponentials over their sum are numpy's Dirichlet(1, 1,
    # 1, 1) bit for bit, and the stream after them is the same
    for seed in range(100):
        for gap, radii in ((oracle.SHAPE_MIN_GAP, oracle.SHAPE_RADIUS_RANGE),
                           (0.02, (0.1, 30.0))):
            got = list(oracle._cyclic_draws(30, seed, gap, radii))
            assert got == list(cyclic_draws_dirichlet(30, seed, gap, radii)), seed
