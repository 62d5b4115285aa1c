import math

import numpy as np
import pytest

from ccc4.geometry import (DistanceVector, K_RELABEL_SIGN, MassVector,
                           Q_term, SEQUENTIAL_RELABELINGS, ScalarReport,
                           K_term, RELABEL_RTOL, admissible_relabelings,
                           canonical_distance_tuple, cayley_menger_H, in_D,
                           is_geometric, moment_I, potential_U, ptolemy_P,
                           relabel_distances, triangle_margins, _fpow,
                           _moment_I_floats)
from ccc4.inverse import CyclicShape, shape_to_distances

from helpers import normalized_to_unit_inertia, random_planar_distance_vectors

SQRT2 = math.sqrt(2.0)
SQUARE = DistanceVector(1.0, SQRT2, 1.0, 1.0, SQRT2, 1.0)
ONES = DistanceVector(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
UNIT = MassVector(1.0, 1.0, 1.0, 1.0)


def test_distance_vector_validation():
    with pytest.raises(ValueError):
        DistanceVector(1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        DistanceVector(1.0, 1.0, -2.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        DistanceVector.from_iterable([1.0] * 5)


def test_mass_vector_validation_and_normalization():
    with pytest.raises(ValueError):
        MassVector(1.0, 1.0, 0.0, 1.0)
    m = MassVector(2.0, 2.0, 1.0, 1.0)
    assert m.M == 6.0
    n = m.normalized(4.0)
    assert math.isclose(n.M, 4.0, rel_tol=1e-15)
    assert math.isclose(n.m1 / n.m3, 2.0, rel_tol=1e-15)


def test_potential_unit_values():
    assert potential_U(ONES, UNIT) == pytest.approx(6.0, abs=1e-15)
    # unit square: four unit sides plus two diagonals of length sqrt(2)
    assert potential_U(SQUARE, UNIT) == pytest.approx(4.0 + SQRT2, abs=1e-14)


def test_moment_unit_values():
    assert moment_I(ONES, UNIT) == pytest.approx(0.75, abs=1e-15)
    assert moment_I(SQUARE, UNIT) == pytest.approx(1.0, abs=1e-15)


def test_ptolemy_values():
    assert ptolemy_P(SQUARE) == pytest.approx(0.0, abs=1e-15)
    assert ptolemy_P(ONES) == pytest.approx(1.0, abs=1e-15)
    # chord construction on the unit circle is cyclic by construction
    shape = CyclicShape(theta=tuple(math.radians(a) for a in (0, 60, 180, 250)))
    assert abs(ptolemy_P(shape_to_distances(shape))) <= 1e-12


def test_cayley_menger_values():
    assert cayley_menger_H(SQUARE) == pytest.approx(0.0, abs=1e-12)
    # regular tetrahedron with unit edge: V = 1/(6 sqrt(2)), 288 V^2 = 4
    assert cayley_menger_H(ONES) == pytest.approx(4.0, rel=1e-13)
    collinear = DistanceVector(1.0, 2.0, 3.0, 1.0, 2.0, 1.0)
    assert cayley_menger_H(collinear) == pytest.approx(0.0, abs=1e-11)


def test_K_values():
    assert K_term(SQUARE) == pytest.approx(0.0, abs=1e-15)
    assert K_term(ONES) == pytest.approx(0.0, abs=1e-15)
    r = DistanceVector(1.0, SQRT2, 1.0, 1.0, 1.5, 1.0)
    assert K_term(r) == pytest.approx(2.0 * SQRT2 - 3.0, abs=1e-14)


def test_Q_values():
    assert Q_term(SQUARE) == pytest.approx(8.0, abs=1e-13)
    # all ones: P Q - K^2 = H / 2 = 2 with P = 1, K = 0 forces Q = 2
    assert Q_term(ONES) == pytest.approx(2.0, abs=1e-14)


def test_pech_identity_randomized():
    rng = np.random.default_rng(20)
    for _ in range(2000):
        arr = rng.uniform(0.05, 10.0, 6)
        res = abs(0.5 * cayley_menger_H(arr)
                  - (ptolemy_P(arr) * Q_term(arr) - K_term(arr) ** 2))
        assert res <= 1e-9 * (1.0 + arr.max()) ** 8


def test_cyclic_vectors_have_zero_K_and_H():
    from ccc4.oracle import sample_cyclic_shapes
    for shape in sample_cyclic_shapes(500, seed=21):
        arr = shape_to_distances(shape).array
        assert abs(K_term(arr)) <= 1e-10
        assert abs(cayley_menger_H(arr)) <= 1e-9


def test_homogeneity_degrees():
    rng = np.random.default_rng(22)
    for _ in range(200):
        arr = rng.uniform(0.3, 2.0, 6)
        masses = MassVector.from_iterable(rng.uniform(0.2, 5.0, 4))
        k = float(rng.uniform(0.1, 10.0))
        assert potential_U(k * arr, masses) == pytest.approx(
            potential_U(arr, masses) / k, rel=1e-12)
        assert moment_I(k * arr, masses) == pytest.approx(
            moment_I(arr, masses) * k ** 2, rel=1e-12)
        scale = float(arr.max())
        assert ptolemy_P(k * arr) == pytest.approx(
            ptolemy_P(arr) * k ** 2, abs=1e-12 * (k * scale) ** 2)
        assert K_term(k * arr) == pytest.approx(
            K_term(arr) * k ** 3, abs=1e-12 * (k * scale) ** 3)
        assert Q_term(k * arr) == pytest.approx(
            Q_term(arr) * k ** 4, abs=1e-11 * (k * scale) ** 4)
        # the bordered determinant is 288 V^2, degree six
        assert cayley_menger_H(k * arr) == pytest.approx(
            cayley_menger_H(arr) * k ** 6, abs=1e-9 * (1 + k * scale) ** 8)


def test_scalar_report():
    rep = ScalarReport.evaluate(SQUARE, UNIT)
    assert rep.U == pytest.approx(4.0 + SQRT2, abs=1e-14)
    assert rep.I == pytest.approx(1.0, abs=1e-15)
    assert rep.P == pytest.approx(0.0, abs=1e-15)
    assert rep.K == pytest.approx(0.0, abs=1e-15)
    assert rep.Q == pytest.approx(8.0, abs=1e-13)


def test_is_geometric():
    assert is_geometric(ONES)
    assert is_geometric(SQUARE)
    assert not is_geometric(DistanceVector(1.0, 1.0, 1.0, 1.0, 1.0, 5.0))


def test_triangle_margins_count():
    assert triangle_margins(ONES).shape == (12,)
    assert np.all(triangle_margins(ONES) == 1.0)


def test_in_D():
    assert in_D(SQUARE, UNIT)
    # regular tetrahedron normalized to I = 1 still has P != 0
    k = 1.0 / math.sqrt(moment_I(ONES, UNIT))
    assert not in_D(ONES.scaled(k), UNIT)
    # equally spaced collinear points: P = K = H = 0 but the triangle
    # inequalities hold only with equality
    collinear = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 1.0])
    collinear = normalized_to_unit_inertia(collinear, UNIT)
    assert not in_D(collinear, UNIT)


def test_relabelings_preserve_P_and_sign_K():
    rng = np.random.default_rng(23)
    for _ in range(50):
        arr = rng.uniform(0.5, 2.0, 6)
        for name, perm in SEQUENTIAL_RELABELINGS.items():
            out = relabel_distances(arr, perm)
            assert ptolemy_P(out) == pytest.approx(ptolemy_P(arr), rel=1e-12, abs=1e-12)
            assert K_term(out) == pytest.approx(
                K_RELABEL_SIGN[name] * K_term(arr), rel=1e-12, abs=1e-12)


def test_relabelings_are_distance_set_preserving():
    arr = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    for perm in SEQUENTIAL_RELABELINGS.values():
        out = relabel_distances(arr, perm)
        assert sorted(out) == sorted(arr)
        # diagonals stay diagonals
        assert {out[1], out[4]} == {arr[1], arr[4]}


def test_admissible_relabelings():
    assert len(admissible_relabelings(UNIT)) == 8
    assert len(admissible_relabelings(MassVector(2, 2, 1, 1))) == 2
    assert len(admissible_relabelings(MassVector(1, 2, 3, 4))) == 1


def _allclose_relabelings(m):
    # the np.allclose rule admissible_relabelings follows
    arr = m.array
    return [perm for perm in SEQUENTIAL_RELABELINGS.values()
            if np.allclose(arr[[p - 1 for p in perm]], arr, rtol=1e-12, atol=0.0)]


def test_admissible_relabelings_follow_allclose():
    assert RELABEL_RTOL == 1e-12
    for rel, admitted in ((0.5e-12, 2), (2e-12, 1)):
        m = MassVector(2.0, 2.0 * (1.0 + rel), 1.0, 1.0)
        assert len(admissible_relabelings(m)) == admitted
        assert admissible_relabelings(m) == _allclose_relabelings(m)
        m = MassVector(1.0, 1.0, 1.0 - rel, 1.0 + rel)
        assert admissible_relabelings(m) == _allclose_relabelings(m)
    # near-ties of every mass pattern, straddling the tolerance
    rng = np.random.default_rng(12)
    patterns = ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 1, 0), (0, 1, 0, 1),
                (0, 1, 0, 2), (0, 1, 2, 1), (0, 1, 2, 3))
    sizes = set()
    for _ in range(2000):
        base = 10.0 ** rng.uniform(-3.0, 3.0, 4)
        noise = rng.uniform(-2e-12, 2e-12, 4)
        pattern = patterns[rng.integers(len(patterns))]
        m = MassVector.from_iterable(
            [base[k] * (1.0 + e) for k, e in zip(pattern, noise)])
        got = admissible_relabelings(m)
        assert got == _allclose_relabelings(m), m
        sizes.add(len(got))
    assert {1, 2, 4, 8} <= sizes


def test_canonical_distance_tuple_identifies_copies():
    m = MassVector(2.0, 2.0, 1.0, 1.0)
    arr = np.array([0.9, 1.17, 0.84, 0.84, 1.17, 0.74])
    for perm in admissible_relabelings(m):
        out = relabel_distances(arr, perm)
        assert canonical_distance_tuple(out, m) == canonical_distance_tuple(arr, m)


def test_realizable_vectors_are_geometric():
    for arr in random_planar_distance_vectors(50, seed=24):
        assert is_geometric(arr)


STACKED_DISTANCE_INVARIANTS = (ptolemy_P, K_term, Q_term, cayley_menger_H)


def test_stacked_invariants_equal_their_rows_bit_for_bit():
    rng = np.random.default_rng(90)
    r = rng.uniform(0.05, 10.0, (500, 6))
    m = rng.uniform(0.2, 5.0, (500, 4))
    for f in STACKED_DISTANCE_INVARIANTS:
        got = f(r)
        assert got.shape == (500,)
        assert np.array_equal(got, [f(row) for row in r]), f.__name__
        assert type(f(r[0])) is float
    for f in (potential_U, moment_I):
        got = f(r, m)
        assert got.shape == (500,)
        assert np.array_equal(got, [f(row, MassVector.from_iterable(mm))
                                    for row, mm in zip(r, m)]), f.__name__
        # one mass vector for the whole stack
        assert np.array_equal(f(r, UNIT), [f(row, UNIT) for row in r]), f.__name__
        assert type(f(r[0], m[0])) is float


def test_stacked_invariants_reject_malformed_stacks():
    for f in STACKED_DISTANCE_INVARIANTS:
        for bad in (np.ones((3, 5)), np.ones((3, 7)), np.ones((2, 3, 6)), np.ones(5)):
            with pytest.raises(ValueError):
                f(bad)
    r = np.ones((3, 6))
    for bad_m in (np.ones((3, 3)), np.array([[1.0, 1.0, 0.0, 1.0]] * 3),
                  np.array([[1.0, -2.0, 1.0, 1.0]] * 3),
                  np.array([[1.0, math.nan, 1.0, 1.0]] * 3),
                  np.array([[1.0, math.inf, 1.0, 1.0]] * 3)):
        for f in (potential_U, moment_I):
            with pytest.raises(ValueError):
                f(r, bad_m)


def test_canonicalization_against_one_relabeling_set_matches_the_reference():
    # the per-solve path canonicalizes many vectors against one relabeling
    # set; both it and canonical_distance_tuple must give the smallest of
    # the admissible relabeled copies
    from ccc4.geometry import _admissible_slots, _canonical
    rng = np.random.default_rng(94)
    patterns = ((0, 0, 0, 0), (0, 0, 1, 1), (0, 1, 1, 0), (0, 1, 0, 1),
                (0, 1, 0, 2), (0, 1, 2, 1), (0, 1, 2, 3))
    for pattern in patterns:
        base = 10.0 ** rng.uniform(-3.0, 3.0, 4)
        m = MassVector.from_iterable(base[k] for k in pattern)
        slots = _admissible_slots(m)
        for _ in range(50):
            arr = rng.uniform(0.3, 2.0, 6)
            if rng.random() < 0.3:       # exact ties between slots
                arr[rng.integers(6)] = arr[rng.integers(6)]
            want = min(tuple(relabel_distances(arr, perm).tolist())
                       for perm in admissible_relabelings(m))
            assert canonical_distance_tuple(arr, m) == want
            assert _canonical(arr.tolist(), slots) == want


def test_fpow_keeps_the_bits_of_pow_and_gives_inf_on_overflow():
    rng = np.random.default_rng(23)
    for x in (10.0 ** rng.uniform(-30.0, 30.0, 2000)).tolist():
        for e in (-3, 2, 3, 8):
            assert _fpow(x, e) == x ** e
    assert _fpow(1e-200, -3) == math.inf
    assert _fpow(1e200, 3) == math.inf
    assert _fpow(-1e200, 3) == -math.inf
    assert _fpow(-1e200, 2) == math.inf
    assert _fpow(1e308, 2) == math.inf


def test_moment_of_floats_has_the_bits_of_moment_I():
    rng = np.random.default_rng(24)
    for _ in range(2000):
        r = (10.0 ** rng.uniform(-3.0, 3.0, 6)).tolist()
        m = (10.0 ** rng.uniform(-3.0, 3.0, 4)).tolist()
        assert _moment_I_floats(r, m) == moment_I(r, MassVector(*m))


def test_is_geometric_beyond_the_range_of_the_eighth_power():
    # max(1, max r)^8 overflows for r above 1e38; the bound is then inf
    assert is_geometric(SQUARE.scaled(1e40))
