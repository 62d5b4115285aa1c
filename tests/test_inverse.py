import math

import numpy as np
import pytest

from ccc4 import inverse
from ccc4.errors import IndeterminateShapeError, InfeasibleShapeError
from ccc4.geometry import K_term, MassVector, ptolemy_P
from ccc4.inverse import (CyclicShape, dziobek_lambda, masses_from_shape,
                          recover_masses, shape_to_distances)
from ccc4.oracle import sample_cyclic_shapes
from ccc4.solver import minimize_U

from helpers import random_masses, recover_masses_numpy

SQUARE_ON_UNIT_CIRCLE = CyclicShape(
    theta=(0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi), radius=1.0)


def test_shape_validation():
    with pytest.raises(ValueError):
        CyclicShape(theta=(0.0, 0.0, 1.0, 2.0))
    with pytest.raises(ValueError):
        CyclicShape(theta=(0.0, 2.0, 1.0, 3.0))
    with pytest.raises(ValueError):
        CyclicShape(theta=(0.0, 1.0, 2.0, 7.0))
    with pytest.raises(ValueError):
        CyclicShape(theta=(0.0, 1.0, 2.0, 3.0), radius=0.0)


def test_shape_json_round_trip():
    shape = CyclicShape(theta=(0.1, 1.0, 2.0, 3.0), radius=2.5)
    back = CyclicShape.from_json(
        '{"theta": [0.1, 1.0, 2.0, 3.0], "radius": 2.5}')
    assert back == shape


def test_square_chords():
    r = shape_to_distances(SQUARE_ON_UNIT_CIRCLE)
    want = (math.sqrt(2.0), 2.0, math.sqrt(2.0), math.sqrt(2.0), 2.0, math.sqrt(2.0))
    assert r.astuple() == pytest.approx(want, rel=1e-15)


def test_shapes_satisfy_cyclic_relations():
    for shape in sample_cyclic_shapes(300, seed=50):
        arr = shape_to_distances(shape).array
        assert abs(ptolemy_P(arr)) <= 1e-13 * shape.radius ** 2 * 10
        assert abs(K_term(arr)) <= 1e-12


def test_radius_scaling():
    base = shape_to_distances(CyclicShape(theta=(0.0, 1.0, 2.5, 4.0), radius=1.0))
    scaled = shape_to_distances(CyclicShape(theta=(0.0, 1.0, 2.5, 4.0), radius=3.0))
    assert np.allclose(scaled.array, 3.0 * base.array, rtol=1e-15)


def test_dziobek_lambda_square():
    r = shape_to_distances(SQUARE_ON_UNIT_CIRCLE)
    out = dziobek_lambda(r)
    # sides sqrt(2), diagonals 2: lambda = (2^-3 - 8^-2) / (2*2^-3/2 - 2/8)
    want = (0.125 - 0.015625) / (2.0 * 2.0 ** -1.5 - 0.25)
    assert out.lam_a == pytest.approx(want, rel=1e-14)
    assert out.lam_b == pytest.approx(want, rel=1e-14)
    assert out.compat_residual <= 1e-15


def test_dziobek_lambda_generic_shapes_incompatible():
    count = 0
    for shape in sample_cyclic_shapes(100, seed=51):
        out = dziobek_lambda(shape_to_distances(shape))
        if out.compat_residual > 1e-9:
            count += 1
    # compatible shapes form a measure-zero subset
    assert count == 100


def test_dziobek_lambda_indeterminate_on_equilateral():
    with pytest.raises(IndeterminateShapeError):
        dziobek_lambda(np.ones(6))


def test_masses_from_square_shape():
    m = masses_from_shape(shape_to_distances(SQUARE_ON_UNIT_CIRCLE))
    assert m.astuple() == pytest.approx((1.0, 1.0, 1.0, 1.0), rel=1e-12)


def test_masses_from_square_shape_at_every_radius():
    # on the raw scale r^-3 leaves the float range at tiny and huge radii,
    # where the square read as infeasible
    for e in range(-200, 201):
        shape = CyclicShape(theta=SQUARE_ON_UNIT_CIRCLE.theta, radius=10.0 ** e)
        m = masses_from_shape(shape_to_distances(shape))
        assert max(abs(x - 1.0) for x in m.astuple()) <= 1e-12, e


def test_masses_out_of_the_float_range_are_indeterminate(monkeypatch):
    import ccc4.inverse
    monkeypatch.setattr(ccc4.inverse, "_mass_candidates",
                        lambda r, n, lam: [1e308, 1e308, 1.0, 1.0])
    with pytest.raises(IndeterminateShapeError, match="under- or overflows"):
        recover_masses(shape_to_distances(SQUARE_ON_UNIT_CIRCLE))


@pytest.mark.parametrize("masses", [(2.0, 2.0, 1.0, 1.0), (1.0, 3.0, 3.0, 1.0),
                                    (1.0, 3.0, 1.0, 3.0), (1.5, 0.7, 2.0, 1.1)])
def test_round_trip_through_minimizer(masses):
    rec = minimize_U(MassVector.from_iterable(masses))
    assert rec.converged
    got = masses_from_shape(rec.r_star)
    want = MassVector.from_iterable(masses).normalized(4.0)
    assert got.astuple() == pytest.approx(want.astuple(), rel=1e-7)


def test_generic_shape_is_infeasible():
    shape = CyclicShape(theta=(0.0, 0.9, math.pi, 5.2), radius=1.0)
    with pytest.raises(InfeasibleShapeError):
        masses_from_shape(shape_to_distances(shape))


def test_recovery_diagnostics():
    rec = minimize_U(MassVector(2.0, 2.0, 1.0, 1.0))
    out = recover_masses(rec.r_star)
    assert out.compat_residual <= 1e-9
    assert out.lam > 0.0
    assert out.sigma > 0.0          # the stationarity sign layout
    assert out.stationarity_residual <= 1e-10
    assert out.sigma_sq_spread <= 1e-9
    assert out.rounds <= 5


def test_recovery_sign_pattern():
    # the six equations hold with signs (+,-,+,+,-,+) over the slots, at the
    # scale where the recovered (normalized) masses give unit inertia
    from ccc4.geometry import OPPOSITE_SLOT, PAIR_SIGN, moment_I
    rec = minimize_U(MassVector(1.0, 3.0, 3.0, 1.0))
    out = recover_masses(rec.r_star)
    arr = rec.r_star.array
    arr = arr / math.sqrt(moment_I(arr, out.masses))
    mm = out.masses.products()
    lhs = mm * (arr ** -3 - out.lam)
    rhs = out.sigma * np.asarray(PAIR_SIGN) * arr[list(OPPOSITE_SLOT)] / arr
    assert np.allclose(lhs, rhs, atol=1e-9 * np.abs(lhs).max())


def test_cyclic_kites_are_always_multiplier_compatible():
    # on the kite family (axis through bodies 1 and 3) the two Dziobek
    # pairings coincide identically; feasibility is decided by positivity
    for deg in (30, 50, 75, 90, 110, 140):
        a = math.radians(deg)
        shape = CyclicShape(theta=(0.0, a, math.pi, 2.0 * math.pi - a))
        out = dziobek_lambda(shape_to_distances(shape))
        assert out.compat_residual <= 1e-14


def test_kite_family_positivity_window():
    # positive masses exist only between the degenerate kites at 60 and 120
    # degrees, where the multiplier collides with a side's r^-3; outside,
    # the products change sign
    for deg, outcome in ((30, InfeasibleShapeError), (45, InfeasibleShapeError),
                         (60, IndeterminateShapeError), (75, None), (90, None),
                         (105, None), (120, IndeterminateShapeError),
                         (135, InfeasibleShapeError)):
        a = math.radians(deg)
        shape = CyclicShape(theta=(0.0, a, math.pi, 2.0 * math.pi - a))
        r = shape_to_distances(shape)
        if outcome is None:
            m = masses_from_shape(r)
            assert m.m2 == pytest.approx(m.m4, rel=1e-9)   # mirror symmetry
        else:
            with pytest.raises(outcome):
                masses_from_shape(r)


def test_kite_round_trip_through_forward_solve():
    # a non-trapezoid co-circular configuration: kite masses (c, b, d, b)
    from ccc4.geometry import moment_I
    a = math.radians(75)
    shape = CyclicShape(theta=(0.0, a, math.pi, 2.0 * math.pi - a))
    r_shape = shape_to_distances(shape)
    out = recover_masses(r_shape)
    assert out.masses.m1 != pytest.approx(out.masses.m3, rel=0.1)
    rec = minimize_U(out.masses)
    assert rec.converged and rec.is_cocircular
    want = r_shape.array / math.sqrt(moment_I(r_shape.array, out.masses))
    assert np.max(np.abs(rec.r_star.array - want)) <= 1e-9


def _recovery_or_error(route, r):
    try:
        return route(r)
    except (IndeterminateShapeError, InfeasibleShapeError) as exc:
        return type(exc), getattr(exc, "value", None)


def test_recovery_has_the_bits_of_the_numpy_route(monkeypatch):
    # the rounds run on floats with one vectorized r^-3 each; every
    # recovered value, the round count and the failure kind match the
    # numpy route bit for bit, also where the rounds run out at a cap of
    # 1 or 2, which both routes read at call time
    def floats(r):
        out = recover_masses(r)
        return (out.masses.astuple(), out.lam, out.sigma, out.compat_residual,
                out.stationarity_residual, out.sigma_sq_spread, out.rounds)

    inputs = [shape_to_distances(shape).array * scale
              for shape in sample_cyclic_shapes(200, seed=52) for scale in (1.0, 3.7)]
    for deg in range(62, 120, 4):
        a = math.radians(deg)
        inputs.append(shape_to_distances(
            CyclicShape(theta=(0.0, a, math.pi, 2.0 * math.pi - a), radius=1.3)).array)
    for m in random_masses(6, seed=53):
        a, b = m.m1, m.m3      # adjacent equal pairs give co-circular trapezoids
        inputs.append(minimize_U(MassVector(a, a, b, b)).r_star.array)
    # at a cap of 1 every recovery runs out of rounds
    for max_rounds in (inverse.MAX_ROUNDS, 1, 2):
        monkeypatch.setattr(inverse, "MAX_ROUNDS", max_rounds)
        recovered = 0
        for r in inputs:
            got = _recovery_or_error(floats, r)
            assert got == _recovery_or_error(recover_masses_numpy, r)
            # an error comes back as (its type, its value)
            recovered += not isinstance(got[0], type)
        assert recovered >= 20
