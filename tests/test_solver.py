import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ccc4 import solver
from ccc4.chart import vw_to_p_array
from ccc4.errors import UniquenessAlarmError
from ccc4.geometry import DistanceVector, MassVector, ScalarReport, moment_I
from ccc4.solver import (DZIOBEK_RTOL, SIGMA_SQ_RTOL, Multipliers, SolveRecord,
                         SolverOptions, _scaled_check, a_terms,
                         certify_minimum, classify_cocircular,
                         dziobek_residual, hessian_L, lagrangian_L,
                         minimize_U, principal_minors,
                         recover_multipliers, sigma_sq_values,
                         stationarity_residual)
from ccc4.oracle import multistart_uniqueness

from helpers import random_masses, random_planar_distance_vectors

SQRT2 = math.sqrt(2.0)
SQUARE = DistanceVector(1.0, SQRT2, 1.0, 1.0, SQRT2, 1.0)
UNIT = MassVector(1.0, 1.0, 1.0, 1.0)
# at the square the side and diagonal stationarity equations force
# lambda = (1 + 2^{-3/2}) / 2 and sigma = 1 - lambda
LAMBDA_SQ = 0.5 * (1.0 + 2.0 ** -1.5)
SIGMA_SQ = 1.0 - LAMBDA_SQ


def test_equal_masses_solve_is_the_square():
    rec = minimize_U(UNIT)
    assert rec.converged
    assert np.allclose(rec.r_star.array, SQUARE.array, atol=1e-8, rtol=0.0)
    assert rec.multipliers.lam == pytest.approx(LAMBDA_SQ, abs=1e-9)
    assert rec.multipliers.sigma == pytest.approx(SIGMA_SQ, abs=1e-9)
    assert rec.is_cocircular
    assert abs(rec.k_value) <= 1e-10
    assert min(rec.minors) > 0.0
    assert rec.iterations <= 500


def test_adjacent_pair_masses_give_isosceles_trapezoid():
    rec = minimize_U(MassVector(2.0, 2.0, 1.0, 1.0))
    assert rec.converged
    r = rec.r_star
    assert r.r14 == pytest.approx(r.r23, rel=1e-9)
    assert r.r13 == pytest.approx(r.r24, rel=1e-9)
    assert rec.is_cocircular
    assert abs(rec.k_value) <= 1e-10


def test_dominant_mass_is_not_cocircular():
    rec = minimize_U(MassVector(10.0, 1.0, 1.0, 1.0))
    assert rec.converged
    assert not rec.is_cocircular
    assert abs(rec.k_value) > 1e-3


def test_recover_multipliers_square():
    mult = recover_multipliers(SQUARE, UNIT)
    assert mult.lam == pytest.approx(LAMBDA_SQ, abs=1e-14)
    assert mult.sigma == pytest.approx(SIGMA_SQ, abs=1e-14)
    assert mult.stationarity_residual <= 1e-12


def test_recovered_residual_has_the_bits_of_stationarity_residual():
    # recover_multipliers reuses its least-squares system for the residual
    rng = np.random.default_rng(41)
    for r in random_planar_distance_vectors(200, seed=41):
        m = MassVector.from_iterable(10.0 ** rng.uniform(-3.0, 3.0, 4))
        mult = recover_multipliers(r, m)
        assert mult.stationarity_residual == stationarity_residual(r, m, mult.lam,
                                                                   mult.sigma)


def test_recovered_multipliers_minimize_residual():
    # dense grid oracle: no (lambda, sigma) on a surrounding grid beats the
    # least-squares pair
    arr = random_planar_distance_vectors(1, seed=40)[0]
    m = MassVector(1.3, 0.8, 2.1, 0.6)
    mult = recover_multipliers(arr, m)
    best = mult.stationarity_residual
    for dl in np.linspace(-0.2, 0.2, 21):
        for ds in np.linspace(-0.2, 0.2, 21):
            res = stationarity_residual(arr, m, mult.lam + dl, mult.sigma + ds)
            assert res >= best - 1e-12


def test_non_critical_point_has_residual():
    # a generic realizable vector admits no exact multiplier pair
    arr = random_planar_distance_vectors(1, seed=44)[0]
    mult = recover_multipliers(arr, UNIT)
    assert mult.stationarity_residual > 1e-3


def test_tetrahedron_solves_multipliers_with_zero_sigma():
    # the regular tetrahedron is a stationary point of U + lambda M (I - 1)
    # with equal masses, so the least-squares system is consistent with
    # sigma = 0 even though the point is off the cyclic manifold (P != 0)
    k = 1.0 / math.sqrt(moment_I(np.ones(6), UNIT))
    mult = recover_multipliers(np.ones(6) * k, UNIT)
    assert mult.stationarity_residual <= 1e-12
    assert abs(mult.sigma) <= 1e-12
    assert mult.lam == pytest.approx(k ** -3, rel=1e-12)


def test_hessian_structure():
    mult = Multipliers(lam=0.5, sigma=0.0, stationarity_residual=0.0)
    H = hessian_L(SQUARE, UNIT, mult)
    assert np.allclose(H, np.diag(np.diag(H)))
    mult = Multipliers(lam=LAMBDA_SQ, sigma=SIGMA_SQ, stationarity_residual=0.0)
    H = hessian_L(SQUARE, UNIT, mult)
    assert H[0, 5] == pytest.approx(SIGMA_SQ)
    assert H[1, 4] == pytest.approx(-SIGMA_SQ)
    assert H[2, 3] == pytest.approx(SIGMA_SQ)
    assert np.allclose(H, H.T)


def test_principal_minors_basics():
    assert principal_minors(np.eye(6)) == pytest.approx((1.0,) * 6)
    mult = recover_multipliers(SQUARE, UNIT)
    H = hessian_L(SQUARE, UNIT, mult)
    minors = principal_minors(H)
    # first minor: m1 m2 (lambda r12^3 + 2) / r12^3 with unit side
    assert minors[0] == pytest.approx(LAMBDA_SQ + 2.0, abs=1e-12)
    assert minors[5] == pytest.approx(float(np.linalg.det(H)), rel=1e-12)


def test_minor_factorization_identities():
    # the order-4..6 leading minors factor through the quartic A-terms for
    # any (r, lambda, sigma), not only at critical points
    rng = np.random.default_rng(41)
    for arr in random_planar_distance_vectors(10, seed=42):
        m = MassVector.from_iterable(rng.uniform(0.3, 3.0, 4))
        mult = Multipliers(lam=float(rng.uniform(0.1, 2.0)),
                           sigma=float(rng.uniform(-1.0, 1.0)),
                           stationarity_residual=0.0)
        H = hessian_L(arr, m, mult)
        minors = principal_minors(H)
        f = m.products() * (2.0 * arr ** -3 + mult.lam)
        s2 = mult.sigma ** 2
        assert minors[1] == pytest.approx(f[0] * f[1], rel=1e-12)
        assert minors[2] == pytest.approx(f[0] * f[1] * f[2], rel=1e-12)
        assert minors[3] == pytest.approx(f[0] * f[1] * (f[2] * f[3] - s2), rel=1e-11)
        assert minors[4] == pytest.approx(
            f[0] * (f[1] * f[4] - s2) * (f[2] * f[3] - s2), rel=1e-11)
        assert minors[5] == pytest.approx(
            (f[0] * f[5] - s2) * (f[1] * f[4] - s2) * (f[2] * f[3] - s2), rel=1e-10)
        raw = a_terms(arr, m, mult).raw
        assert raw[0] == pytest.approx((f[0] * f[5] - s2) * arr[0] ** 3 * arr[5] ** 3,
                                       rel=1e-11)
        assert raw[1] == pytest.approx((f[2] * f[3] - s2) * arr[2] ** 3 * arr[3] ** 3,
                                       rel=1e-11)
        assert raw[2] == pytest.approx((f[1] * f[4] - s2) * arr[1] ** 3 * arr[4] ** 3,
                                       rel=1e-11)


def test_a_terms_square_values():
    mult = recover_multipliers(SQUARE, UNIT)
    terms = a_terms(SQUARE, UNIT, mult)
    # on shell: A0 = A1 = 3 (2 lambda + 1), A2 = 3 (2^{5/2} lambda + 1)
    assert terms.on_shell[0] == pytest.approx(3.0 * (2.0 * LAMBDA_SQ + 1.0), abs=1e-12)
    assert terms.on_shell[1] == pytest.approx(terms.on_shell[0], abs=1e-12)
    assert terms.on_shell[2] == pytest.approx(
        3.0 * (LAMBDA_SQ * 2.0 * 2.0 ** 1.5 + 1.0), abs=1e-12)
    assert terms.on_shell[0] == pytest.approx(7.060660171779821, abs=1e-12)
    assert terms.on_shell[2] == pytest.approx(14.485281374238571, abs=1e-12)
    # at a critical point the raw and reduced forms coincide
    assert np.allclose(terms.raw, terms.on_shell, rtol=1e-10)


def test_a_terms_raw_differs_off_shell():
    mult = Multipliers(lam=0.3, sigma=0.9, stationarity_residual=1.0)
    terms = a_terms(SQUARE, UNIT, mult)
    assert abs(terms.raw[0] - terms.on_shell[0]) > 1e-3


def test_dziobek_residual_values():
    assert dziobek_residual(SQUARE, LAMBDA_SQ) <= 1e-12
    # lambda = 0: side product 1, diagonal product (2^{-3/2})^2 = 1/8
    assert dziobek_residual(SQUARE, 0.0) == pytest.approx(0.875, abs=1e-14)
    assert dziobek_residual(np.ones(6) * 1.7, 0.4) == 0.0


def test_sigma_sq_values_square():
    s2 = sigma_sq_values(SQUARE, UNIT, LAMBDA_SQ)
    assert np.allclose(s2, SIGMA_SQ ** 2, rtol=1e-12)


def test_lagrangian_and_hessian_match_finite_differences():
    from ccc4.oracle import fd_hessian
    mult = recover_multipliers(SQUARE, UNIT)
    H = hessian_L(SQUARE, UNIT, mult)
    fd = fd_hessian(lambda arr: lagrangian_L(arr, UNIT, mult.lam, mult.sigma),
                    SQUARE, h=1e-4)
    assert np.linalg.norm(fd - H) / np.linalg.norm(H) <= 1e-6


def test_certify_fresh_record():
    rec = minimize_U(UNIT)
    report = certify_minimum(rec)
    assert report.passed
    assert set(report.checks) == {"lambda_positive", "stationarity", "constraints",
                                  "minors_positive", "posdef_agreement", "dziobek",
                                  "sigma_sq_consistent", "cocircular_consistent"}


def test_certify_detects_negated_sigma():
    rec = minimize_U(UNIT)
    mult = rec.multipliers
    tampered = replace(rec, multipliers=Multipliers(
        lam=mult.lam, sigma=-mult.sigma,
        stationarity_residual=mult.stationarity_residual))
    report = certify_minimum(tampered)
    # sigma enters the sigma^2 products only quadratically
    assert report.checks["sigma_sq_consistent"].passed
    assert not report.checks["stationarity"].passed
    assert not report.passed


def test_certify_detects_tampered_lambda():
    rec = minimize_U(UNIT)
    mult = rec.multipliers
    tampered = replace(rec, multipliers=Multipliers(
        lam=mult.lam + 0.05, sigma=mult.sigma,
        stationarity_residual=mult.stationarity_residual))
    report = certify_minimum(tampered)
    assert not report.checks["stationarity"].passed
    assert not report.checks["dziobek"].passed


def _log_uniform_masses(n, seed):
    rng = np.random.default_rng(seed)
    return [MassVector.from_iterable(10.0 ** rng.uniform(-3.0, 3.0, 4)) for _ in range(n)]


def test_certify_detects_heaviest_pair_stretched_by_1e_minus_8():
    for m in _log_uniform_masses(20, seed=44):
        rec = minimize_U(m)
        assert certify_minimum(rec).passed
        r = rec.r_star.array
        r[np.argmax(m.products())] *= 1.0 + 1e-8
        assert not certify_minimum(replace(rec, r_star=DistanceVector(*r))).passed


def test_certify_thresholds_scale_with_the_record():
    rec = minimize_U(MassVector(1e-3, 2.0, 1e3, 0.5))
    report = certify_minimum(rec)
    assert report.passed
    lam = rec.multipliers.lam
    n = [x ** -3 for x in rec.r_star.astuple()]
    scale = max(max(n), lam)
    assert report.checks["dziobek"].threshold == DZIOBEK_RTOL * scale ** 2
    assert report.checks["sigma_sq_consistent"].threshold == \
        SIGMA_SQ_RTOL * (scale / min(abs(x - lam) for x in n))


def test_certify_fails_where_lambda_leaves_no_scale():
    rec = minimize_U(UNIT)
    r12 = rec.r_star.r12
    # lambda = r12^-3 makes cond infinite; an infinite lambda, an infinite S
    for lam in (r12 ** -3, math.inf, math.nan):
        mult = replace(rec.multipliers, lam=lam)
        with np.errstate(invalid="ignore"):
            report = certify_minimum(replace(rec, multipliers=mult))
        assert not report.checks["dziobek"].passed
        assert not report.checks["sigma_sq_consistent"].passed
    mult = replace(rec.multipliers, lam=r12 ** -3)
    check = certify_minimum(replace(rec, multipliers=mult)).checks["sigma_sq_consistent"]
    assert check.threshold == math.inf


def test_certify_values_have_the_bits_of_the_numpy_routes():
    # the constraint, Dziobek and sigma^2 values run on floats; they keep
    # the bits of ScalarReport and of the numpy scalar expressions
    for m in _log_uniform_masses(20, seed=45):
        rec = minimize_U(m)
        checks = certify_minimum(rec).checks
        arr, lam = rec.r_star.array, rec.multipliers.lam
        scalars = ScalarReport.evaluate(arr, m)
        assert checks["constraints"].value == max(abs(scalars.I - 1.0), abs(scalars.P))
        r12, r13, r14, r23, r24, r34 = arr
        sides = (r12 ** -3 - lam) * (r34 ** -3 - lam)
        assert checks["dziobek"].value == max(
            abs(sides - (r13 ** -3 - lam) * (r24 ** -3 - lam)),
            abs(sides - (r14 ** -3 - lam) * (r23 ** -3 - lam)))
        prod = float(np.prod(m.array))
        s2 = np.array([prod * (r12 ** -3 - lam) * (r34 ** -3 - lam),
                       prod * (r14 ** -3 - lam) * (r23 ** -3 - lam),
                       prod * (r13 ** -3 - lam) * (r24 ** -3 - lam)])
        assert checks["sigma_sq_consistent"].value == \
            (s2.max() - s2.min()) / max(np.abs(s2).max(), 1e-300)


@pytest.mark.parametrize("threshold", [0.0, -1e-12, math.inf, math.nan])
def test_scaled_check_never_passes_on_a_degenerate_threshold(threshold):
    assert not _scaled_check(0.0, threshold).passed


@settings(derandomize=True, deadline=None, max_examples=30, database=None)
@given(st.lists(st.floats(-3.0, 3.0), min_size=4, max_size=4))
def test_solve_and_certify_over_six_decades_of_mass(log_m):
    rec = minimize_U(MassVector.from_iterable(10.0 ** np.array(log_m)))
    assert rec.converged
    report = certify_minimum(rec)
    assert report.passed, [name for name, c in report.checks.items() if not c.passed]


def test_classify_threshold_semantics():
    rec = minimize_U(MassVector(10.0, 1.0, 1.0, 1.0))
    assert not classify_cocircular(rec, 1e-6)
    assert classify_cocircular(rec, math.inf)


def test_converged_record_invariants():
    for m in random_masses(5, seed=43):
        rec = minimize_U(m)
        assert rec.converged
        assert rec.multipliers.lam > 0.0
        assert min(rec.minors) > 0.0
        assert abs(rec.scalars.I - 1.0) <= 1e-12
        assert abs(rec.scalars.P) <= 1e-12
        assert rec.dziobek_residual <= 1e-9
        s2_scale = max(abs(x + rec.multipliers.sigma ** 2)
                       for x in rec.sigma_sq_residuals)
        assert max(abs(x) for x in rec.sigma_sq_residuals) <= 1e-9 * max(1.0, s2_scale)


def test_boundary_blowup_along_chart_ray():
    # drive p12 -> 0 along a great-circle path from the square point
    u = UNIT.products() ** 1.5 / math.sqrt(2.0 * UNIT.M)
    w = np.array([0.0, 1.0, 0.0])
    last = -math.inf
    for k in range(1, 13):
        theta = 0.5 * math.pi - 10.0 ** -k
        v = np.array([math.cos(theta), 0.0, math.sin(theta)])
        p = vw_to_p_array(v, w)
        assert p.min() > 0.0
        U = float(np.sum(u / p))
        assert U > last
        last = U
    assert last > 1e8


def test_single_interior_start_reaches_the_square():
    rep = multistart_uniqueness(UNIT, n_starts=1, seed=3)
    assert rep.failures == ()
    assert np.allclose(rep.clusters[0][0], SQUARE.array, atol=1e-8)


def test_multistart_agreement_and_determinism():
    opts = SolverOptions(starts=6, seed=11)
    rec1 = minimize_U(MassVector(1.7, 0.4, 2.2, 0.9), opts)
    rec2 = minimize_U(MassVector(1.7, 0.4, 2.2, 0.9), opts)
    assert rec1.to_json() == rec2.to_json()
    assert rec1.converged


def test_non_convergence_reports_best_iterate(monkeypatch):
    # unequal masses, so the universal square start is not already optimal
    monkeypatch.setattr(solver, "MAX_ITER", 2)
    monkeypatch.setattr(solver, "MAX_NEWTON", 0)
    opts = SolverOptions(starts=1)
    rec = minimize_U(MassVector(1.7, 0.4, 2.2, 0.9), opts)
    assert not rec.converged
    assert rec.iterations <= 2
    assert math.isfinite(rec.scalars.U)


def test_record_json_round_trip():
    rec = minimize_U(MassVector(2.0, 2.0, 1.0, 1.0))
    text = rec.to_json()
    back = SolveRecord.from_json(text)
    assert back.to_json() == text
    assert back.r_star.astuple() == rec.r_star.astuple()
    assert back.multipliers.lam == rec.multipliers.lam
    assert back.is_cocircular == rec.is_cocircular
    assert back.meta["rng"] == "numpy-pcg64"


def test_record_json_round_trip_keeps_chart_point_digits():
    # the stored chart point is already normalized; reading it back must not
    # normalize it again, which can move the last digit
    rng = np.random.default_rng(0)
    changed = 0
    for m in 10.0 ** rng.uniform(-3.0, 3.0, (200, 4)):
        text = minimize_U(MassVector.from_iterable(m)).to_json()
        changed += SolveRecord.from_json(text).to_json() != text
    assert changed == 0


@pytest.mark.parametrize("masses", [(0.0016, 0.002, 0.028, 210.0),
                                    (0.0013, 0.0019, 61.0, 0.0036)])
def test_constraint_acceptance_is_scale_free(masses):
    # |P| in r units is ~1e-12 here although P = 0 holds to ~1e-16 in the
    # chart; an absolute test on P(r) declared these minima non-converged
    rec = minimize_U(MassVector(*masses))
    assert rec.converged
    assert certify_minimum(rec).passed


@pytest.mark.parametrize("masses", [(0.042, 0.0015, 0.0039, 0.015),
                                    (2.4, 0.0013, 0.0041, 0.0017),
                                    (0.0059, 0.0012, 0.031, 0.0089)])
def test_cluster_radius_is_scale_free(masses):
    # the endpoints agree to ~1e-7 relative, but the distances are 15-29, so
    # an absolute radius of 1e-6 split them into clusters and raised the alarm
    m = MassVector(*masses)
    rec = minimize_U(m)
    assert rec.converged
    assert certify_minimum(rec).passed
    assert multistart_uniqueness(m, n_starts=20).cluster_count == 1


def test_uniqueness_alarm_on_inconsistent_endpoints(monkeypatch):
    # forcing distinct endpoints through the public API is impossible (the
    # minimizer is unique), so exercise the guard by shrinking the cluster
    # tolerance below the attainable endpoint agreement
    monkeypatch.setattr(solver, "CLUSTER_TOL", 1e-18)
    opts = SolverOptions(starts=8)
    with pytest.raises(UniquenessAlarmError):
        minimize_U(MassVector(1.0, 2.0, 3.0, 1.0), opts)


def _start_bits(starts):
    return [(s.v.tobytes(), s.w.tobytes()) for s in starts]


def test_minimize_from_drawn_starts_leaves_them_unchanged(monkeypatch):
    from ccc4.solver import _draw_starts, _scan_values
    opts = SolverOptions()
    drawn = []

    def recording(opts):
        drawn.append(_draw_starts(opts))
        return drawn[-1]

    monkeypatch.setattr(solver, "_draw_starts", recording)
    m = MassVector(1.7, 0.4, 2.2, 0.9)
    row, = _scan_values([m])
    starts, = drawn
    assert _start_bits(starts) == _start_bits(_draw_starts(opts))
    rec = minimize_U(m, opts)
    assert row == (rec.k_value, rec.scalars.U, rec.multipliers.lam,
                   rec.is_cocircular, rec.iterations, rec.converged)


def _scan_rows_equal_standalone_records(masses, block_rows):
    # scan solves block_rows mass vectors at a time: below 3 rows (24
    # lanes) a block's descents, Newton steps and acceptance tests run on
    # floats, from 3 rows on as lanes; the record polish runs on lanes at
    # every block size.  Each row must hold the fields of its standalone
    # record, and a false uniqueness alarm must come at that row
    from ccc4.solver import _RowValues, _scan_values
    opts = SolverOptions()
    want = []
    for m in masses:
        try:
            rec = minimize_U(m, opts)
        except UniquenessAlarmError as exc:
            want.append(str(exc))
            break
        want.append(_RowValues(rec.k_value, rec.scalars.U, rec.multipliers.lam,
                               rec.is_cocircular, rec.iterations, rec.converged))
    got = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "SCAN_BLOCK_LANES", block_rows * opts.starts)
        try:
            got.extend(_scan_values(masses))
        except UniquenessAlarmError as exc:
            got.append(str(exc))
    assert [repr(x) for x in got] == [repr(x) for x in want]


@settings(derandomize=True, deadline=None, max_examples=20, database=None)
@given(st.integers(3, 40).flatmap(lambda n: st.lists(
    st.lists(st.floats(-6.0, 6.0), min_size=4, max_size=4), min_size=n, max_size=n)),
       st.integers(1, 40))
def test_scan_values_equal_standalone_records(log_masses, block_rows):
    # over six decades of mass a few solves raise a false uniqueness alarm
    _scan_rows_equal_standalone_records(
        [MassVector.from_iterable(10.0 ** np.array(x)) for x in log_masses], block_rows)


def _orbit_roots(perm):
    # the least body of each body's orbit under the relabeling perm
    roots = []
    for i in range(4):
        orbit, j = [i], perm[i] - 1
        while j != i:
            orbit.append(j)
            j = perm[j] - 1
        roots.append(min(orbit))
    return roots


@st.composite
def _tied_masses(draw):
    # mass vectors from three values times one factor each, every one fixed
    # by a sequential relabeling other than the identity: each orbit of the
    # relabeling takes one of the three values
    from ccc4.geometry import SEQUENTIAL_RELABELINGS
    values = draw(st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
    perms = [perm for name, perm in SEQUENTIAL_RELABELINGS.items() if name != "identity"]
    masses = []
    for _ in range(draw(st.integers(3, 30))):
        roots = _orbit_roots(draw(st.sampled_from(perms)))
        pick = draw(st.lists(st.integers(0, 2), min_size=4, max_size=4))
        factor = 10.0 ** draw(st.floats(-3.0, 3.0))
        masses.append(MassVector(*(factor * 10.0 ** values[pick[root]] for root in roots)))
    return masses


@pytest.mark.parametrize("block_rows", [2, 3, 16])
@settings(derandomize=True, deadline=None, max_examples=10, database=None)
@given(_tied_masses())
def test_scan_values_equal_standalone_records_at_tied_masses(block_rows, masses):
    # continuous log masses almost never tie; these do, with 1 to 7
    # relabelings other than the identity per row, in blocks of 16 lanes
    # (floats), 24 and 128 (lanes)
    from ccc4.geometry import _admissible_slots
    assert all(1 <= len(_admissible_slots(m)) <= 7 for m in masses)
    _scan_rows_equal_standalone_records(masses, block_rows)


def test_stacked_u_coefficients_have_the_per_vector_bits():
    # one (n, 6) evaluation against (m_i m_j)^{3/2} / sqrt(2M) per mass
    # vector, for log10 m_i uniform on [-6, 6] and mass products that
    # overflow into inf and NaN
    rng = np.random.default_rng(41)
    masses = np.vstack((10.0 ** rng.uniform(-6.0, 6.0, (5000, 4)),
                        [(1e200, 1e200, 1.0, 1.0), (1.5e308, 1.5e308, 1.0, 1.0)]))
    with np.errstate(over="ignore", invalid="ignore"):
        got = solver._u_coefficients(masses)
        want = []
        for m in map(MassVector.from_iterable, masses):
            want.extend((m.products() ** 1.5 / math.sqrt(2.0 * m.M)).tolist())
    assert math.isinf(want[-12]) and math.isnan(want[-6])
    assert [repr(x) for x in got.ravel().tolist()] == [repr(x) for x in want]


def test_row_tail_has_the_bits_of_the_record_functions():
    # the stacked r, K, U and lambda of scan rows against p_to_r, K_term,
    # potential_U and recover_multipliers row by row, at descent endpoints
    # and sampled interior points for log10 m_i uniform on [-6, 6]; the last
    # row's masses give no finite distances, and it raises as p_to_r does
    from ccc4 import kernels
    from ccc4.chart import p_to_r, sample_interior, square_chart_point, vw_to_p_floats
    from ccc4.errors import DegeneratePointError
    from ccc4.geometry import K_term, potential_U
    rng = np.random.default_rng(42)
    masses = [MassVector.from_iterable(10.0 ** rng.uniform(-6.0, 6.0, 4)) for _ in range(400)]
    masses.append(MassVector(2e-300, 2e-300, 2e-300, 4.0))
    square = square_chart_point()
    points = []
    for i, m in enumerate(masses):
        if i % 2:
            vw = sample_interior(rng)
            points.append((vw.v.tolist(), vw.w.tolist()))
        else:
            u = solver._u_coefficients(np.array([m.astuple()]))[0]
            points.append(kernels.descend(square.v, square.w, u, solver.NEWTON_SWITCH, 500)[:2])
    z = np.array([v + w for v, w in points]).T
    m = np.array([x.astuple() for x in masses])
    r = np.array(vw_to_p_floats(z[:3, :-1], z[3:, :-1])).T * solver._distance_factors(m[:-1])
    rows = solver._polished_rows(z, m, masses, list(range(len(masses))))
    for k, ((v, w), masses_k) in enumerate(zip(points[:-1], masses)):
        want = p_to_r(vw_to_p_floats(v, w), masses_k)
        K = K_term(want)
        assert repr(r[k].tolist()) == repr(list(want.astuple()))
        assert repr(next(rows)) == repr(solver._RowValues(
            K, potential_U(want, masses_k), recover_multipliers(want, masses_k).lam,
            solver._cocircular(K, want.astuple()), k, True))
    with pytest.raises(DegeneratePointError):
        p_to_r(vw_to_p_floats(*points[-1]), masses[-1])
    with pytest.raises(DegeneratePointError):
        next(rows)


def _multistart(masses, starts):
    # one mass vector's solve from every start: its _Row and the (6, n)
    # endpoints of its starts
    (_, _, z, _, _, rows), = solver._multistart_blocks([masses], starts, SolverOptions().gtol)
    row, = rows
    return row, z


def test_multistart_start_outside_E_is_an_unaccepted_endpoint():
    from ccc4.chart import VWPoint
    outside = VWPoint(v=np.array([0.0, 1.0, 0.0]), w=np.array([1.0, 0.0, 0.0]))
    row, z = _multistart(UNIT, [outside])
    assert z.shape == (6, 1)
    assert row.U == [math.inf] and row.best == 0
    assert row.clusters == []


def test_lane_rows_cluster_as_clusters_does_at_the_radius(monkeypatch):
    # a lane row forms one cluster without math.dist only where every
    # endpoint lies inside the first one's radius by a margin; with the
    # radius set just below, at and just above the largest distance from
    # the first endpoint, its clusters must be those _clusters forms from
    # the same canonical copies
    from ccc4 import kernels
    from ccc4.chart import p_to_r, seeded_start, vw_to_p_floats
    from ccc4.geometry import canonical_distance_tuple
    starts = [seeded_start(9, i) for i in range(kernels.LANES_MIN)]
    masses = MassVector(1.0, 2.0, 3.0, 4.0)
    row, z = _multistart(masses, starts)
    members = sorted(j for _, group in row.clusters for j in group)
    assert len(members) > 2
    canons = []
    for j in members:
        zj = z[:, j].tolist()
        canons.append(canonical_distance_tuple(p_to_r(vw_to_p_floats(zj[:3], zj[3:]), masses),
                                               masses))
    gap = max(math.dist(c, canons[0]) for c in canons[1:])
    assert gap > 0.0
    counts = set()
    for scale in (1.0 - 1e-9, 1.0 - 1e-14, 1.0, 1.0 + 1e-14, 1.0 + 1e-9):
        monkeypatch.setattr(solver, "CLUSTER_TOL", gap / max(canons[0]) * scale)
        row, _ = _multistart(masses, starts)
        assert row.clusters == solver._clusters(members, canons)
        counts.add(len(row.clusters))
    assert counts == {1, 2}


def test_multistart_representatives_are_canonical_distance_tuples():
    # the per-solve relabeling set must canonicalize as the per-vector rule
    from ccc4.chart import p_to_r, seeded_start, vw_to_p_floats
    from ccc4.geometry import canonical_distance_tuple
    starts = [seeded_start(5, i) for i in range(6)]
    for masses in ((1.0, 1.0, 1.0, 1.0), (2.0, 2.0, 1.0, 1.0), (1.0, 3.0, 3.0, 1.0),
                   (1.0, 2.0, 1.0, 2.0), (0.5, 1.5, 0.5, 2.5)):
        m = MassVector(*masses)
        row, z = _multistart(m, starts)
        for rep, members in row.clusters:
            first = z[:, members[0]].tolist()
            r = p_to_r(vw_to_p_floats(first[:3], first[3:]), m)
            assert tuple(rep) == canonical_distance_tuple(r, m)


def test_a_block_runs_on_floats_below_lanes_min_and_on_lanes_from_it(monkeypatch):
    # the one switch of a block: below LANES_MIN lanes each lane runs
    # descend and _newton_polish and no lane function runs; from LANES_MIN
    # on each lane function runs once and no scalar function runs.  The
    # starts both blocks share end with the same bits, U, iterations and
    # acceptance
    from collections import Counter
    from ccc4 import kernels
    from ccc4.chart import seeded_start
    calls = Counter()
    for module, name in ((kernels, "descend"), (solver, "_newton_polish"),
                         (kernels, "descend_lanes"), (solver, "_newton_polish_lanes"),
                         (solver, "_lane_rows")):
        def counted(*args, _original=getattr(module, name), _name=name):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    low = kernels.LANES_MIN
    runs = []
    for count, scalar, lanes in ((low - 1, low - 1, 0), (low, 0, 1)):
        calls.clear()
        row, z = _multistart(MassVector(1.0, 2.0, 3.0, 4.0),
                             [seeded_start(9, i) for i in range(count)])
        assert calls == Counter(descend=scalar, _newton_polish=scalar, descend_lanes=lanes,
                                _newton_polish_lanes=lanes, _lane_rows=lanes)
        assert len(row.clusters) == 1
        shared = range(low - 1)
        accepted = [j in row.clusters[0][1] for j in shared]
        runs.append((row.U[:low - 1], row.iterations[:low - 1], accepted,
                     z[:, :low - 1].tobytes()))
    assert runs[0] == runs[1]


def _fresh_starts(seed, starts=8):
    # the starts of _draw_starts, each from a Generator built for the call
    from ccc4.chart import sample_interior, square_chart_point
    return [square_chart_point()] + [
        sample_interior(np.random.default_rng(np.random.SeedSequence(entropy=(seed, i))))
        for i in range(1, starts)]


def test_drawn_starts_do_not_depend_on_earlier_draws(monkeypatch):
    from ccc4 import chart
    from ccc4.solver import _draw_starts
    want = {seed: _start_bits(_fresh_starts(seed)) for seed in (0, 1, 7)}
    for _ in range(3):
        assert _start_bits(_draw_starts(SolverOptions())) == want[0]
    for seed in (0, 1, 7, 7, 1, 0, 1, 7, 0):
        assert _start_bits(_draw_starts(SolverOptions(seed=seed))) == want[seed], seed
    # a full cache is emptied and refilled, never grown past its bound
    monkeypatch.setattr(chart, "_GENERATORS", {})
    monkeypatch.setattr(chart, "MAX_GENERATORS", 5)
    for seed in (0, 1, 7, 0):
        assert _start_bits(_draw_starts(SolverOptions(seed=seed))) == want[seed], seed
        assert len(chart._GENERATORS) <= 5


def test_threads_draw_the_same_starts_and_records(monkeypatch):
    import sys
    from concurrent.futures import ThreadPoolExecutor
    from threading import Barrier
    from ccc4 import chart
    from ccc4.solver import _draw_starts
    m = MassVector(1.0, 2.0, 3.0, 4.0)
    want_starts = tuple(_start_bits(_fresh_starts(0)))
    want = minimize_U(m).to_json()
    # a cache smaller than 4 threads x 7 streams is emptied while the
    # threads draw, and each switch interval interleaves them finely
    monkeypatch.setattr(chart, "_GENERATORS", {})
    monkeypatch.setattr(chart, "MAX_GENERATORS", 10)
    barrier = Barrier(4)

    def work():
        barrier.wait(timeout=60)
        texts, starts = set(), set()
        for _ in range(20):
            texts.add(minimize_U(m).to_json())
            starts.add(tuple(_start_bits(_draw_starts(SolverOptions()))))
            assert len(chart._GENERATORS) <= 10
        return texts, starts

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(work) for _ in range(4)]
            results = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert results == [({want}, {want_starts})] * 4
