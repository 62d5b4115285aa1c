"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured quantities (visible under pytest -s or on failure)."""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from ccc4 import cli
from ccc4.geometry import MassVector
from ccc4.inverse import masses_from_shape
from ccc4.oracle import (cartesian_cc_residual, embed_cyclic, fd_hessian,
                         multistart_uniqueness, run_identity_battery)
from ccc4.solver import (certify_minimum, hessian_L, lagrangian_L, minimize_U,
                         recover_multipliers, sigma_sq_values)

from helpers import random_planar_distance_vectors, subprocess_env

SQRT2 = math.sqrt(2.0)
LAMBDA_SQ = 0.5 * (1.0 + 2.0 ** -1.5)


@pytest.fixture(scope="module")
def identity_battery():
    t0 = time.perf_counter()
    rows = run_identity_battery(samples=10000, seed=1)
    elapsed = time.perf_counter() - t0
    return {row.name: row for row in rows}, elapsed


@pytest.fixture(scope="module")
def random_mass_records():
    rng = np.random.default_rng(2024)
    masses = [MassVector.from_iterable(
        np.exp(rng.uniform(np.log(0.2), np.log(5.0), 4))) for _ in range(20)]
    records = [minimize_U(m) for m in masses]
    return masses, records


def test_criterion_1_equal_mass_square(tmp_path, capsys):
    t0 = time.perf_counter()
    out = tmp_path / "rec.json"
    code = cli.main(["solve", "--masses", "1,1,1,1", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    doc = json.loads(out.read_text())
    r = [doc["r_star"][k] for k in ("r12", "r13", "r14", "r23", "r24", "r34")]
    want = [1.0, SQRT2, 1.0, 1.0, SQRT2, 1.0]
    assert np.allclose(r, want, atol=1e-8, rtol=0.0)
    assert doc["multipliers"]["lambda"] == pytest.approx(LAMBDA_SQ, abs=1e-9)
    assert doc["multipliers"]["sigma"] == pytest.approx(1.0 - LAMBDA_SQ, abs=1e-9)
    assert all(d > 0.0 for d in doc["minors"])
    assert abs(doc["k_value"]) <= 1e-10
    assert elapsed < 1.0
    print(f"criterion 1 PASS: square to {np.max(np.abs(np.array(r) - want)):.2e}, "
          f"lambda err {abs(doc['multipliers']['lambda'] - LAMBDA_SQ):.2e}, "
          f"{elapsed:.2f}s")


def test_criterion_2_pech_identity_suite(identity_battery):
    rows, elapsed = identity_battery
    pech = rows["pech_identity"]
    anchors = rows["pech_anchor_points"]
    assert pech.samples == 10000
    assert pech.passed and anchors.passed
    # the battery also covers criteria 3 and 4 in the same pass; its total
    # runtime must fit their combined budget (5 + 10 + 5 seconds)
    assert elapsed < 20.0
    print(f"criterion 2 PASS: max normalized residual {pech.max_residual:.2e} "
          f"<= 1e-9, battery {elapsed:.1f}s")


def test_criterion_3_gradient_parallelism(identity_battery):
    rows, _ = identity_battery
    row = rows["gradient_parallelism"]
    assert row.samples == 1000
    assert row.max_residual <= 1e-6
    print(f"criterion 3 PASS: max relative deviation {row.max_residual:.2e} <= 1e-6")


def test_criterion_4_circumradius_relation(identity_battery):
    rows, _ = identity_battery
    row = rows["circumradius_relation"]
    assert row.samples == 1000
    assert row.max_residual <= 1e-9
    print(f"criterion 4 PASS: max relative residual {row.max_residual:.2e} <= 1e-9")


def test_criterion_5_uniqueness_reproduction(random_mass_records):
    masses, _ = random_mass_records
    t0 = time.perf_counter()
    for i, m in enumerate(masses):
        report = multistart_uniqueness(m, n_starts=50, seed=100 + i)
        assert report.cluster_count == 1, (m, report)
        assert not report.theorem_violated
        assert report.failures == ()
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    print(f"criterion 5 PASS: 20 mass vectors x 50 starts, one cluster each, "
          f"{elapsed:.1f}s")


def test_criterion_6_certification_invariants(random_mass_records):
    _, records = random_mass_records
    rec_sq = minimize_U(MassVector(1.0, 1.0, 1.0, 1.0))
    checked = embedded = 0
    for rec in [rec_sq, *records]:
        assert rec.converged
        assert rec.multipliers.lam > 0.0
        assert min(rec.minors) > 0.0
        assert rec.dziobek_residual <= 1e-9
        s2 = sigma_sq_values(rec.r_star, rec.masses, rec.multipliers.lam)
        spread = (s2.max() - s2.min()) / np.abs(s2).max()
        assert spread <= 1e-9
        assert certify_minimum(rec).passed
        if rec.is_cocircular:
            cfg = embed_cyclic(rec.r_star, rec.masses)
            assert cartesian_cc_residual(cfg, fit=True) <= 1e-7
            embedded += 1
        checked += 1
    print(f"criterion 6 PASS: {checked} converged records certified "
          f"({embedded} co-circular, Cartesian-checked)")


def test_criterion_7_inverse_round_trip():
    t0 = time.perf_counter()
    for masses, expect_cocircular in (((2.0, 2.0, 1.0, 1.0), True),
                                      ((1.0, 3.0, 1.0, 3.0), None)):
        rec = minimize_U(MassVector.from_iterable(masses))
        assert rec.converged
        if expect_cocircular is not None:
            assert rec.is_cocircular == expect_cocircular
        got = masses_from_shape(rec.r_star)
        want = MassVector.from_iterable(masses).normalized(4.0)
        rel = max(abs(a - b) / b for a, b in zip(got.astuple(), want.astuple()))
        assert rel <= 1e-7
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0
    print(f"criterion 7 PASS: mass recovery round trips to <= 1e-7, {elapsed:.2f}s")


def test_criterion_8_finite_difference_hessian():
    rng = np.random.default_rng(88)
    t0 = time.perf_counter()
    worst = 0.0
    for arr in random_planar_distance_vectors(100, seed=99):
        m = MassVector.from_iterable(rng.uniform(0.2, 5.0, 4))
        mult = recover_multipliers(arr, m)
        H = hessian_L(arr, m, mult)
        fd = fd_hessian(lambda x: lagrangian_L(x, m, mult.lam, mult.sigma),
                        arr, h=1e-4 * np.maximum(1.0, arr))
        rel = float(np.linalg.norm(fd - H) / np.linalg.norm(H))
        worst = max(worst, rel)
        assert rel <= 1e-6
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 8 PASS: worst relative Frobenius error {worst:.2e} <= 1e-6, "
          f"{elapsed:.1f}s")


def test_criterion_9_scan_reproducible_and_thin(tmp_path):
    t0 = time.perf_counter()
    outputs = []
    for jobs in (1, 8):
        out = tmp_path / f"scan_j{jobs}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "ccc4", "scan", "--grid", "6",
             "--jobs", str(jobs), "--out", str(out)],
            capture_output=True, text=True, timeout=540, env=subprocess_env())
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]

    lines = outputs[0].decode().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    assert len(rows) == 216
    cocircular = set()
    equal_mass_row = None
    for flat, cells in enumerate(rows):
        assert cells[9] == "true"
        idx = (flat // 36, (flat // 6) % 6, flat % 6)
        if cells[7] == "true":
            cocircular.add(idx)
        if all(float(cells[k]) == 1.0 for k in range(4)):
            equal_mass_row = idx
    assert equal_mass_row is not None
    assert equal_mass_row in cocircular
    # thin: a sliver of the grid, not a volume
    assert len(cocircular) <= 36
    # connected under queen adjacency (diagonal steps allowed: the symmetric
    # mass families advance two grid indices at a time)
    seen = {equal_mass_row}
    frontier = [equal_mass_row]
    while frontier:
        cur = frontier.pop()
        for other in cocircular - seen:
            if max(abs(a - b) for a, b in zip(cur, other)) <= 1:
                seen.add(other)
                frontier.append(other)
    assert seen == cocircular, f"disconnected co-circular set: {sorted(cocircular)}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    print(f"criterion 9 PASS: byte-identical scans, {len(cocircular)} co-circular "
          f"rows, connected, {elapsed:.1f}s")
