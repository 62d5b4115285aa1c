import json
import subprocess
import sys

import pytest

from ccc4 import cli, solver

from helpers import subprocess_env


def run_cli(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_solve_equal_masses(capsys):
    code, out, err = run_cli(["solve", "--masses", "1,1,1,1"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["converged"] is True
    assert doc["is_cocircular"] is True
    assert doc["r_star"]["r13"] == pytest.approx(2.0 ** 0.5, abs=1e-8)
    assert doc["multipliers"]["lambda"] == pytest.approx(0.6767766952966369, abs=1e-9)


def test_solve_rejects_nonpositive_masses(capsys):
    code, out, err = run_cli(["solve", "--masses", "1,1,1,-1"], capsys)
    assert code == 64
    assert "positive" in err


def test_solve_rejects_malformed_masses(capsys):
    assert run_cli(["solve", "--masses", "1,1,1"], capsys)[0] == 64
    assert run_cli(["solve", "--masses", "a,b,c,d"], capsys)[0] == 64


def test_solve_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    args = ["solve", "--masses", "2,2,1,1", "--starts", "12", "--seed", "7"]
    assert run_cli(args + ["--out", str(out1)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_nonconvergence_exit_code(capsys):
    # a tolerance below attainable float accuracy cannot be certified
    code, out, err = run_cli(["solve", "--masses", "1.3,0.6,2.1,0.9",
                              "--tol", "1e-30"], capsys)
    assert code == 2
    assert json.loads(out)["converged"] is False


def test_solve_rejects_too_few_starts(capsys):
    for starts in ("0", "-2"):
        code, out, err = run_cli(["solve", "--masses", "1,2,3,4", "--starts", starts],
                                 capsys)
        assert code == 64 and out == ""
        assert "--starts" in err


def test_solve_rejects_negative_seed(capsys):
    code, out, err = run_cli(["solve", "--masses", "1,2,3,4", "--seed", "-1"], capsys)
    assert code == 64 and out == ""
    assert "--seed" in err


def test_solve_rejects_nonpositive_tol(capsys):
    for tol in ("0", "-1e-9", "nan", "inf"):
        code, out, err = run_cli(["solve", "--masses", "1,2,3,4", "--tol", tol], capsys)
        assert code == 64 and out == ""
        assert "--tol" in err


def test_solve_unwritable_output(capsys):
    code, out, err = run_cli(["solve", "--masses", "1,1,1,1",
                              "--out", "/nonexistent-dir/x.json"], capsys)
    assert code == 73


def test_scan_smoke_grid(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, _, _ = run_cli(["scan", "--grid", "2", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# ccc4-schema=1"
    assert lines[1] == "m1,m2,m3,m4,K_star,U_star,lambda,is_cocircular,iterations,converged"
    rows = lines[2:]
    assert len(rows) == 8
    for row in rows:
        cells = row.split(",")
        assert len(cells) == 10
        assert cells[9] == "true"


def test_scan_jobs_reproducible(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli(["scan", "--grid", "2", "--jobs", "1", "--out", str(a)], capsys)[0] == 0
    assert run_cli(["scan", "--grid", "2", "--jobs", "4", "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_scan_jobs_env_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CCC4_JOBS", "3")
    out = tmp_path / "env.csv"
    assert run_cli(["scan", "--grid", "2", "--out", str(out)], capsys)[0] == 0


def test_scan_ignores_ccc4_jobs(tmp_path, capsys, monkeypatch):
    plain = tmp_path / "plain.csv"
    assert run_cli(["scan", "--grid", "2", "--out", str(plain)], capsys)[0] == 0
    monkeypatch.setenv("CCC4_JOBS", "abc")
    env = tmp_path / "env.csv"
    assert run_cli(["scan", "--grid", "2", "--out", str(env)], capsys)[0] == 0
    assert env.read_bytes() == plain.read_bytes()


def test_scan_flag_validation(capsys):
    assert run_cli(["scan", "--grid", "1"], capsys)[0] == 64
    assert run_cli(["scan", "--grid", "2", "--fix", "m9=1"], capsys)[0] == 64
    assert run_cli(["scan", "--grid", "2", "--fix", "m4=-1"], capsys)[0] == 64
    assert run_cli(["scan", "--grid", "2", "--jobs", "0"], capsys)[0] == 64


def test_scan_unwritable(capsys):
    code, _, _ = run_cli(["scan", "--grid", "2", "--out", "/nonexistent-dir/s.csv"],
                         capsys)
    assert code == 73


def test_inverse_square_degrees(capsys):
    code, out, err = run_cli(["inverse", "--angles", "0,90,180,270", "--degrees"],
                             capsys)
    assert code == 0
    doc = json.loads(out)
    for key in ("m1", "m2", "m3", "m4"):
        assert doc[key] == pytest.approx(1.0, rel=1e-9)
    assert doc["diagnostics"]["compat_residual"] <= 1e-12


def test_inverse_generic_infeasible(capsys):
    code, out, err = run_cli(["inverse", "--angles", "0,50,180,300", "--degrees"],
                             capsys)
    assert code == 1
    assert out.startswith("infeasible:")


def test_inverse_coincident_angles(capsys):
    code, _, err = run_cli(["inverse", "--angles", "0,0,90,180", "--degrees"], capsys)
    assert code == 64


@pytest.mark.parametrize("angles", ["0,1,2,nan", "0,1,2,inf"])
def test_inverse_nonfinite_angle_is_named(angles, capsys):
    code, _, err = run_cli(["inverse", "--angles", angles], capsys)
    assert code == 64
    assert "angles must be finite" in err


def test_inverse_flag_validation(capsys):
    assert run_cli(["inverse", "--angles", "0,1,2"], capsys)[0] == 64
    assert run_cli(["inverse", "--angles", "0,1,2,3", "--radius", "-2"], capsys)[0] == 64


@pytest.mark.parametrize("angles, radius, code", [
    ("0,1,2,3", "1e-110", 1), ("0,1,2,3", "1e-200", 1),
    ("0,0.1,0.2,0.3", "5e-324", 64), ("0,1,2,3", "1.7e308", 64)])
def test_inverse_at_extreme_radii_ends_without_traceback(angles, radius, code, capsys):
    # an infeasible shape whose multiplier gap overflows at the raw scale
    # reports it as inf; chords that under- or overflow are a usage error
    got, out, err = run_cli(["inverse", "--angles", angles, "--radius", radius], capsys)
    assert got == code
    if code == 1:
        assert out == "infeasible: Dziobek multipliers of the two pairings disagree (inf)\n"
    else:
        assert out == "" and "must be positive and finite" in err


def test_certify_fresh_record(tmp_path, capsys):
    rec_path = tmp_path / "rec.json"
    assert run_cli(["solve", "--masses", "1,1,1,1", "--out", str(rec_path)],
                   capsys)[0] == 0
    code, out, _ = run_cli(["certify", "--in", str(rec_path)], capsys)
    assert code == 0
    assert "certificate: PASS" in out
    assert "cartesian_embedding: ok" in out


def test_certify_tampered_record(tmp_path, capsys):
    rec_path = tmp_path / "rec.json"
    assert run_cli(["solve", "--masses", "2,2,1,1", "--out", str(rec_path)],
                   capsys)[0] == 0
    doc = json.loads(rec_path.read_text())
    doc["multipliers"]["lambda"] += 0.01
    rec_path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["certify", "--in", str(rec_path)], capsys)
    assert code == 1
    assert "certificate: FAIL" in out
    assert "stationarity: FAIL" in out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("field, key, value", [("multipliers", "lambda", 1e308),
                                                ("r_star", "r12", 1e-200),
                                                ("r_star", "r12", 1e200)])
def test_certify_prints_a_failing_certificate_where_a_power_overflows(
        field, key, value, tmp_path, capsys):
    # lambda^2, r^-3 and (max r)^3 overflow the float range: the checks
    # that read them fail instead of raising OverflowError, and numpy's
    # floating-point warnings, here errors, stay silent
    rec_path = tmp_path / "rec.json"
    assert run_cli(["solve", "--masses", "1,1,1,1", "--out", str(rec_path)],
                   capsys)[0] == 0
    doc = json.loads(rec_path.read_text())
    doc[field][key] = value
    rec_path.write_text(json.dumps(doc))
    code, out, _ = run_cli(["certify", "--in", str(rec_path)], capsys)
    assert code == 1
    assert out.endswith("certificate: FAIL\n")


@pytest.mark.parametrize("scale", [10.0 ** e for e in range(-2, 7)])
def test_certify_passes_cocircular_records_at_every_mass_scale(scale, tmp_path, capsys):
    # the Cartesian residual is a force, which grows as scale^3; against
    # an absolute threshold these correct records failed from 1e3 on
    masses = ",".join(repr(scale * m) for m in (2.0, 2.0, 1.0, 1.0))
    rec_path = tmp_path / "rec.json"
    assert run_cli(["solve", "--masses", masses, "--out", str(rec_path)], capsys)[0] == 0
    code, out, _ = run_cli(["certify", "--in", str(rec_path)], capsys)
    assert "cartesian_embedding: ok" in out
    assert code == 0


def test_certify_unreadable_inputs(tmp_path, capsys):
    assert run_cli(["certify", "--in", str(tmp_path / "missing.json")], capsys)[0] == 66
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["certify", "--in", str(bad)], capsys)[0] == 66
    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text('{"masses": {"m1": 1.0}}')
    assert run_cli(["certify", "--in", str(incomplete)], capsys)[0] == 66


def test_identities_table(capsys):
    code, out, _ = run_cli(["identities", "--samples", "300", "--seed", "1"], capsys)
    assert code == 0
    for name in ("pech_identity", "pech_anchor_points", "cyclic_K_vanishes",
                 "cyclic_H_vanishes", "gradient_parallelism",
                 "circumradius_relation", "homogeneity_degrees"):
        assert name in out
    assert "FAIL" not in out


def test_identities_flag_validation(capsys):
    assert run_cli(["identities", "--samples", "0"], capsys)[0] == 64


def test_identities_rejects_negative_seed(capsys):
    code, out, err = run_cli(["identities", "--seed", "-3"], capsys)
    assert code == 64 and out == ""
    assert "--seed" in err


def test_unknown_subcommand(capsys):
    assert run_cli(["frobnicate"], capsys)[0] == 64
    assert run_cli([], capsys)[0] == 64


def test_console_entry_point_subprocess(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ccc4", "solve", "--masses", "1,1,1,1"],
        capture_output=True, text=True, timeout=120, env=subprocess_env())
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["is_cocircular"] is True


def test_scan_sentinel_fields_for_nonconverged(tmp_path, capsys, monkeypatch):
    # force non-converged row values through the row formatter
    from ccc4 import cli as cli_mod

    real_values = cli_mod._scan_values

    def crippled(masses_list):
        return [row._replace(converged=False) for row in real_values(masses_list)]

    monkeypatch.setattr(cli_mod, "_scan_values", crippled)
    out = tmp_path / "scan.csv"
    assert cli_mod.main(["scan", "--grid", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    for row in out.read_text().splitlines()[2:]:
        cells = row.split(",")
        assert cells[4] == "" and cells[5] == "" and cells[6] == "" and cells[7] == ""
        assert cells[9] == "false"
        assert cells[8].isdigit()


def test_solve_rejects_nonfinite_masses(capsys):
    for bad in ("nan", "inf"):
        code, out, err = run_cli(["solve", "--masses", f"1,1,1,{bad}"], capsys)
        assert code == 64 and out == ""
        assert "masses must be positive and finite" in err


def test_scan_rejects_nonfinite_fixed_mass(capsys):
    for bad in ("nan", "inf"):
        code, out, err = run_cli(["scan", "--grid", "2", "--fix", f"m4={bad}"], capsys)
        assert code == 64 and out == ""
        assert "masses must be positive and finite" in err


@pytest.mark.parametrize("argv", [["solve", "--masses", "1e-170,1e-170,1,1"],
                                  ["solve", "--masses", "5e-324,1,1,1"],
                                  ["scan", "--grid", "2", "--fix", "m4=1e300"]])
def test_masses_without_finite_distances_exit_1(argv, capsys):
    # a mass product that under- or overflows leaves no finite distance
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "no positive finite distances" in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fix", ["m4=5e-324", "m1=5e-324"])
def test_scan_row_whose_normalized_mass_rounds_to_zero_exits_1(fix, capsys):
    # at the row (3, 3, 3) of the free masses, 4 / M times 5e-324 rounds
    # to 0.0: the scan ends in one error line naming the row's masses, as a
    # row without finite distances does, not in a traceback
    code, out, err = run_cli(["scan", "--grid", "2", "--fix", fix], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: masses (") and err.count("\n") == 1
    assert "5e-324" in err and "got 0.0" in err


@pytest.mark.parametrize("fix", ["m4=1", "m4=1e-5"])
def test_scan_prints_the_same_bytes_on_the_public_least_squares_route(fix, capsys, monkeypatch):
    # numpy 1.x has no stacked lstsq kernel, and _least_squares then solves
    # each row by np.linalg.lstsq: a whole scan must print the same bytes
    argv = ["scan", "--grid", "4" if fix == "m4=1" else "3", "--fix", fix]
    kernel = run_cli(argv, capsys)
    monkeypatch.setattr(solver, "_LSTSQ_KERNEL", None)
    assert run_cli(argv, capsys) == kernel
    assert kernel[0] == 0 and len(kernel[1].splitlines()) > 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("masses", ["1e150,1e150,1,1", "1e200,1,1,1"])
def test_masses_whose_coefficients_or_determinant_overflow_exit_1(masses, capsys):
    # (m_i m_j)^{3/2} overflows at the first, the Cayley-Menger determinant
    # of the record at the second; the inf they carry ends in the
    # rank-deficient error, and numpy's warnings, here errors, stay silent
    code, out, err = run_cli(["solve", "--masses", masses], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: stationarity system is rank-deficient")


@pytest.mark.parametrize("argv", [["solve", "--masses", "1,2,3,1"], ["scan", "--grid", "2"],
                                  ["scan", "--grid", "4"]])
def test_uniqueness_alarm_exits_3(argv, capsys, monkeypatch):
    # a cluster radius below the attainable endpoint agreement splits the
    # endpoints of one minimizer into several clusters
    monkeypatch.setattr(solver, "CLUSTER_TOL", 1e-18)
    code, out, err = run_cli(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: multistart endpoints form")


def test_scan_rows_that_did_not_converge_print_sentinels(capsys, monkeypatch):
    # --grid 4 descends its 512 starts together, --grid 2 one by one
    monkeypatch.setattr(solver, "MAX_ITER", 2)
    monkeypatch.setattr(solver, "MAX_NEWTON", 0)
    for grid in ("2", "4"):
        code, out, _ = run_cli(["scan", "--grid", grid], capsys)
        assert code == 0
        rows = [row.split(",") for row in out.splitlines()[2:]]
        failed = [cells for cells in rows if cells[9] != "true"]
        assert failed
        for cells in failed:
            assert cells[4:8] == ["", "", "", ""]
            assert cells[9] == "false" and int(cells[8]) <= 2


@pytest.mark.parametrize(
    "fix, block_lanes",
    [("m4=1", solver.SCAN_BLOCK_LANES), ("m2=1.7", solver.SCAN_BLOCK_LANES),
     ("m4=1e-3", solver.SCAN_BLOCK_LANES), ("m4=1e-3", 8), ("m4=1e-3", 24)],
    ids=["m4=1", "m2=1.7", "m4=1e-3", "m4=1e-3-block8", "m4=1e-3-block24"])
def test_scan_rows_equal_standalone_solves(fix, block_lanes, capsys, monkeypatch):
    # scan draws its starts once per grid, descends the starts of
    # block_lanes // 8 rows together and computes only the printed fields;
    # each row must still print the fields of the record of a standalone
    # minimize_U of that row's normalized masses.  At m4=1e-3 a few of the
    # 512 descents run past 100 iterations and end in kernels.descend.
    # Blocks of 8 lanes descend one row each, lane by lane (below
    # LANES_MIN); blocks of 24 descend three rows in lockstep; the default
    # descends all 64 rows in one block.
    from ccc4.solver import minimize_U
    monkeypatch.setattr(solver, "SCAN_BLOCK_LANES", block_lanes)

    def standalone_values(masses_list):
        recs = [minimize_U(masses) for masses in masses_list]
        return [solver._RowValues(rec.k_value, rec.scalars.U, rec.multipliers.lam,
                                  rec.is_cocircular, rec.iterations, rec.converged)
                for rec in recs]

    code, shared, _ = run_cli(["scan", "--grid", "4", "--fix", fix], capsys)
    assert code == 0
    monkeypatch.setattr(cli, "_scan_values", standalone_values)
    code, standalone, _ = run_cli(["scan", "--grid", "4", "--fix", fix], capsys)
    assert code == 0
    assert len(shared.splitlines()) == 2 + 4 ** 3
    assert shared == standalone


def test_scan_leaves_its_starts_unchanged(capsys, monkeypatch):
    # one draw per scan, in one block of 8 rows and in 8 blocks of one row
    from ccc4.solver import SolverOptions, _draw_starts

    drawn = []

    def recording(opts):
        drawn.append(_draw_starts(opts))
        return drawn[-1]

    monkeypatch.setattr(solver, "_draw_starts", recording)
    fresh = _draw_starts(SolverOptions())
    for block_lanes in (solver.SCAN_BLOCK_LANES, 8):
        monkeypatch.setattr(solver, "SCAN_BLOCK_LANES", block_lanes)
        drawn.clear()
        assert run_cli(["scan", "--grid", "2"], capsys)[0] == 0
        assert len(drawn) == 1
        assert [(s.v.tobytes(), s.w.tobytes()) for s in drawn[0]] == \
            [(s.v.tobytes(), s.w.tobytes()) for s in fresh]


@pytest.mark.parametrize("argv", [
    [], ["frobnicate"], ["--help"], ["solve"], ["solve", "--help"],
    ["solve", "--masses", "1,2,3"], ["scan", "--grid", "two"], ["scan", "--grid", "1"],
    ["identities", "--samples", "0"], ["certify"],
])
def test_the_process_parser_prints_what_a_fresh_parser_prints(argv, capsys, monkeypatch):
    # main builds its parser once per process; after other parses it must
    # print the bytes of a newly built one
    assert cli._parser() is cli._parser()
    run_cli(["inverse", "--angles", "0,90,180,270", "--degrees"], capsys)
    run_cli(["solve", "--masses", "x"], capsys)
    got = run_cli(argv, capsys)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert got == run_cli(argv, capsys)
