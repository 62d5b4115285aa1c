"""Command-line front end.

Subcommands: solve (one mass vector), scan (mass-simplex sweep to CSV),
inverse (masses from a cyclic shape), certify (re-check a stored record),
identities (randomized identity battery).  All outputs are machine
readable and byte-reproducible for fixed flags and seed.

Exit codes: 0 success; 1 infeasible inverse or failed certificate;
2 solver non-convergence; 3 multistart uniqueness alarm; 64 usage error;
66 unreadable input file; 73 unwritable output file.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import math
import sys

import numpy as np

from .errors import (CCC4Error, DegeneratePointError, IndeterminateShapeError,
                     InfeasibleShapeError, NonRealizableError, UniquenessAlarmError)
from .geometry import MassVector
from .inverse import CyclicShape, recover_masses, shape_to_distances
from .oracle import cartesian_cc_residual, embed_cyclic, run_identity_battery
from .serialize import dumps, format_float
from .solver import (SolveRecord, SolverOptions, _scaled_check, _scan_values,
                     certify_minimum, minimize_U)

EX_OK = 0
EX_FAIL = 1
EX_NOCONV = 2
EX_ALARM = 3
EX_USAGE = 64
EX_NOINPUT = 66
EX_CANTCREAT = 73

SCAN_SCHEMA_LINE = "# ccc4-schema=1"
SCAN_HEADER = "m1,m2,m3,m4,K_star,U_star,lambda,is_cocircular,iterations,converged"
SCAN_GRID_LO = 0.5
SCAN_GRID_HI = 3.0

# Cartesian residual of `certify`, relative to the record's largest pair
# force m_i m_j / r_ij^2: the residual is a force, so it grows as c^3
# under m -> c m.
CARTESIAN_RTOL = 1e-7


class _Parser(argparse.ArgumentParser):
    """argparse with the conventional usage-error exit code."""

    def error(self, message):
        raise SystemExit(_usage_error(self, message))


def _usage_error(parser, message):
    parser.print_usage(sys.stderr)
    print(f"{parser.prog}: error: {message}", file=sys.stderr)
    return EX_USAGE


def _parse_floats(text, count, what, parser):
    parts = text.split(",")
    if len(parts) != count:
        raise SystemExit(_usage_error(parser, f"expected {count} {what}, got {len(parts)}"))
    try:
        return [float(p) for p in parts]
    except ValueError:
        raise SystemExit(_usage_error(parser, f"malformed {what}: {text!r}"))


def _positive_finite(value: float) -> bool:
    return 0.0 < value < math.inf


def _write_output(text, path):
    if path is None:
        sys.stdout.write(text)
        return EX_OK
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc}", file=sys.stderr)
        return EX_CANTCREAT
    return EX_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="ccc4", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="minimize the potential for one mass vector")
    p_solve.add_argument("--masses", required=True,
                         help="comma-separated m1,m2,m3,m4 (all positive)")
    p_solve.add_argument("--starts", type=int, default=8)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--tol", type=float, default=None,
                         help="projected-gradient tolerance (relative)")
    p_solve.add_argument("--out", default=None, help="write the record JSON here")

    p_scan = sub.add_parser("scan", help="sweep the normalized mass simplex to CSV")
    p_scan.add_argument("--grid", type=int, required=True,
                        help=f"points per free mass axis over "
                             f"[{SCAN_GRID_LO}, {SCAN_GRID_HI}] (N >= 2)")
    p_scan.add_argument("--fix", default="m4=1",
                        help="hold one mass fixed, e.g. m4=1 (default)")
    p_scan.add_argument("--out", default=None, help="write CSV here")
    p_scan.add_argument("--jobs", type=int, default=1,
                        help="accepted for compatibility (N >= 1); scan runs in "
                             "one thread, so it changes neither the work nor the "
                             "output bytes")

    p_inv = sub.add_parser("inverse", help="recover masses from a cyclic shape")
    p_inv.add_argument("--angles", required=True,
                       help="comma-separated a1,a2,a3,a4, strictly increasing")
    p_inv.add_argument("--degrees", action="store_true",
                       help="angles are in degrees instead of radians")
    p_inv.add_argument("--radius", type=float, default=1.0)

    p_cert = sub.add_parser("certify", help="re-certify a stored solve record")
    p_cert.add_argument("--in", dest="infile", required=True,
                        help="SolveRecord JSON file")

    p_id = sub.add_parser("identities", help="run the randomized identity battery")
    p_id.add_argument("--samples", type=int, default=10000)
    p_id.add_argument("--seed", type=int, default=1)
    return parser


@functools.cache
def _parser() -> _Parser:
    # parsing leaves the parser as it was, so one per process serves every
    # call of main
    return build_parser()


def cmd_solve(args, parser) -> int:
    values = _parse_floats(args.masses, 4, "masses", parser)
    if not all(_positive_finite(v) for v in values):
        return _usage_error(parser, "masses must be positive and finite")
    if args.starts < 1:
        return _usage_error(parser, "--starts must be at least 1")
    if args.seed < 0:
        return _usage_error(parser, "--seed must be non-negative")
    if args.tol is not None and not (0.0 < args.tol < math.inf):
        return _usage_error(parser, "--tol must be positive and finite")
    kwargs = {"starts": args.starts, "seed": args.seed}
    if args.tol is not None:
        kwargs["gtol"] = args.tol
    opts = SolverOptions(**kwargs)
    try:
        rec = minimize_U(MassVector.from_iterable(values), opts)
    except UniquenessAlarmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_ALARM
    code = _write_output(rec.to_json(), args.out)
    if code != EX_OK:
        return code
    return EX_OK if rec.converged else EX_NOCONV


def _scan_grid_values(n: int) -> list:
    return [float(x) for x in np.linspace(SCAN_GRID_LO, SCAN_GRID_HI, n)]


def _scan_masses(values, fixed_slot: int, fixed_value: float) -> list:
    """The grid's mass vectors, fixed_value at fixed_slot and each triple of
    values at the other slots in itertools.product's order, each normalized
    to total 4 as MassVector.normalized normalizes it, on one (k, 4) stack:
    M added left to right, then 4 / M times each mass.  A normalized mass
    that rounds to zero raises DegeneratePointError, naming the row."""
    raw = np.empty((len(values) ** 3, 4))
    raw[:, fixed_slot] = fixed_value
    raw[:, [k for k in range(4) if k != fixed_slot]] = list(itertools.product(values, repeat=3))
    normalized = (4.0 / (raw[:, 0] + raw[:, 1] + raw[:, 2] + raw[:, 3]))[:, None] * raw
    masses = []
    for row, raw_row in zip(normalized.tolist(), raw.tolist()):
        try:
            masses.append(MassVector(*row))
        except ValueError as exc:
            raise DegeneratePointError(
                f"masses {tuple(raw_row)} give no positive masses at total 4 ({exc})") from None
    return masses


def _scan_row(masses, row) -> str:
    """The CSV line of a row: its four masses, then K, U, lambda and the
    co-circularity flag of a converged row or four empty cells, then its
    iterations and whether it converged."""
    k_value, U, lam, is_cocircular, iterations, converged = row
    cells = ",".join(map(format_float, masses.astuple()))
    if converged:
        return (f"{cells},{format_float(k_value)},{format_float(U)},{format_float(lam)},"
                f"{'true' if is_cocircular else 'false'},{iterations},true")
    return f"{cells},,,,,{iterations},false"


def cmd_scan(args, parser) -> int:
    if args.grid < 2:
        return _usage_error(parser, "--grid must be at least 2")
    try:
        name, _, value = args.fix.partition("=")
        fixed_slot = {"m1": 0, "m2": 1, "m3": 2, "m4": 3}[name.strip()]
        fixed_value = float(value)
    except (KeyError, ValueError):
        return _usage_error(parser, f"malformed --fix {args.fix!r}; expected e.g. m4=1")
    if not _positive_finite(fixed_value):
        return _usage_error(parser, "masses must be positive and finite")
    if args.jobs < 1:
        return _usage_error(parser, "--jobs must be at least 1")

    masses = _scan_masses(_scan_grid_values(args.grid), fixed_slot, fixed_value)
    try:
        rows = [_scan_row(m, row) for m, row in zip(masses, _scan_values(masses))]
    except UniquenessAlarmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_ALARM
    text = "\n".join([SCAN_SCHEMA_LINE, SCAN_HEADER, *rows]) + "\n"
    return _write_output(text, args.out)


def cmd_inverse(args, parser) -> int:
    values = _parse_floats(args.angles, 4, "angles", parser)
    if args.degrees:
        values = [math.radians(a) for a in values]
    if args.radius <= 0:
        return _usage_error(parser, "radius must be positive")
    try:
        r = shape_to_distances(CyclicShape(theta=tuple(values), radius=args.radius))
    except ValueError as exc:
        return _usage_error(parser, str(exc))
    try:
        recovery = recover_masses(r)
    except (InfeasibleShapeError, IndeterminateShapeError) as exc:
        print(f"infeasible: {exc}")
        return EX_FAIL
    sys.stdout.write(dumps(recovery.to_json_dict()))
    return EX_OK


def cmd_certify(args, parser) -> int:
    try:
        with open(args.infile) as fh:
            rec = SolveRecord.from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot read record from {args.infile}: {exc}", file=sys.stderr)
        return EX_NOINPUT
    report = certify_minimum(rec)
    rows = [(name, check.passed, check.value, check.threshold)
            for name, check in report.checks.items()]
    embed_ok = True
    if rec.is_cocircular:
        try:
            cfg = embed_cyclic(rec.r_star, rec.masses)
            force = max(mm / r / r for mm, r in zip(rec.masses.products().tolist(),
                                                    rec.r_star.astuple()))
            check = _scaled_check(cartesian_cc_residual(cfg, fit=True),
                                  CARTESIAN_RTOL * force)
            embed_ok = check.passed
            rows.append(("cartesian_embedding", embed_ok, check.value, check.threshold))
        except (NonRealizableError, CCC4Error) as exc:
            print(f"cartesian_embedding: FAIL ({exc})")
            embed_ok = False
    for name, passed, value, threshold in rows:
        status = "ok" if passed else "FAIL"
        print(f"{name}: {status} (value={value:.6e}, threshold={threshold:.6e})")
    passed = report.passed and embed_ok
    print(f"certificate: {'PASS' if passed else 'FAIL'}")
    return EX_OK if passed else EX_FAIL


def cmd_identities(args, parser) -> int:
    if args.samples < 1:
        return _usage_error(parser, "--samples must be at least 1")
    if args.seed < 0:
        return _usage_error(parser, "--seed must be non-negative")
    rows = run_identity_battery(args.samples, args.seed)
    width = max(len(row.name) for row in rows)
    print(f"{'identity'.ljust(width)}  {'samples':>8}  {'max_residual':>13}  "
          f"{'threshold':>10}  status")
    for row in rows:
        status = "ok" if row.passed else "FAIL"
        print(f"{row.name.ljust(width)}  {row.samples:>8}  {row.max_residual:>13.3e}  "
              f"{row.threshold:>10.1e}  {status}")
    return EX_OK if all(row.passed for row in rows) else EX_FAIL


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    handlers = {"solve": cmd_solve, "scan": cmd_scan, "inverse": cmd_inverse,
                "certify": cmd_certify, "identities": cmd_identities}
    try:
        return handlers[args.command](args, parser)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EX_USAGE
    except CCC4Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EX_FAIL


if __name__ == "__main__":
    sys.exit(main())
