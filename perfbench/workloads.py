"""The three benchmark workloads.

Each workload draws a fixed set of `cycle` inputs from the benchmark seed,
so the same seed gives the same inputs, and exposes one closed-loop
operation `op(i)` on input i % cycle: the caller runs op(0), op(1), ... one
after another on a single thread, at least one whole cycle and then until
its time is up.  An op returns one list of failure reasons per item it
checked (empty when the item passed), the bytes that go into the run's
output digest, and timings of its parts.  ccc4 functions are always looked up on their module at call time,
so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from typing import NamedTuple

import numpy as np

from ccc4 import cli, errors, inverse, oracle, solver
from ccc4.geometry import MassVector

CARTESIAN_TOL = 1e-7     # as in `ccc4 certify`
ROUND_TRIP_TOL = 1e-8    # masses normalized to sum 4


class OpResult(NamedTuple):
    items: list
    digest: bytes
    parts: dict


def _error_reason(exc: errors.CCC4Error) -> str:
    if isinstance(exc, errors.UniquenessAlarmError):
        return "alarm"
    return "error." + type(exc).__name__


def _cartesian_reason(rec) -> list:
    """Empty when the Cartesian residual of a co-circular record is within
    tolerance, as `ccc4 certify --in` checks it."""
    try:
        cfg = oracle.embed_cyclic(rec.r_star, rec.masses)
        residual = oracle.cartesian_cc_residual(cfg, fit=True)
    except errors.CCC4Error:
        return ["cartesian"]
    return [] if residual <= CARTESIAN_TOL else ["cartesian"]


def latin_hypercube(rng, n: int, dims: int) -> np.ndarray:
    """n points in [0, 1)^dims, uniform, with exactly one point in each of
    the n equal slices of every axis.  Every seed's set then covers the
    range evenly, so the mix of easy and hard inputs, and with it the mean
    op time, varies less from seed to seed than with independent draws."""
    slots = np.stack([rng.permutation(n) for _ in range(dims)], axis=1)
    return (slots + rng.uniform(size=(n, dims))) / n


class SolveWorkload:
    """`ccc4 solve` then `ccc4 certify --in`, one mass vector per op, with
    log10(m_i) uniform on [-3, 3]: mass ratios up to 1e6.  The seed gives
    `cycle` mass vectors, a Latin hypercube in log-mass space."""

    name = "solve"

    def __init__(self, seed: int, sizes: dict):
        self.seed = seed
        self.cycle = sizes["solve_inputs"]
        self.warmup_ops = sizes["warmup_ops"]
        self.inputs = []

    def _draw(self, n: int, stream: int) -> list:
        rng = np.random.default_rng([self.seed, stream])
        return [MassVector.from_iterable(10.0 ** (-3.0 + 6.0 * u))
                for u in latin_hypercube(rng, n, 4)]

    def setup(self):
        self.inputs = self._draw(self.cycle, stream=0)
        for masses in self._draw(self.warmup_ops, stream=1):
            self._solve(masses)

    def op(self, i: int) -> OpResult:
        return self._solve(self.inputs[i % self.cycle])

    def _solve(self, masses) -> OpResult:
        try:
            rec = solver.minimize_U(masses)
        except errors.CCC4Error as exc:
            reason = _error_reason(exc)
            return OpResult([[reason]], reason.encode(), {})
        text = rec.to_json()
        loaded = solver.SolveRecord.from_json(text)
        reasons = [] if loaded.converged else ["nonconverged"]
        report = solver.certify_minimum(loaded)
        reasons += ["cert." + name for name, check in report.checks.items()
                    if not check.passed]
        if loaded.is_cocircular:
            reasons += _cartesian_reason(loaded)
        return OpResult([reasons], text.encode(), {})

    def env(self) -> dict:
        return {"log10_mass_range": [-3.0, 3.0], "inputs": self.cycle,
                "starts": solver.SolverOptions().starts}

    def summary(self, results, latencies, wall_s) -> dict:
        ms = 1e3 * np.asarray(latencies)
        n = len(latencies)
        return {"solve_ms.p50": (float(np.median(ms)), "ms", n),
                "solve_ms.p90": (float(np.percentile(ms, 90)), "ms", n),
                "solves_per_s": (n / wall_s, "1/s", n)}


class ScanWorkload:
    """`ccc4 scan --grid N --fix mK=V --jobs J` in-process for J = 1 and
    J = 2; the seed gives `cycle` fixed masses (slot and value), one per op,
    and each op compares the CSV bytes of its two calls."""

    name = "scan"
    jobs = (1, 2)

    def __init__(self, seed: int, sizes: dict):
        self.seed = seed
        self.grid = sizes["grid"]
        self.cycle = sizes["scan_inputs"]

    def fix(self, i: int, stream: int = 0) -> str:
        rng = np.random.default_rng([self.seed, stream, i])
        slot = int(rng.integers(1, 5))
        return f"m{slot}={float(rng.uniform(0.5, 3.0))!r}"

    def setup(self):
        self._scan(self.fix(0, stream=1), grid=2)

    def op(self, i: int) -> OpResult:
        return self._scan(self.fix(i % self.cycle), self.grid)

    def _scan(self, fix: str, grid: int) -> OpResult:
        outputs, parts, reasons = {}, {}, []
        for jobs in self.jobs:
            buf = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(["scan", "--grid", str(grid), "--fix", fix,
                                 "--jobs", str(jobs)])
            parts[f"j{jobs}_s"] = time.perf_counter() - t0
            outputs[jobs] = buf.getvalue()
            if code != cli.EX_OK:
                reasons.append("alarm" if code == cli.EX_ALARM else f"exit.{code}")
        first = outputs[self.jobs[0]]
        if any(out != first for out in outputs.values()):
            reasons.append("byte_mismatch")
        rows = [line for line in first.splitlines()[2:] if line]
        parts["rows"] = len(rows)
        if any(line.rsplit(",", 1)[-1] != "true" for line in rows):
            reasons.append("nonconverged")
        return OpResult([reasons], first.encode(), parts)

    def env(self) -> dict:
        return {"grid": self.grid, "jobs": list(self.jobs), "inputs": self.cycle}

    def summary(self, results, latencies, wall_s) -> dict:
        out = {}
        for jobs in self.jobs:
            secs = sum(r.parts[f"j{jobs}_s"] for r in results)
            rows = sum(r.parts["rows"] for r in results)
            out[f"scan_rows_per_s.j{jobs}"] = (rows / secs, "1/s", len(results))
        return out


def _cocircular_shape(shape):
    """Move the last body of a cyclic shape along its arc until the two
    Dziobek multipliers agree, which puts the shape on the co-circular
    central-configuration family; None when no sign change is found."""
    t1, t2, t3, _ = shape.theta

    def gap(t4):
        try:
            d = inverse.dziobek_lambda(inverse.shape_to_distances(
                inverse.CyclicShape(theta=(t1, t2, t3, t4), radius=shape.radius)))
        except errors.IndeterminateShapeError:
            return None
        return d.lam_a - d.lam_b

    grid = np.linspace(t3 + 0.05, t1 + 2.0 * math.pi - 0.05, 33)
    values = [gap(t4) for t4 in grid]
    for a, b, fa, fb in zip(grid, grid[1:], values, values[1:]):
        if fa is None or fb is None or fa * fb > 0.0:
            continue
        for _ in range(80):
            mid = 0.5 * (a + b)
            fm = gap(mid)
            if fm is None:
                return None
            if mid in (a, b):
                break
            if fa * fm <= 0.0:
                b = mid
            else:
                a, fa = mid, fm
        return inverse.CyclicShape(theta=(t1, t2, t3, 0.5 * (a + b)), radius=shape.radius)
    return None


class VerifyWorkload:
    """The checking routes alone.  One op is a pass over the co-circular
    records: certificate, Cartesian embedding and residual, and mass
    recovery (from r* and from the original random shape) per record, then
    one identity battery.  No sampler, descent or Newton work runs in an
    op; the records are solved during setup.  A single record takes about
    a millisecond, too short to time steadily on a shared machine, so the
    op is the whole pass; each record and the battery is a checked item."""

    name = "verify"
    cycle = 1

    def __init__(self, seed: int, sizes: dict):
        self.seed = seed
        self.n_records = sizes["records"]
        self.battery_samples = sizes["battery_samples"]
        self.records = []
        self.raw_shapes = []

    def setup(self):
        records, raw = [], []
        candidates = oracle.sample_cyclic_shapes(40 * self.n_records, self.seed)
        for shape in candidates:
            if len(records) == self.n_records:
                break
            moved = _cocircular_shape(shape)
            if moved is None:
                continue
            try:
                masses = inverse.masses_from_shape(inverse.shape_to_distances(moved))
            except errors.CCC4Error:
                continue
            records.append(solver.minimize_U(masses))
            raw.append(shape)
        if not records:
            raise RuntimeError("no co-circular record could be built from the seed")
        self.records, self.raw_shapes = records, raw
        self.op(0)

    def op(self, i: int) -> OpResult:
        items, recovered = [], []
        parts = {"records": len(self.records), "certify_s": 0.0, "inverse_s": 0.0}
        for rec, shape in zip(self.records, self.raw_shapes):
            t0 = time.perf_counter()
            reasons = self._certify(rec)
            t1 = time.perf_counter()
            got = self._recover(rec, shape)
            t2 = time.perf_counter()
            parts["certify_s"] += t1 - t0
            parts["inverse_s"] += t2 - t1
            if got is None or max(abs(a - b) for a, b in
                                  zip(got, rec.masses.normalized(4.0).astuple())) > ROUND_TRIP_TOL:
                reasons.append("round_trip")
            items.append(reasons)
            recovered.append(got)

        t0 = time.perf_counter()
        rows = oracle.run_identity_battery(self.battery_samples, self.seed)
        parts["identities_s"] = time.perf_counter() - t0
        items.append(["identity." + row.name for row in rows if not row.passed])
        digest = repr(recovered) + "".join(f";{row.name}={row.max_residual!r}" for row in rows)
        return OpResult(items, digest.encode(), parts)

    @staticmethod
    def _certify(rec) -> list:
        report = solver.certify_minimum(rec)
        reasons = ["cert." + name for name, check in report.checks.items()
                   if not check.passed]
        if rec.is_cocircular:
            return reasons + _cartesian_reason(rec)
        return reasons + ["not_cocircular"]

    @staticmethod
    def _recover(rec, raw_shape):
        """Masses recovered from the record's r*, or None; the original
        random shape is inverted too, where no masses is the right answer."""
        try:
            got = inverse.recover_masses(rec.r_star).masses.astuple()
        except errors.CCC4Error:
            got = None
        with contextlib.suppress(errors.InfeasibleShapeError,
                                 errors.IndeterminateShapeError):
            inverse.recover_masses(inverse.shape_to_distances(raw_shape))
        return got

    def env(self) -> dict:
        return {"records": len(self.records), "battery_samples": self.battery_samples}

    def summary(self, results, latencies, wall_s) -> dict:
        records = sum(r.parts["records"] for r in results)
        certify_s = sum(r.parts["certify_s"] for r in results)
        inverse_s = sum(r.parts["inverse_s"] for r in results)
        batteries = [r.parts["identities_s"] for r in results]
        return {"certify_per_s": (records / certify_s, "1/s", records),
                "inverse_per_s": (2 * records / inverse_s, "1/s", 2 * records),
                "identities_s": (float(np.median(batteries)), "s", len(batteries))}


WORKLOADS = {w.name: w for w in (SolveWorkload, ScanWorkload, VerifyWorkload)}
