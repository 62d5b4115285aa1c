"""Checks of the benchmark itself: its smoke mode and the layer tracer."""

import subprocess
import sys
from pathlib import Path

import layertrace
from ccc4 import solver
from ccc4.geometry import MassVector

ROOT = Path(__file__).resolve().parents[1]


def test_smoke_mode_reports_every_metric_with_its_unit():
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--smoke"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke: ok"


def test_tracer_wraps_imported_names_and_reports_missing_layers(monkeypatch):
    monkeypatch.setattr(layertrace, "LAYERS",
                        layertrace.LAYERS + ("solver._renamed_away",))
    original = solver.minimize_U
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        solver.minimize_U(MassVector(1.0, 2.0, 3.0, 4.0))
    finally:
        tracer.uninstall()
    assert solver.minimize_U is original
    assert tracer.absent == ["solver._renamed_away"]

    table = layertrace.layer_table(tracer, wall_s=1.0)
    starts = solver.SolverOptions().starts
    # solver imports sample_interior by name; those calls are traced too
    assert table["chart.sample_interior"]["calls"][0] == starts - 1
    assert table["kernels.descend"]["calls"][0] == starts
    outer = table["solver.minimize_U"]
    assert outer["calls"][0] == 1
    assert 0.0 < outer["self_s"][0] < outer["busy_s"][0]
    assert table["solver._renamed_away"]["calls"][0] == 0
