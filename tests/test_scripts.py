"""The four recipe scripts in ``scripts/`` run end to end at a tiny size.

Each script's ``main()`` builds a command line for the ``subsketch`` CLI, so
these tests are also the only ones that drive the CLI parser the way the
recipes do.
"""

import runpy
import sys
from pathlib import Path

import numpy as np
import pytest

from subsketch.harness import read_records

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def run_script(tmp_path, monkeypatch):
    """Run ``scripts/<name>.py`` with ``args`` in ``tmp_path``; returns its exit code."""
    monkeypatch.chdir(tmp_path)

    def run(name, *args):
        path = SCRIPTS / f"{name}.py"
        monkeypatch.setattr(sys, "argv", [str(path), *args])
        return runpy.run_path(str(path))["main"]()

    return run


def test_smooth_sweep(run_script, tmp_path):
    assert run_script("run_smooth_sweep", "--small") == 0
    grid = [(trial, m) for trial in range(3) for m in (8, 16, 32)]
    for embedding in ("adaptive-gaussian", "oblivious-dagger"):
        records = read_records(tmp_path / f"smooth_sweep_{embedding}.csv")
        assert [(r.trial, r.m) for r in records] == grid
        assert {(r.experiment, r.embedding, r.n, r.d) for r in records} == {
            ("sweep", embedding, 100, 200)}
        assert all(np.isfinite(r.rel_err_x1) for r in records)


def test_nonsmooth_sweep(run_script, tmp_path):
    assert run_script("run_nonsmooth_sweep", "--small") == 0
    grid = [(trial, m) for trial in range(3) for m in (16, 32) for _ in range(2)]
    for loss in ("l1", "linf", "hinge"):
        records = read_records(tmp_path / f"nonsmooth_sweep_{loss}.csv")
        assert [(r.trial, r.m) for r in records] == grid
        assert [r.embedding for r in records[:2]] == ["adaptive-gaussian",
                                                      "arbitrary-subgradient"]
        assert {(r.loss, r.decay, r.nu) for r in records} == {(loss, "geom", 0.98)}


def test_iterative_demo(run_script, tmp_path):
    assert run_script("run_iterative_demo", "--n", "40", "--d", "80", "--m", "8",
                      "--T", "3") == 0
    records = read_records(tmp_path / "iterative.csv")
    assert [(r.trial, r.m, r.T) for r in records] == [(0, 8, 1), (0, 8, 2), (0, 8, 3)]
    assert {(r.experiment, r.lam, r.seed) for r in records} == {("iterative", 1.0, 42)}


def test_risk_study(run_script, tmp_path):
    assert run_script("run_risk_study", "--n", "40", "--d", "80", "--m", "8,16",
                      "--trials", "20") == 0
    records = read_records(tmp_path / "risk.csv")
    assert [(r.trial, r.m) for r in records] == [(0, 8), (0, 16)]
    assert all(r.objective > 0 and r.bound_rhs > 0 for r in records)
