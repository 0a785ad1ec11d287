"""Golden-output regression test for every experiment and every embedding name.

Small fixed configs run through ``harness.run_experiment``; each CSV must match
the committed fixture byte for byte, except for the ``runtime_ms`` column.
``certify`` is covered through one fast suite's verdict and detail line.

After a change that is meant to alter results, regenerate the fixture with::

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import json
import os

import numpy as np
import pytest

from subsketch import certify
from subsketch.harness import CSV_COLUMNS, EMBEDDING_NAMES, ExperimentConfig, run_experiment

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_outputs.json")
CERTIFY_SUITE = "whitened-equivalence"

_BASE = dict(n=24, d=36, decay="exp", nu=0.4, loss="logistic", lam=1e-2,
             embedding="adaptive-gaussian", m_list=[4, 8], trials=2, seed=7,
             tol=1e-10, max_iters=200)
_NONSMOOTH = dict(_BASE, decay="geom", ratio=0.9, lam=0.1, tol=1e-9, trials=1)

CASES = {
    **{f"recover-{name}": dict(_BASE, experiment="recover", embedding=name)
       for name in sorted(EMBEDDING_NAMES)},
    "recover-adaptive-gaussian-q1-relu": dict(_BASE, experiment="recover", q=1, loss="relu"),
    # d is a power of two, so the oblivious SRHT runs unpadded, up to m = d
    "recover-srht-pow2": dict(_BASE, experiment="recover", embedding="srht", d=32,
                              m_list=[4, 32]),
    "sweep-adaptive-srht-quadratic": dict(_BASE, experiment="sweep", embedding="adaptive-srht",
                                          loss="quadratic", decay="poly", nu=1.0),
    "sweep-oblivious-dagger-relu": dict(_BASE, experiment="sweep", embedding="oblivious-dagger",
                                        loss="relu"),
    "iterative-adaptive-gaussian": dict(_BASE, experiment="iterative", T=4, lam=1.0),
    "iterative-adaptive-srht-q1": dict(_BASE, experiment="iterative", embedding="adaptive-srht",
                                       q=1, T=3, lam=20.0, loss="quadratic"),
    "iterative-srht": dict(_BASE, experiment="iterative", embedding="srht", T=3, lam=1.0),
    "iterative-gaussian": dict(_BASE, experiment="iterative", embedding="gaussian", T=2,
                               loss="relu", lam=1.0),
    "iterative-nystrom": dict(_BASE, experiment="iterative", embedding="nystrom", T=3, lam=1.0),
    "nonsmooth-l1": dict(_NONSMOOTH, experiment="nonsmooth", loss="l1"),
    "nonsmooth-hinge-adaptive-srht": dict(_NONSMOOTH, experiment="nonsmooth", loss="hinge",
                                          embedding="adaptive-srht"),
    "nonsmooth-linf": dict(_NONSMOOTH, experiment="nonsmooth", loss="linf"),
    "kernel": dict(_BASE, experiment="kernel"),
    "risk": dict(_BASE, experiment="risk", loss="quadratic", embedding="gaussian", trials=30,
                 lam=1e-8),
    **{f"conditioning-{name}": dict(_BASE, experiment="conditioning", loss="quadratic",
                                    embedding=name, trials=1)
       for name in ("gaussian", "srht", "nystrom", "adaptive-gaussian", "adaptive-srht")},
}


def _run_case(params, out_path) -> str:
    """The CSV a config writes, with the runtime_ms field of every line removed."""
    run_experiment(ExperimentConfig(**params, out_path=str(out_path)))
    idx = CSV_COLUMNS.index("runtime_ms")
    with open(out_path) as fh:
        lines = fh.read().splitlines()
    return "\n".join(",".join(c for i, c in enumerate(line.split(",")) if i != idx)
                     for line in lines) + "\n"


def _certify_case() -> str:
    (result,) = certify.run_suites(CERTIFY_SUITE, seed=0)
    return f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}\n"


def _load_fixture() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", sorted(CASES))
def test_experiment_csv_matches_golden(case, tmp_path):
    assert _run_case(CASES[case], tmp_path / f"{case}.csv") == _load_fixture()[case]


@pytest.mark.parametrize("case", sorted(c for c in CASES if c.startswith(
    ("recover-", "kernel", "conditioning-", "nonsmooth-"))))
def test_factorizations_stay_out_of_numpy(case, tmp_path, monkeypatch):
    """Every dense factorization runs in scipy's one-thread LAPACK (numkit
    docstring): with numpy's raising, each case still writes its fixture."""
    def raising(*args, **kwargs):
        raise AssertionError("a factorization ran in numpy's LAPACK")

    for name in ("svd", "qr", "eigh", "lstsq"):
        monkeypatch.setattr(np.linalg, name, raising)
    assert _run_case(CASES[case], tmp_path / f"{case}.csv") == _load_fixture()[case]


def test_certify_suite_matches_golden():
    assert _certify_case() == _load_fixture()[f"certify-{CERTIFY_SUITE}"]


def test_every_experiment_and_embedding_is_covered():
    covered = {p["experiment"] for p in CASES.values()} | {"certify"}
    assert covered == {"recover", "sweep", "iterative", "nonsmooth", "kernel", "risk",
                       "certify", "conditioning"}
    assert {p["embedding"] for p in CASES.values()} == set(EMBEDDING_NAMES)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {case: _run_case(params, os.path.join(tmp, f"{case}.csv"))
                  for case, params in CASES.items()}
    golden[f"certify-{CERTIFY_SUITE}"] = _certify_case()
    with open(FIXTURE, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(golden)} golden outputs to {FIXTURE}")
