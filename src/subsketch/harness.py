"""CLI and experiment orchestration: config parsing, sweep execution, CSV/JSON
persistence, and the certification entry point.

Every run is deterministic given its base seed: the trial at sweep cell
``(trial, m_index)`` draws from the Philox stream ``mix64(trial, m_index)``
under the base seed, so results are reproducible cell by cell.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields

import numpy as np

from subsketch import analysis, certify as certify_suites, estimators, kernelize, synth
from subsketch.embeddings import (
    ADAPTIVE_GAUSSIAN,
    ADAPTIVE_SRHT,
    COLUMN_SUBSAMPLE,
    OBLIVIOUS_GAUSSIAN,
    OBLIVIOUS_SRHT,
    EmbeddingSpec,
    build_sketch,
    next_pow2,
)
from subsketch.losses import NONSMOOTH_KINDS, SMOOTH_KINDS
from subsketch.numkit import SeededRng
from subsketch.solvers import DUAL_OPTIONS, SolveOptions

log = logging.getLogger("subsketch")

EXPERIMENTS = ("recover", "sweep", "iterative", "nonsmooth", "kernel", "risk",
               "certify", "conditioning")

EMBEDDING_NAMES = {
    "gaussian": OBLIVIOUS_GAUSSIAN,
    "srht": OBLIVIOUS_SRHT,
    "nystrom": COLUMN_SUBSAMPLE,
    "adaptive-gaussian": ADAPTIVE_GAUSSIAN,
    "adaptive-srht": ADAPTIVE_SRHT,
    "oblivious-dagger": "oblivious-dagger",
}

@dataclass
class RunRecord:
    """One CSV row of an experiment run; unused fields stay None.  The fields,
    in order, are the CSV columns (``lam`` is written as ``lambda``)."""

    experiment: str
    trial: int
    seed: int
    n: int
    d: int
    decay: str
    nu: float | None
    loss: str
    lam: float
    embedding: str
    q: int | None = None
    m: int | None = None
    T: int = 0
    rel_err_x0: float | None = None
    rel_err_x1: float | None = None
    residual_norm: float | None = None
    spectral_residual_k: float | None = None
    bound_rhs: float | None = None
    condition_ok: bool | None = None
    kappa: float | None = None
    kappa_dagger: float | None = None
    objective: float | None = None
    runtime_ms: float | None = None

    def to_row(self) -> list[str]:
        out = []
        for fld in fields(self):
            v = getattr(self, fld.name)
            if v is None:
                out.append("")
            elif isinstance(v, bool):
                out.append("1" if v else "0")
            elif isinstance(v, float):
                out.append(format(v, ".17g"))
            else:
                out.append(str(v))
        return out


CSV_COLUMNS = ["lambda" if fld.name == "lam" else fld.name for fld in fields(RunRecord)]

# the parser of a CSV cell by its field's declared type; an empty cell is None
_CELL_TYPES = {"int": int, "float": float, "str": str, "bool": lambda text: text == "1"}


def read_records(path) -> list[RunRecord]:
    """Parse a CSV written by :func:`write_records` back into records."""
    parsers = [(fld.name, _CELL_TYPES[fld.type.removesuffix(" | None")])
               for fld in fields(RunRecord)]
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        if header != CSV_COLUMNS:
            raise ValueError("unexpected CSV header")
        records = []
        for line in fh:
            cells = line.rstrip("\n").split(",")
            records.append(RunRecord(**{name: None if cell == "" else parse(cell)
                                        for (name, parse), cell in zip(parsers, cells)}))
    return records


def write_records(path, records: list[RunRecord]) -> None:
    """Atomically write records as CSV: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".csv.tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for rec in records:
                fh.write(",".join(rec.to_row()) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_summary(path, records: list[RunRecord], failed: list[dict],
                  not_converged: list[dict], reference_not_converged: bool) -> dict:
    """Per (embedding, m) cell means and twice the standard deviations, plus the
    cells that raised (trial, m and exception text), the rounds whose solve
    did not converge (trial, m and round t), neither of which has records, and
    whether the reference solve did not converge (then no cell has records)."""
    cells: dict[tuple, dict] = {}
    for rec in records:
        key = (rec.embedding, rec.m)
        cells.setdefault(key, {"rel_err_x0": [], "rel_err_x1": []})
        for fld in ("rel_err_x0", "rel_err_x1"):
            v = getattr(rec, fld)
            if v is not None and np.isfinite(v):
                cells[key][fld].append(v)
    summary = {"cells": []}
    for (embedding, m), data in sorted(cells.items(), key=lambda kv: (kv[0][0], kv[0][1] or 0)):
        entry = {"embedding": embedding, "m": m}
        for fld, vals in data.items():
            if vals:
                arr = np.asarray(vals)
                entry[f"mean_{fld}"] = float(arr.mean())
                entry[f"two_std_{fld}"] = float(2.0 * arr.std(ddof=1)) if arr.size > 1 else 0.0
        summary["cells"].append(entry)
    summary["failed"] = failed
    summary["not_converged"] = not_converged
    summary["reference_not_converged"] = reference_not_converged
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2)
    return summary


@dataclass
class ExperimentConfig:
    experiment: str
    n: int = 100
    d: int = 200
    decay: str = synth.EXPONENTIAL
    nu: float = 0.1
    ratio: float = 0.98
    loss: str = "logistic"
    lam: float = 1e-4
    embedding: str = "adaptive-gaussian"
    m_list: list[int] = field(default_factory=lambda: [16])
    q: int = 0
    T: int = 1
    trials: int = 1
    seed: int = 0
    tol: float = 1e-10
    max_iters: int = 500
    noise_var: float = 1.0
    out_path: str = "run.csv"
    suite: str = "all"

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.embedding not in EMBEDDING_NAMES:
            raise ValueError(f"unknown embedding {self.embedding!r}")
        if self.decay not in (synth.POLYNOMIAL, synth.EXPONENTIAL, synth.GEOMETRIC):
            raise ValueError(f"decay must be poly, exp or geom, not {self.decay!r}")
        if self.loss not in SMOOTH_KINDS + NONSMOOTH_KINDS:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.m_list != sorted(self.m_list):
            raise ValueError("--m must be sorted ascending")
        if any(m < 1 for m in self.m_list):
            raise ValueError("--m: every sketch size must be >= 1")
        for flag, count in (("--n", self.n), ("--d", self.d), ("--trials", self.trials),
                            ("--T", self.T), ("--max-iters", self.max_iters)):
            if count < 1:
                raise ValueError(f"{flag} must be >= 1, not {count}")
        for flag, value in (("--lambda", self.lam), ("--noise-var", self.noise_var)):
            if not 0 < value < np.inf:
                raise ValueError(f"{flag} must be positive and finite, not {value}")
        # Newton stops once |g| <= tol max(1, |g0|), which tol >= 1 meets at the start
        if not 0 < self.tol < 1:
            raise ValueError(f"--tol must lie in (0, 1), not {self.tol}")
        flag = "--ratio" if self.decay == synth.GEOMETRIC else "--nu"
        try:
            spectrum = self.spectrum()
        except ValueError as exc:
            raise ValueError(f"{flag}: {exc}") from None
        if not spectrum.generate(self.n, self.d)[-1] > 0:
            raise ValueError(f"{flag}: the smallest of the {min(self.n, self.d)} singular "
                             "values underflows to 0")
        adaptive = EMBEDDING_NAMES[self.embedding] in (ADAPTIVE_GAUSSIAN, ADAPTIVE_SRHT)
        # certify draws no embedding from these flags
        if self.q < 0:
            raise ValueError(f"--q must be >= 0, not {self.q}")
        if self.q != 0 and not adaptive and self.experiment != "certify":
            raise ValueError(f"--q must be 0 for embedding {self.embedding!r}, "
                             "which takes no power iterations")
        # combinations whose every cell would raise
        if self.embedding == "oblivious-dagger" and self.experiment in (
                "iterative", "nonsmooth", "conditioning", "risk"):
            raise ValueError("embedding 'oblivious-dagger' is only valid for recover and sweep")
        if self.experiment == "nonsmooth" and (self.loss not in NONSMOOTH_KINDS or not adaptive):
            raise ValueError("nonsmooth needs a non-smooth loss and an adaptive embedding")
        if self.experiment in ("recover", "sweep", "iterative", "kernel") and (
                self.loss not in SMOOTH_KINDS):
            raise ValueError(f"{self.experiment} needs a smooth loss, not {self.loss!r}")
        if self.experiment == "kernel" and self.embedding not in (
                "adaptive-gaussian", "adaptive-srht", "nystrom"):
            raise ValueError("kernel sketches the n sample coordinates: use --embedding "
                             "adaptive-gaussian, adaptive-srht or nystrom")
        if self.embedding in ("srht", "adaptive-srht"):
            cap = next_pow2(self.d if self.embedding == "srht" else self.n)
        else:
            cap = self.n if self.embedding == "nystrom" else None
        m_max = max(self.m_list, default=0)
        # every experiment but certify draws the configured embedding
        if cap is not None and self.experiment != "certify" and m_max > cap:
            raise ValueError(f"--m {m_max} exceeds {cap}, the largest "
                             f"a {self.embedding!r} draw allows at n={self.n}, d={self.d}")

    def spectrum(self) -> synth.SpectrumSpec:
        if self.decay == synth.GEOMETRIC:
            return synth.SpectrumSpec(kind=synth.GEOMETRIC, ratio=self.ratio)
        return synth.SpectrumSpec(kind=self.decay, nu=self.nu)

    def solve_options(self) -> SolveOptions:
        """The configured tolerance and Newton's iteration cap; a non-smooth
        loss's dual gets at least the tolerance of ``solvers.DUAL_OPTIONS``."""
        dual = self.loss in NONSMOOTH_KINDS
        tol = max(self.tol, DUAL_OPTIONS.grad_tolerance) if dual else self.tol
        return SolveOptions(grad_tolerance=tol, max_iters=self.max_iters)


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok]


def _add_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="JSON config file; flags override")
    p.add_argument("--n", type=int)
    p.add_argument("--d", type=int)
    p.add_argument("--decay", choices=["poly", "exp", "geom"])
    p.add_argument("--nu", type=float)
    p.add_argument("--ratio", type=float)
    p.add_argument("--loss", choices=list(SMOOTH_KINDS + NONSMOOTH_KINDS))
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--embedding", choices=sorted(EMBEDDING_NAMES))
    p.add_argument("--m", dest="m_list", type=_int_list, help="comma-separated sketch sizes")
    p.add_argument("--q", type=int)
    p.add_argument("--T", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", type=int, help="Newton's cap; a dual takes one pass")
    p.add_argument("--noise-var", type=float)
    p.add_argument("--out", dest="out_path")
    p.add_argument("--suite", choices=["all", *certify_suites.SUITES])


def parse_config(argv=None) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from CLI arguments plus an optional
    JSON config file.  Each file key is read as the flag of the same name (a
    list comma-joined), placed before the explicit flags, which therefore win."""
    parser = argparse.ArgumentParser(
        prog="subsketch",
        description="randomized subspace optimization experiments",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in EXPERIMENTS:
        _add_flags(sub.add_parser(name, argument_default=argparse.SUPPRESS, allow_abbrev=False))
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if "config" in args:
        with open(args.config) as fh:
            file_cfg = json.load(fh)
        file_cfg.pop("experiment", None)
        file_flags = [
            f"--{key.replace('_', '-')}="
            + (",".join(map(str, val)) if isinstance(val, list) else str(val))
            for key, val in file_cfg.items()]
        args = parser.parse_args([argv[0], *file_flags, *argv[1:]])
    kwargs = {key: val for key, val in vars(args).items() if key != "config"}
    missing = [f"--{key}" for key in ("n", "d") if key not in kwargs]
    if missing and args.experiment != "certify":
        parser.error(f"missing required argument(s): {', '.join(missing)}")
    try:
        return ExperimentConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        parser.error(str(exc))


def build_instance(config: ExperimentConfig):
    """Deterministic instance for a config: data matrix, spectrum and loss, with
    the targets of :func:`synth.synth_loss`."""
    base = SeededRng(config.seed)
    A, summary = synth.synth_matrix(config.n, config.d, config.spectrum(), base.derive(0xA))
    return A, summary, synth.synth_loss(config.loss, A, base, config.noise_var)


def _record_base(config: ExperimentConfig, trial: int, m: int | None, summary) -> RunRecord:
    rec = RunRecord(
        experiment=config.experiment, trial=trial, seed=config.seed, n=config.n,
        d=config.d, decay=config.decay,
        nu=config.nu if config.decay in (synth.POLYNOMIAL, synth.EXPONENTIAL) else config.ratio,
        loss=config.loss, lam=config.lam, embedding=config.embedding,
        q=config.q, m=m,
    )
    if m is not None and m >= 2 and summary is not None:
        rec.spectral_residual_k = analysis.spectral_residual(summary, m / 2)
    return rec


def _fill_from_report(rec: RunRecord, rep: estimators.RecoveryReport) -> RunRecord:
    rec.rel_err_x0 = rep.rel_err_x0
    rec.rel_err_x1 = rep.rel_err_x1
    rec.residual_norm = rep.residual_norm if np.isfinite(rep.residual_norm) else None
    rec.bound_rhs = rep.bound_rhs if np.isfinite(rep.bound_rhs) else None
    rec.condition_ok = rep.condition_ok
    rec.objective = rep.objective
    rec.runtime_ms = rep.runtime_ms
    rec.T = rep.t
    return rec


def _run_cell(config, A, summary, loss, x_star, trial, m_idx, m):
    """The records of one cell, and ``{"trial", "m", "t"}`` for each recovery
    round whose solve did not converge; such a round writes no record."""
    rng = SeededRng(config.seed).derive(trial, m_idx)
    opts = config.solve_options()
    spec = (None if config.embedding == "oblivious-dagger" else
            EmbeddingSpec(kind=EMBEDDING_NAMES[config.embedding], m=m, q=config.q, seed=rng))
    records, not_converged = [], []

    def add(rep):
        if rep.converged:
            records.append(_fill_from_report(_record_base(config, trial, m, summary), rep))
        else:
            not_converged.append({"trial": trial, "m": m, "t": rep.t})
        return rep.converged

    if config.experiment in ("recover", "sweep", "kernel"):
        if spec is None:
            rep = estimators.recover_oblivious_dagger(A, loss, config.lam, m, rng, opts,
                                                      x_star=x_star)
        else:
            rep = estimators.recover_whitened(A, loss, config.lam, spec, opts, x_star=x_star)
        add(rep)
    elif config.experiment == "iterative":
        for rep in estimators.recover_iterative(A, loss, config.lam, spec, config.T, opts,
                                                x_star=x_star):
            add(rep)
    elif config.experiment == "nonsmooth":
        out = estimators.recover_nonsmooth(A, loss, config.lam, spec, opts, x_star=x_star)
        if add(out.report):
            arb = _record_base(config, trial, m, summary)
            arb.embedding = "arbitrary-subgradient"
            arb.rel_err_x1 = out.rel_err_arbitrary
            arb.residual_norm = out.report.residual_norm
            arb.runtime_ms = out.report.runtime_ms
            records.append(arb)
    elif config.experiment == "conditioning":
        sketch = build_sketch(A, spec)
        kappa, kappa_dag = analysis.condition_numbers(A, sketch.q_s, config.lam)
        rec = _record_base(config, trial, m, summary)
        rec.kappa, rec.kappa_dagger = kappa, kappa_dag
        records.append(rec)
    elif config.experiment == "risk":
        mc, limit = analysis.risk_zero_order(A, spec, config.noise_var, config.lam,
                                             config.trials, rng.derive(0xE))
        rec = _record_base(config, trial, m, summary)
        rec.objective = mc
        rec.bound_rhs = limit
        records.append(rec)
    else:
        raise ValueError(f"experiment {config.experiment!r} does not produce records")
    return records, not_converged


# The set-up of the last run_experiment call:
# (key, (A, summary, loss, x_star, reference_converged)).
# One slot, emptied before a new set-up is built, so at most one instance is
# ever resident.
_last_setup = (None, None)


def _setup(config: ExperimentConfig):
    """The instance and reference solve of a config, ``(A, summary, loss, x_star,
    reference_converged)``, reused from the previous call when every input they
    depend on matches (a config without a reference counts as converged).  When
    only the loss differs, the data matrix is kept and only the targets and the
    reference solve are redone.  A ``kernel`` config's data is the root ``K_h``
    of the linear-kernel Gram matrix (``K_h @ K_h.T = A @ A.T``), so its cells
    solve and measure in root coordinates.  ``A`` and ``x_star`` are read-only,
    so no cell can change what a later run sees."""
    global _last_setup
    kernel = config.experiment == "kernel"
    reference = config.experiment in ("recover", "sweep", "iterative", "nonsmooth", "kernel")
    opts = config.solve_options()
    key = (config.n, config.d, config.spectrum(), config.seed, config.noise_var,
           config.lam, opts, kernel, reference, config.loss)
    cached_key, setup = _last_setup
    if cached_key == key:
        return setup
    _last_setup = (None, None)
    if cached_key is not None and cached_key[:-1] == key[:-1] and not kernel:
        # same instance, other loss: build_instance's targets, on the kept A
        A, summary = setup[:2]
        loss = synth.synth_loss(config.loss, A, SeededRng(config.seed), config.noise_var)
    else:
        del setup
        A, summary, loss = build_instance(config)
    if kernel:
        A = kernelize.kernel_root(kernelize.gram_from_features(A))
    x_star, converged = (estimators._ensure_reference(A, loss, config.lam, opts)
                         if reference else (None, True))
    for arr in (A, x_star):
        if arr is not None:
            arr.flags.writeable = False
    setup = (A, summary, loss, x_star, converged)
    _last_setup = (key, setup)
    return setup


def run_experiment(config: ExperimentConfig) -> list[RunRecord]:
    """Run all (trial, m) cells of an experiment, write the CSV and JSON
    summary atomically, and return the records in (trial, m) order.

    A cell that raises writes no records; it is logged and listed under
    ``failed`` in the summary.  A round whose solve did not converge writes no
    record either; it is listed under ``not_converged``.  If the reference solve
    did not converge, no cell writes records and the summary sets
    ``reference_not_converged``."""
    A, summary, loss, x_star, reference_converged = _setup(config)
    # trials of a risk config are the noise draws inside each cell; one cell per m
    trials = 1 if config.experiment == "risk" else config.trials
    records, failed, not_converged = [], [], []
    for trial in range(trials):
        for m_idx, m in enumerate(config.m_list):
            try:
                recs, stalled = _run_cell(config, A, summary, loss, x_star, trial, m_idx, m)
            except Exception as exc:
                log.exception("cell (trial=%s, m=%s) failed", trial, m)
                failed.append({"trial": trial, "m": m,
                               "error": f"{type(exc).__name__}: {exc}"})
                continue
            records += recs
            not_converged += stalled
    if not reference_converged:
        records = []
    write_records(config.out_path, records)
    write_summary(_summary_path(config), records, failed, not_converged,
                  not reference_converged)
    return records


def _summary_path(config: ExperimentConfig) -> str:
    return os.path.splitext(config.out_path)[0] + ".summary.json"


def run_certify(config: ExperimentConfig) -> int:
    """Run the named certificate suite(s); exit status 0 iff everything passed."""
    results = certify_suites.run_suites(config.suite, seed=config.seed)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    return 1 if failed else 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    config = parse_config(argv)
    if config.experiment == "certify":
        return run_certify(config)
    records = run_experiment(config)
    print(f"wrote {len(records)} records to {config.out_path}")
    with open(_summary_path(config)) as fh:
        summary = json.load(fh)
    failed, stalled = summary["failed"], summary["not_converged"]
    bad_reference = summary["reference_not_converged"]
    if bad_reference:
        print(f"the reference solve did not converge; see {_summary_path(config)}",
              file=sys.stderr)
    if failed:
        print(f"{len(failed)} cell(s) failed; see {_summary_path(config)}", file=sys.stderr)
    if stalled:
        print(f"{len(stalled)} round(s) did not converge; see {_summary_path(config)}",
              file=sys.stderr)
    return 1 if failed or stalled or bad_reference else 0


if __name__ == "__main__":
    sys.exit(main())
