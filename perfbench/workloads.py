"""Workload definitions and the per-layer metric table.

Pure data: importing this module does not import the package under test, so
``run.py`` can read names and defaults without paying the package's import.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SWEEP_EMBEDDINGS = ("adaptive-gaussian", "adaptive-srht", "srht", "oblivious-dagger")
NONSMOOTH_LOSSES = ("l1", "hinge", "linf")
FAST_SUITES = ("smooth-certificate", "residual-gaussian", "iterative-contraction",
               "conditioning", "whitened-equivalence", "aligned-floor",
               "kernel-consistency", "risk-limit")


@dataclass(frozen=True)
class Workload:
    """One workload: either ``harness.run_experiment`` configs or certificate suites.

    ``default_seed`` is the seed whose outputs are committed as the golden set.
    With ``instances`` > 1 every config runs once per instance seed
    ``seed * instances + j``, so distinct seeds never share an instance.
    """

    name: str
    default_seed: int
    why: str
    configs: tuple = field(default=())
    suites: tuple = field(default=())
    instances: int = 1

    def instance_configs(self, seed: int) -> list[dict]:
        """The ``ExperimentConfig`` keyword arguments of one execution, in order."""
        return [dict(params, seed=seed * self.instances + j)
                for j in range(self.instances) for params in self.configs]


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="sweep-smooth",
            default_seed=42,
            why=("README sweep recipe at paper scale (n=1000, d=2000): sketch draw, "
                 "whitening and projection residual dominate; no dual solver"),
            # The README `sweep` recipe, one run_experiment call per embedding.  One
            # trial per execution keeps an execution near 12 s, so a run repeats it
            # and reports medians: one cell's time varies by up to 2x between
            # repeats with two BLAS threads on two cores.  Six sketch sizes fill
            # the gaps that three left around the median cell time.
            configs=tuple(
                dict(experiment="sweep", n=1000, d=2000, decay="exp", nu=0.1,
                     loss="logistic", lam=1e-4, embedding=emb,
                     m_list=[16, 32, 64, 128, 256, 512], trials=1)
                for emb in SWEEP_EMBEDDINGS),
        ),
        Workload(
            name="nonsmooth-dual",
            default_seed=42,
            why=("nonsmooth recipe on three small instances (n=300, d=600): the "
                 "sketched dual solver and L-BFGS-B dominate, reference solves included"),
            # At n=1000, d=2000 the L1 reference solve alone takes 30 s and at
            # n=500, d=1000 one instance takes 25 s, while L-BFGS-B iteration counts
            # make the cost of an instance vary by ~20% with its seed.  Three
            # smaller instances per execution average that out within a run.
            configs=tuple(
                dict(experiment="nonsmooth", n=300, d=600, decay="geom", ratio=0.98,
                     loss=loss, lam=1e-2, embedding="adaptive-gaussian",
                     m_list=[32, 64, 128, 256], trials=1)
                for loss in NONSMOOTH_LOSSES),
            instances=3,
        ),
        Workload(
            name="certify-fast",
            default_seed=0,
            why=("the eight acceptance suites under 10 s: many small problems where "
                 "per-call overhead counts; only user of kernelize and analysis"),
            suites=FAST_SUITES,
        ),
    )
}

# Span targets: (module, function).  Each becomes a span named "module.function".
LAYER_FUNCTIONS = (
    ("harness", "build_instance"),
    ("harness", "write_records"),
    ("synth", "synth_matrix"),
    ("numkit", "thin_svd"),
    ("numkit", "spectral_norm"),
    ("numkit", "sample_gaussian_matrix"),
    ("numkit", "sample_haar_frame"),
    ("embeddings", "build_sketch"),
    ("embeddings", "apply_srht"),
    ("embeddings", "whiten"),
    ("embeddings", "projection_residual_norm"),
    ("estimators", "recover_whitened"),
    ("estimators", "recover_oblivious_dagger"),
    ("estimators", "recover_nonsmooth"),
    ("estimators", "recover_iterative"),
    ("kernelize", "solve_sketched_kernel"),
    ("kernelize", "kernel_root"),
    ("analysis", "risk_zero_order"),
    ("analysis", "condition_numbers"),
    ("analysis", "aligned_instance_check"),
)
# Solvers are wrapped in every run, traced or not, to read SolveResult.converged;
# in a traced run they also record spans with SolveResult.iterations.
SOLVER_FUNCTIONS = (
    "solve_primal_reference",
    "solve_sketched",
    "solve_sketched_shifted",
    "solve_sketched_raw",
    "solve_dual_projected",
    "solve_nonsmooth_primal_reference",
)
# Loss methods are wrapped on every class of ``subsketch.losses`` that defines them.
LOSS_METHODS = ("value", "gradient", "hessian_diag", "subgradient_partition")
CELL_FUNCTION = ("harness", "_run_cell")


def _m(name, unit, better, home):
    return {"name": name, "unit": unit, "better": better, "home": home}


SW, NS, CF = "sweep-smooth", "nonsmooth-dual", "certify-fast"

# Per-layer metrics.  ``home`` is the workload on which the layer must record
# calls: a traced run there fails with LayerNotExercised if it records none.
PER_LAYER = (
    _m("harness.build_instance.ms", "ms", "lower", SW),
    _m("harness.write_records.ms", "ms", "lower", SW),
    _m("synth.synth_matrix.ms", "ms", "lower", SW),
    _m("numkit.thin_svd.ms", "ms", "lower", SW),
    _m("numkit.thin_svd.calls", "count", "lower", SW),
    _m("numkit.spectral_norm.ms", "ms", "lower", SW),
    _m("numkit.spectral_norm.calls", "count", "lower", SW),
    _m("numkit.sample_gaussian_matrix.ms", "ms", "lower", SW),
    _m("numkit.sample_haar_frame.ms", "ms", "lower", SW),
    _m("embeddings.build_sketch.ms", "ms", "lower", SW),
    _m("embeddings.build_sketch.calls", "count", "lower", SW),
    _m("embeddings.apply_srht.ms", "ms", "lower", SW),
    _m("embeddings.whiten.ms", "ms", "lower", SW),
    _m("embeddings.projection_residual_norm.ms", "ms", "lower", SW),
    _m("embeddings.projection_residual_norm.calls", "count", "lower", SW),
    _m("losses.value.calls", "count", "lower", SW),
    _m("losses.gradient.calls", "count", "lower", SW),
    _m("losses.hessian_diag.calls", "count", "lower", SW),
    _m("losses.subgradient_partition.ms", "ms", "lower", NS),
    _m("solvers.solve_primal_reference.ms", "ms", "lower", SW),
    _m("solvers.solve_primal_reference.iters", "count", "lower", SW),
    _m("solvers.solve_sketched.ms", "ms", "lower", SW),
    _m("solvers.solve_sketched.calls", "count", "lower", SW),
    _m("solvers.solve_sketched.iters", "count", "lower", SW),
    _m("solvers.solve_sketched_shifted.ms", "ms", "lower", CF),
    _m("solvers.solve_sketched_shifted.iters", "count", "lower", CF),
    _m("solvers.solve_dual_projected.ms", "ms", "lower", NS),
    _m("solvers.solve_dual_projected.calls", "count", "lower", NS),
    _m("solvers.solve_dual_projected.iters", "count", "lower", NS),
    _m("solvers.solve_nonsmooth_primal_reference.ms", "ms", "lower", NS),
    _m("solvers.lbfgsb.calls", "count", "lower", NS),
    _m("solvers.lbfgsb.nit", "count", "lower", NS),
    _m("solvers.converged_frac", "frac", "higher", None),
    _m("estimators.recover_whitened.ms", "ms", "lower", SW),
    _m("estimators.recover_oblivious_dagger.ms", "ms", "lower", SW),
    _m("estimators.recover_nonsmooth.ms", "ms", "lower", NS),
    _m("estimators.recover_iterative.ms", "ms", "lower", CF),
    _m("kernelize.solve_sketched_kernel.ms", "ms", "lower", CF),
    _m("kernelize.kernel_root.ms", "ms", "lower", CF),
    _m("analysis.risk_zero_order.ms", "ms", "lower", CF),
    _m("analysis.condition_numbers.ms", "ms", "lower", CF),
    _m("analysis.aligned_instance_check.ms", "ms", "lower", CF),
    *(_m(f"certify.{suite}.ms", "ms", "lower", CF) for suite in FAST_SUITES),
    _m("trace.overhead_frac", "frac", "lower", None),
    _m("trace.counts_repeated_frac", "frac", "higher", None),
)

# Counts that later changes may rest a claim on, if they repeat exactly.
COUNT_METRICS = tuple(m["name"] for m in PER_LAYER
                      if m["unit"] == "count")

END_TO_END = (
    {"name": "setup_s", "unit": "s", "better": "lower"},
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "cells_per_s", "unit": "1/s", "better": "higher"},
    {"name": "cell_ms.p50", "unit": "ms", "better": "lower"},
    {"name": "cell_ms.tail", "unit": "ms", "better": "lower"},
    {"name": "ok_frac", "unit": "frac", "better": "higher"},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower"},
)
