"""Certificate suites: executable checks of the recovery-error guarantees on
synthetic instances.

Each suite runs a fixed protocol (instance family, sketch sizes, seed counts)
and verifies an inequality that the theory promises: the smooth recovery bound,
residual-norm tail bounds for adaptive Gaussian and SRHT sketches, the
iterative contraction factor, conditioning of the whitened program, the
equivalence of the raw and whitened low-dimensional programs, the oblivious
error floors, the ordering of adaptive versus oblivious errors with scaling
laws, the non-smooth recovery bound, kernel/feature consistency, and the
zero-order risk limit.  ``run_suites`` powers the ``certify`` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from subsketch import analysis, kernelize, synth
from subsketch.embeddings import (
    ADAPTIVE_GAUSSIAN,
    ADAPTIVE_SRHT,
    OBLIVIOUS_GAUSSIAN,
    OBLIVIOUS_SRHT,
    EmbeddingSpec,
    build_adaptive,
    build_sketch,
    projection_residual_norm,
    whiten,
)
from subsketch.estimators import (
    first_order,
    recover_iterative,
    recover_nonsmooth,
    recover_oblivious_dagger,
    recover_whitened,
    zero_order,
)
from subsketch.numkit import SeededRng
from subsketch.solvers import (
    DUAL_OPTIONS,
    SolveOptions,
    solve_nonsmooth_primal_reference,
    solve_primal_reference,
    solve_sketched,
    solve_sketched_raw,
)

GAUSSIAN_RESIDUAL_FACTOR = 26.0
SRHT_RESIDUAL_FACTOR = 5.0


@dataclass
class CertResult:
    name: str
    passed: bool
    detail: str


def _smooth_losses(A, base: SeededRng):
    return [synth.synth_loss(name, A, base) for name in ("quadratic", "logistic", "relu")]


def _certificate_lambda(mu: float, r_k: float) -> float:
    return 2.0 * mu * (GAUSSIAN_RESIDUAL_FACTOR * r_k) ** 2 * 1.01


def smooth_recovery_certificate(n=200, d=400, nu=0.2, ks=(8, 16, 32), seeds=20,
                                seed=0) -> CertResult:
    """The first-order error must stay below sqrt(mu/2 lam) * residual *
    min(1, zero-order error) on every smooth run with the certified lambda."""
    base = SeededRng(seed)
    A, summary = synth.synth_matrix(n, d, synth.SpectrumSpec(synth.EXPONENTIAL, nu=nu),
                                    base.derive(0xA))
    opts = SolveOptions(grad_tolerance=1e-12, max_iters=200)
    worst = -np.inf
    checked = failures = 0
    for li, loss in enumerate(_smooth_losses(A, base)):
        for k in ks:
            r_k = analysis.spectral_residual(summary, k)
            lam = _certificate_lambda(loss.smoothness, r_k)
            x_star = solve_primal_reference(A, loss, lam, opts).minimizer
            for s in range(seeds):
                spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=2 * k,
                                     seed=base.derive(1, li, k, s))
                rep = recover_whitened(A, loss, lam, spec, opts, x_star=x_star)
                checked += 1
                margin = rep.rel_err_x1 - rep.bound_rhs
                worst = max(worst, margin)
                if not (rep.condition_ok and rep.rel_err_x1 <= rep.bound_rhs):
                    failures += 1
    return CertResult(
        "smooth-certificate", failures == 0,
        f"{checked - failures}/{checked} runs satisfied the bound (worst margin {worst:.3e})",
    )


def residual_bound_gaussian(n=200, d=400, nu=0.2, ks=(8, 16, 32), seeds=50,
                            seed=0) -> CertResult:
    """Adaptive Gaussian residual norms at sketch size 2k must stay below 26 R_k."""
    base = SeededRng(seed)
    A, summary = synth.synth_matrix(n, d, synth.SpectrumSpec(synth.EXPONENTIAL, nu=nu),
                                    base.derive(0xA))
    violations = 0
    worst_ratio = 0.0
    for k in ks:
        r_k = analysis.spectral_residual(summary, k)
        for s in range(seeds):
            spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=2 * k, seed=base.derive(2, k, s))
            sketch = build_sketch(A, spec)
            resid = projection_residual_norm(A, sketch.q_s)
            worst_ratio = max(worst_ratio, resid / r_k)
            if resid > GAUSSIAN_RESIDUAL_FACTOR * r_k:
                violations += 1
    total = seeds * len(ks)
    return CertResult(
        "residual-gaussian", violations == 0,
        f"{total - violations}/{total} draws below 26*R_k (worst ratio {worst_ratio:.2f})",
    )


def srht_sketch_size(k: int, n: int) -> int:
    """Sketch size prescription for the SRHT residual bound, clamped to n."""
    m = int(np.ceil(19.0 * (np.sqrt(k) + 4.0 * np.sqrt(np.log(n))) ** 2 * np.log(k * n)))
    return min(m, n)


def residual_bound_srht(n=1024, d=512, nu=0.1, k=8, seeds=50, required=47,
                        seed=0) -> CertResult:
    """Adaptive SRHT residual norms at the prescribed sketch size must stay
    below 5 R_k in at least ``required`` of ``seeds`` draws."""
    base = SeededRng(seed)
    A, summary = synth.synth_matrix(n, d, synth.SpectrumSpec(synth.EXPONENTIAL, nu=nu),
                                    base.derive(0xA))
    m = srht_sketch_size(k, n)
    r_k = analysis.spectral_residual(summary, k)
    hits = 0
    for s in range(seeds):
        spec = EmbeddingSpec(ADAPTIVE_SRHT, m=m, seed=base.derive(3, s))
        sketch = build_sketch(A, spec)
        if projection_residual_norm(A, sketch.q_s) <= SRHT_RESIDUAL_FACTOR * r_k:
            hits += 1
    note = " (m clamped to n; bound vacuous)" if m == n else ""
    return CertResult(
        "residual-srht", hits >= required,
        f"{hits}/{seeds} draws below 5*R_k at m={m}{note}",
    )


def iterative_contraction(n=200, d=400, nu=0.2, ks=(8, 16, 32), T=5, seeds=10,
                          floor=1e-10, seed=0) -> CertResult:
    """Per-iteration error ratios must stay below the certified contraction
    factor plus 0.05 until the error floor, and the cumulative bound
    (mu * residual^2 / 2 lam)^(t/2) must hold at the last checked iteration."""
    base = SeededRng(seed)
    A, summary = synth.synth_matrix(n, d, synth.SpectrumSpec(synth.EXPONENTIAL, nu=nu),
                                    base.derive(0xA))
    opts = SolveOptions(grad_tolerance=1e-12, max_iters=200)
    losses = _smooth_losses(A, base)
    ratio_viol = cum_viol = runs = 0
    worst_ratio = 0.0
    for li, loss in enumerate(losses):
        for k in ks:
            r_k = analysis.spectral_residual(summary, k)
            lam = _certificate_lambda(loss.smoothness, r_k)
            target = np.sqrt(loss.smoothness * (GAUSSIAN_RESIDUAL_FACTOR * r_k) ** 2
                             / (2.0 * lam)) + 0.05
            x_star = solve_primal_reference(A, loss, lam, opts).minimizer
            for s in range(seeds):
                spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=2 * k,
                                     seed=base.derive(4, li, k, s))
                reports = recover_iterative(A, loss, lam, spec, T, opts, x_star=x_star,
                                            error_floor=floor)
                runs += 1
                errs = [1.0] + [rep.rel_err_x1 for rep in reports]
                resid = reports[0].residual_norm
                factor = loss.smoothness * resid**2 / (2.0 * lam)
                last_checked = 0
                for t in range(1, len(errs)):
                    if errs[t] < floor:
                        break
                    ratio = errs[t] / errs[t - 1]
                    worst_ratio = max(worst_ratio, ratio)
                    if ratio > target:
                        ratio_viol += 1
                    last_checked = t
                if last_checked and errs[last_checked] > factor ** (last_checked / 2.0):
                    cum_viol += 1
    return CertResult(
        "iterative-contraction", ratio_viol == 0 and cum_viol == 0,
        f"{runs} runs, {ratio_viol} ratio violations (worst {worst_ratio:.3e}), "
        f"{cum_viol} cumulative violations",
    )


def conditioning_ordering(n=80, d=120, m=20, instances=20, lam=1e-3, seed=0) -> CertResult:
    """The whitened sketched quadratic program is never worse conditioned than
    the full program."""
    base = SeededRng(seed)
    violations = 0
    for i in range(instances):
        gen = base.derive(5, i).generator()
        A = gen.standard_normal((n, d)) / np.sqrt(n)
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=m, seed=base.derive(6, i))
        sketch = build_sketch(A, spec)
        kappa, kappa_dag = analysis.condition_numbers(A, sketch.q_s, lam)
        if kappa_dag > kappa * (1.0 + 1e-12):
            violations += 1
    return CertResult(
        "conditioning", violations == 0,
        f"{instances - violations}/{instances} instances with whitened kappa <= full kappa",
    )


def whitened_equivalence(instances=10, n=40, d=25, m=10, lam=1e-2, tol=1e-6,
                         seed=0) -> CertResult:
    """Solving with the raw embedding-shaped regularizer and with the whitened
    isotropic one must produce identical estimators."""
    base = SeededRng(seed)
    opts = SolveOptions(grad_tolerance=1e-13, max_iters=400)
    worst = 0.0
    for i in range(instances):
        gen = base.derive(7, i).generator()
        A = gen.standard_normal((n, d)) / np.sqrt(n)
        loss = _smooth_losses(A, base.derive(8, i))[i % 3]
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=m, seed=base.derive(9, i))
        S = build_adaptive(A, spec)
        q_s = whiten(S)
        x_star = solve_primal_reference(A, loss, lam, opts).minimizer
        raw = solve_sketched_raw(A @ S, S, loss, lam, opts)
        wht = solve_sketched(A @ q_s, loss, lam, opts)
        x0_raw, x0_wht = S @ raw.minimizer, q_s @ wht.minimizer
        x1_raw = first_order(A, loss, lam, x0_raw)
        x1_wht = first_order(A, loss, lam, x0_wht)
        scale = np.linalg.norm(x_star)
        worst = max(worst,
                    np.linalg.norm(x0_raw - x0_wht) / scale,
                    np.linalg.norm(x1_raw - x1_wht) / scale)
    return CertResult(
        "whitened-equivalence", worst <= tol,
        f"max estimator discrepancy {worst:.3e} over {instances} instances (tol {tol:g})",
    )


def oblivious_zero_order_floor(n=60, d=200, ms=(20, 50, 100), seeds=500, lam=0.1,
                               nu=0.1, seed=0) -> CertResult:
    """Mean squared zero-order error with oblivious embeddings must stay above
    1 - m/d minus three standard errors, for Gaussian and SRHT draws."""
    base = SeededRng(seed)
    A, _ = synth.synth_matrix(n, d, synth.SpectrumSpec(synth.EXPONENTIAL, nu=nu),
                              base.derive(0xA))
    loss = _smooth_losses(A, base)[0]
    opts = SolveOptions(grad_tolerance=1e-10, max_iters=100)
    x_star = solve_primal_reference(A, loss, lam, opts).minimizer
    details = []
    ok = True
    for kind in (OBLIVIOUS_GAUSSIAN, OBLIVIOUS_SRHT):
        for mi, m in enumerate(ms):
            sq = np.empty(seeds)
            for s in range(seeds):
                spec = EmbeddingSpec(kind, m=m, seed=base.derive(10, mi, s))
                rep = recover_whitened(A, loss, lam, spec, opts, x_star=x_star,
                                       compute_residual=False)
                sq[s] = rep.rel_err_x0**2
            floor = 1.0 - m / d
            se = sq.std(ddof=1) / np.sqrt(seeds)
            passed = sq.mean() >= floor - 3.0 * se
            ok = ok and passed
            details.append(f"{kind} m={m}: mean={sq.mean():.3f} floor={floor:.3f}")
    return CertResult("oblivious-floor", ok, "; ".join(details))


def aligned_first_order_floor(n=60, d=60, m=15, lam=1e-3, seeds=500, seed=0) -> CertResult:
    """Aligned quadratic instance: mean squared first-order error with an
    oblivious Gaussian embedding stays above the worst-case floor."""
    base = SeededRng(seed)
    A, _ = synth.synth_matrix(n, d, synth.SpectrumSpec(synth.POLYNOMIAL, nu=1.0, scale=1.0),
                              base.derive(0xA))
    passed, mc, floor, se = analysis.aligned_instance_check(A, lam, m, seeds, base.derive(11))
    return CertResult(
        "aligned-floor", passed,
        f"mc mean {mc:.4f} vs floor {floor:.4f} (3se={3 * se:.4f})",
    )


def sweep_ordering_and_slopes(n=1000, d=2000, lam=1e-4, trials=10,
                              ms=(32, 64, 128, 256, 512), seed=0) -> CertResult:
    """Adaptive first-order errors must beat the unbiased oblivious baseline at
    every sketch size, with the expected log-log scaling for polynomial decay."""
    base = SeededRng(seed)
    opts = SolveOptions(grad_tolerance=1e-10, max_iters=200)
    failures = []
    slope_notes = []
    for di, (decay_name, spectrum) in enumerate((
        ("exp", synth.SpectrumSpec(synth.EXPONENTIAL, nu=0.1)),
        ("poly", synth.SpectrumSpec(synth.POLYNOMIAL, nu=1.0)),
    )):
        A, _ = synth.synth_matrix(n, d, spectrum, base.derive(0xA, di))
        for loss_name in ("logistic", "relu"):
            loss = synth.synth_loss(loss_name, A, base)
            x_star = solve_primal_reference(A, loss, lam, opts).minimizer
            mean_adapt, mean_obliv = [], []
            for mi, m in enumerate(ms):
                ad = np.empty(trials)
                ob = np.empty(trials)
                for t in range(trials):
                    rng = base.derive(12, mi, t)
                    spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=m, seed=rng)
                    ad[t] = recover_whitened(A, loss, lam, spec, opts, x_star=x_star,
                                             compute_residual=False).rel_err_x1
                    ob[t] = recover_oblivious_dagger(A, loss, lam, m, rng.derive(1), opts,
                                                     x_star=x_star).rel_err_x1
                mean_adapt.append(ad.mean())
                mean_obliv.append(ob.mean())
                if ad.mean() >= ob.mean():
                    failures.append(f"{decay_name}/{loss_name} m={m}: "
                                    f"adaptive {ad.mean():.3e} !< oblivious {ob.mean():.3e}")
            if decay_name == "poly":
                s_ad, _, _ = analysis.loglog_slope_fit(ms, mean_adapt)
                s_ob, _, _ = analysis.loglog_slope_fit(ms, mean_obliv)
                slope_notes.append(f"{loss_name}: adaptive {s_ad:.2f}, oblivious {s_ob:.2f}")
                if s_ad > -0.7:
                    failures.append(f"poly/{loss_name}: adaptive slope {s_ad:.2f} > -0.7")
                if not (-0.7 <= s_ob <= -0.3):
                    failures.append(f"poly/{loss_name}: oblivious slope {s_ob:.2f} not in [-0.7,-0.3]")
    detail = "; ".join(slope_notes) + ("; " + "; ".join(failures) if failures else "")
    return CertResult("sweep-ordering", not failures, detail)


def nonsmooth_bound_and_ordering(n=1000, d=2000, lam=1e-2, ratio=0.98, trials=20,
                                 ms=(32, 64, 128, 256, 512), seed=0) -> CertResult:
    """Non-smooth recovery: the dual-map error must satisfy the sqrt(6) (L/lam)
    residual bound on every run, beat the arbitrary-subgradient estimator on
    average at every m above 64, and the restricted dual must reach the plain
    dual's objective.  Every solve must converge, the reference included.  The
    detail line reports the largest relative duality gap over all the dual
    solves, then the solves that did not converge."""
    base = SeededRng(seed)
    A, _ = synth.synth_matrix(n, d, synth.SpectrumSpec(synth.GEOMETRIC, ratio=ratio),
                              base.derive(0xA))
    failures = []
    unconverged, max_gap = 0, 0.0
    for loss_name in ("l1", "linf", "hinge"):
        loss = synth.synth_loss(loss_name, A, base)
        x_star, z_res = solve_nonsmooth_primal_reference(A, loss, lam, DUAL_OPTIONS)
        unconverged += not z_res.converged
        max_gap = max(max_gap, z_res.grad_norm)
        x_norm = np.linalg.norm(x_star)
        for mi, m in enumerate(ms):
            err_main = np.empty(trials)
            err_arb = np.empty(trials)
            for t in range(trials):
                spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=m, seed=base.derive(13, mi, t))
                out = recover_nonsmooth(A, loss, lam, spec, DUAL_OPTIONS, x_star=x_star,
                                        warm_start=z_res.minimizer)
                rep = out.report
                unconverged += not rep.converged
                max_gap = max(max_gap, out.dual_gap)
                err_main[t] = rep.rel_err_x1
                err_arb[t] = out.rel_err_arbitrary
                abs_err = rep.rel_err_x1 * x_norm
                if abs_err > rep.bound_rhs:
                    failures.append(f"{loss_name} m={m} t={t}: error {abs_err:.3e} "
                                    f"exceeds bound {rep.bound_rhs:.3e}")
                gap = abs(rep.objective - out.dual_objective_plain)
                if gap > 1e-6 * max(1.0, abs(out.dual_objective_plain)):
                    failures.append(f"{loss_name} m={m} t={t}: route objectives differ by {gap:.2e}")
            if m >= 64 and err_main.mean() > err_arb.mean():
                failures.append(f"{loss_name} m={m}: dual-map mean {err_main.mean():.3e} "
                                f"above arbitrary-subgradient mean {err_arb.mean():.3e}")
    detail = ("; ".join(failures) if failures else
              f"all runs within bound and ordered for m>=64 over {ms}")
    return CertResult("nonsmooth-bound", not failures and not unconverged,
                      f"{detail}; largest relative duality gap {max_gap:.1e}; "
                      f"{unconverged} unconverged solves")


def kernel_feature_consistency(instances=10, n=30, d=20, m=8, lam=1e-2,
                               seed=0) -> CertResult:
    """Feature-space and kernel-space pipelines sharing the inner embedding
    must produce the same estimator, with RKHS error equal to Euclidean error."""
    base = SeededRng(seed)
    opts = SolveOptions(grad_tolerance=1e-13, max_iters=400)
    worst_vec = worst_err = 0.0
    for i in range(instances):
        gen = base.derive(14, i).generator()
        A = gen.standard_normal((n, d)) / np.sqrt(n)
        loss = _smooth_losses(A, base.derive(15, i))[i % 3]
        s_tilde = base.derive(16, i).generator().normal(0.0, 1.0 / np.sqrt(m), (n, m))
        # feature route
        S = A.T @ s_tilde
        q_s = whiten(S)
        beta = solve_sketched(A @ q_s, loss, lam, opts).minimizer
        x1 = first_order(A, loss, lam, zero_order(q_s, beta))
        x_star = solve_primal_reference(A, loss, lam, opts).minimizer
        # kernel route
        K = kernelize.gram_from_features(A)
        alpha_k = kernelize.solve_sketched_kernel(K, s_tilde, loss, lam, opts).minimizer
        w1 = kernelize.kernel_first_order(K, s_tilde, alpha_k, loss, lam)
        w_star = kernelize.solve_sketched_kernel(K, np.eye(n), loss, lam, opts).minimizer
        worst_vec = max(worst_vec, np.linalg.norm(x1 - A.T @ w1) / np.linalg.norm(x1))
        rkhs_rel = (kernelize.rkhs_distance(K, w1, w_star)
                    / kernelize.rkhs_distance(K, w_star, np.zeros(n)))
        euclid_rel = np.linalg.norm(x1 - x_star) / np.linalg.norm(x_star)
        worst_err = max(worst_err, abs(rkhs_rel - euclid_rel))
    return CertResult(
        "kernel-consistency", worst_vec <= 1e-8 and worst_err <= 1e-6,
        f"max vector gap {worst_vec:.2e} (tol 1e-8), max error-metric gap {worst_err:.2e} (tol 1e-6)",
    )


def risk_limit(n=200, d=400, nu=0.2, noise_var=25.0, lam=1e-8, trials=500,
               event_draws=50, event_required=45, seed=0) -> CertResult:
    """Monte-Carlo zero-order risk must match its analytic small-lambda limit
    within 5%, and the low-bias event must hold in most sketch draws."""
    base = SeededRng(seed)
    A, summary = synth.synth_matrix(n, d, synth.SpectrumSpec(synth.EXPONENTIAL, nu=nu),
                                    base.derive(0xA))
    d_s = analysis.statistical_dimension(summary, noise_var, n)
    m = 4 * d_s
    spec = EmbeddingSpec(OBLIVIOUS_GAUSSIAN, m=m, seed=base.derive(17))
    mc, limit = analysis.risk_zero_order(A, spec, noise_var, lam, trials, base.derive(18))
    rel_gap = abs(mc - limit) / limit
    threshold = summary.singular_values[d_s] ** 2 / 2.0 if d_s < summary.rank else 0.0
    hits = 0
    for s in range(event_draws):
        draw = EmbeddingSpec(OBLIVIOUS_GAUSSIAN, m=m, seed=base.derive(19, s))
        if analysis.sketched_range_residual(A, draw) ** 2 <= threshold:
            hits += 1
    passed = rel_gap <= 0.05 and hits >= event_required
    return CertResult(
        "risk-limit", passed,
        f"d_s={d_s} m={m}: |mc-limit|/limit={rel_gap:.3f}, "
        f"low-bias event {hits}/{event_draws}",
    )


SUITES = {
    "smooth-certificate": smooth_recovery_certificate,
    "residual-gaussian": residual_bound_gaussian,
    "residual-srht": residual_bound_srht,
    "iterative-contraction": iterative_contraction,
    "conditioning": conditioning_ordering,
    "whitened-equivalence": whitened_equivalence,
    "oblivious-floor": oblivious_zero_order_floor,
    "aligned-floor": aligned_first_order_floor,
    "sweep-ordering": sweep_ordering_and_slopes,
    "nonsmooth-bound": nonsmooth_bound_and_ordering,
    "kernel-consistency": kernel_feature_consistency,
    "risk-limit": risk_limit,
}


def run_suites(name: str = "all", seed: int = 0) -> list[CertResult]:
    """Run one named certificate suite, or all of them."""
    if name == "all":
        return [fn(seed=seed) for fn in SUITES.values()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return [SUITES[name](seed=seed)]
