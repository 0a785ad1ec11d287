import numpy as np
import pytest

from oracles import ridge_solution
from subsketch import estimators
from subsketch.embeddings import (
    ADAPTIVE_GAUSSIAN,
    COLUMN_SUBSAMPLE,
    OBLIVIOUS_GAUSSIAN,
    EmbeddingSpec,
    build_sketch,
)
from subsketch.estimators import (
    first_order,
    recover_iterative,
    recover_nonsmooth,
    recover_oblivious_dagger,
    recover_whitened,
    zero_order,
)
from subsketch.losses import make_loss
from subsketch.numkit import SeededRng, sample_gaussian_matrix
from subsketch.solvers import SolveOptions, solve_nonsmooth_primal_reference, solve_primal_reference
from subsketch.synth import EXPONENTIAL, GEOMETRIC, SpectrumSpec, synth_labels, synth_matrix

TIGHT = SolveOptions(grad_tolerance=1e-12, max_iters=300)


def _instance(n, d, seed, loss_name="logistic", decay=EXPONENTIAL, nu=0.3):
    base = SeededRng(seed)
    A, summary = synth_matrix(n, d, SpectrumSpec(decay, nu=nu, ratio=0.9), base.derive(0))
    y = synth_labels(n, base.derive(1))
    b = base.derive(2).generator().standard_normal(n)
    loss = make_loss(loss_name, b=(y if loss_name == "hinge" else b), y=y)
    return A, loss


class TestPointMaps:
    def test_zero_order_zero_alpha(self):
        assert np.array_equal(zero_order(np.eye(3), np.zeros(3)), np.zeros(3))

    def test_zero_order_identity_basis(self):
        x = np.array([1.0, 2.0])
        assert np.array_equal(zero_order(np.eye(2), x), x)

    def test_zero_order_matches_matmul(self):
        gen = SeededRng(1).generator()
        Q = gen.standard_normal((6, 3))
        a = gen.standard_normal(3)
        assert np.allclose(zero_order(Q, a), Q @ a)

    def test_zero_order_shape_check(self):
        with pytest.raises(ValueError):
            zero_order(np.eye(3), np.zeros(2))

    def test_first_order_fixed_point(self):
        A, loss = _instance(15, 10, seed=2)
        lam = 0.5
        res = solve_primal_reference(A, loss, lam, TIGHT)
        x_star = res.minimizer
        mapped = first_order(A, loss, lam, x_star)
        # mapped - x* equals -grad F(x*)/lam exactly, so the gap is the solve accuracy
        assert np.linalg.norm(mapped - x_star) <= 10 * TIGHT.grad_tolerance / lam

    def test_first_order_quadratic_formula(self):
        A = np.array([[2.0, 0.0], [0.0, 1.0]])
        b = np.array([1.0, 1.0])
        v = np.array([0.5, -0.5])
        lam = 2.0
        out = first_order(A, make_loss("quadratic", b=b), lam, v)
        assert np.allclose(out, -(A.T @ (A @ v - b)) / lam)

    def test_first_order_is_gradient_step(self):
        A, loss = _instance(12, 9, seed=3)
        lam = 0.7
        v = SeededRng(4).generator().standard_normal(9)
        lhs = first_order(A, loss, lam, v)
        grad_full = A.T @ loss.gradient(A @ v) + lam * v
        assert np.abs(lhs - (v - grad_full / lam)).max() <= 1e-12


class TestAdaptiveRecovery:
    def test_exact_recovery_with_full_rank_sketch(self):
        A, loss = _instance(20, 40, seed=5)
        rep = recover_whitened(A, loss, 0.05,
                               EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=25, seed=SeededRng(6)),
                               TIGHT)
        assert rep.residual_norm <= 1e-8
        assert rep.rel_err_x1 <= 1e-6
        assert rep.condition_ok

    def test_quadratic_pipeline_matches_closed_form_oracle(self):
        base = SeededRng(7)
        A, _ = synth_matrix(15, 25, SpectrumSpec(EXPONENTIAL, nu=0.4), base.derive(0))
        b = base.derive(1).generator().standard_normal(15)
        loss = make_loss("quadratic", b=b)
        lam = 0.2
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=6, seed=base.derive(2))
        rep = recover_whitened(A, loss, lam, spec, TIGHT)
        # independent composition: closed-form sketched ridge then the dual map
        sketch = build_sketch(A, spec)
        beta = ridge_solution(sketch.a_qs, b, lam)
        x1_oracle = -(A.T @ (sketch.a_qs @ beta - b)) / lam
        assert np.abs(rep.x1 - x1_oracle).max() <= 1e-8
        assert np.abs(rep.x0 - sketch.q_s @ beta).max() <= 1e-8

    def test_bound_certificate_when_condition_holds(self):
        # the first-order error never exceeds the certificate on smooth runs
        for seed in range(10):
            A, loss = _instance(30, 50, seed=100 + seed)
            lam_scale = loss.smoothness
            for m in (8, 16, 30):
                spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=m, seed=SeededRng(200 + seed, m))
                rep = recover_whitened(A, loss, 200.0 * lam_scale, spec, TIGHT)
                if rep.condition_ok:
                    assert rep.rel_err_x1 <= rep.bound_rhs + 1e-9
                    assert rep.rel_err_x1 <= rep.rel_err_x0 + 1e-9

    def test_small_lambda_flags_condition_and_is_skipped(self):
        # a deliberately tiny lambda fails the certificate condition; the bound
        # check is gated on the flag rather than asserted
        A, loss = _instance(25, 40, seed=55)
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=6, seed=SeededRng(56))
        rep = recover_whitened(A, loss, 1e-12, spec, TIGHT)
        assert not rep.condition_ok
        assert np.isfinite(rep.rel_err_x1)

    def test_unconverged_reference_is_reported(self):
        # the instance of `recover --n 16 --d 24 --loss logistic --m 4 --seed 3`:
        # four Newton steps solve the sketched program but not the reference
        from subsketch import harness

        config = harness.parse_config("recover --n 16 --d 24 --loss logistic --m 4 --seed 3".split())
        A, _, loss = harness.build_instance(config)
        opts = SolveOptions(max_iters=4)
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=4, seed=SeededRng(3).derive(0, 0))
        reference = solve_primal_reference(A, loss, 0.01, opts)
        assert not reference.converged
        assert recover_whitened(A, loss, 0.01, spec, opts, x_star=reference.minimizer).converged
        assert not recover_whitened(A, loss, 0.01, spec, opts).converged

    def test_whitened_and_raw_regularizers_agree(self):
        # zero- and first-order estimators are invariant to whitening
        from subsketch.solvers import solve_sketched, solve_sketched_raw

        for seed in range(5):
            gen = SeededRng(300 + seed).generator()
            A = gen.standard_normal((20, 14)) / 4.0
            loss = make_loss("logistic", y=np.sign(gen.standard_normal(20)) + 0.0)
            lam = 0.1
            spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=6, seed=SeededRng(400 + seed))
            sketch = build_sketch(A, spec)
            x_star = solve_primal_reference(A, loss, lam, TIGHT).minimizer
            raw = solve_sketched_raw(A @ sketch.s, sketch.s, loss, lam, TIGHT)
            wht = solve_sketched(sketch.a_qs, loss, lam, TIGHT)
            x0_raw = sketch.s @ raw.minimizer
            x0_wht = sketch.q_s @ wht.minimizer
            scale = np.linalg.norm(x_star)
            assert np.linalg.norm(x0_raw - x0_wht) / scale <= 1e-6
            x1_raw = first_order(A, loss, lam, x0_raw)
            x1_wht = first_order(A, loss, lam, x0_wht)
            assert np.linalg.norm(x1_raw - x1_wht) / scale <= 1e-6


class TestIterativeRecovery:
    def test_single_round_matches_single_shot(self):
        A, loss = _instance(25, 35, seed=10)
        lam = 0.4
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=10, seed=SeededRng(11))
        one = recover_whitened(A, loss, lam, spec, TIGHT)
        seq = recover_iterative(A, loss, lam, spec, T=1, opts=TIGHT)
        assert np.abs(seq[0].x1 - one.x1).max() <= 1e-12

    def test_full_rank_sketch_hits_floor_immediately(self):
        A, loss = _instance(15, 25, seed=12)
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=20, seed=SeededRng(13))
        seq = recover_iterative(A, loss, 0.3, spec, T=2, opts=TIGHT)
        assert seq[0].rel_err_x1 <= 1e-10
        assert len(seq) == 1  # early stop at the error floor

    def test_error_contracts_per_round(self):
        A, loss = _instance(40, 60, seed=14)
        mu = loss.smoothness
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=16, seed=SeededRng(15))
        probe = recover_whitened(A, loss, 1.0, spec, TIGHT)
        lam = 4.0 * mu * probe.residual_norm**2  # comfortably certified
        seq = recover_iterative(A, loss, lam, spec, T=4, opts=TIGHT, error_floor=1e-13)
        errs = [r.rel_err_x1 for r in seq]
        for prev, nxt in zip(errs, errs[1:]):
            if nxt > 1e-12:
                assert nxt <= 0.6 * prev


class TestObliviousDagger:
    def test_huge_lambda_limit(self):
        A, loss = _instance(12, 20, seed=16)
        lam = 1e9
        spec = EmbeddingSpec(OBLIVIOUS_GAUSSIAN, m=5, seed=SeededRng(17))
        rep = recover_oblivious_dagger(A, loss, lam, spec, TIGHT)
        limit = -(A.T @ loss.gradient(np.zeros(12))) / lam
        assert np.linalg.norm(rep.x1 - limit) <= 1e-12

    def test_zero_order_stays_in_sketch_range(self):
        A, loss = _instance(15, 30, seed=18)
        spec = EmbeddingSpec(OBLIVIOUS_GAUSSIAN, m=6, seed=SeededRng(19))
        rep = recover_oblivious_dagger(A, loss, 0.1, spec, TIGHT)
        Q = sample_gaussian_matrix(30, 6, 1.0 / 6, SeededRng(19))
        coef = np.linalg.lstsq(Q, rep.x0, rcond=None)[0]
        assert np.linalg.norm(Q @ coef - rep.x0) <= 1e-12 * np.linalg.norm(rep.x0)
        assert np.isnan(rep.residual_norm) and np.isnan(rep.bound_rhs)
        assert not rep.condition_ok

    def test_draws_the_gaussian_of_its_spec(self, monkeypatch):
        A, loss = _instance(15, 30, seed=18)
        spec = EmbeddingSpec(OBLIVIOUS_GAUSSIAN, m=6, seed=SeededRng(19))
        drawn = []
        rounds = estimators._smooth_rounds

        def spy(A, loss, lam, q_s, *args):
            drawn.append(q_s)
            return rounds(A, loss, lam, q_s, *args)

        monkeypatch.setattr(estimators, "_smooth_rounds", spy)
        recover_oblivious_dagger(A, loss, 0.1, spec, TIGHT)
        assert np.array_equal(drawn[0], sample_gaussian_matrix(30, 6, 1.0 / 6, SeededRng(19)))

    @pytest.mark.parametrize("kind", ["srht", "nystrom", "adaptive-gaussian", "adaptive-srht"])
    def test_rejects_a_spec_of_another_kind(self, kind):
        A, loss = _instance(15, 30, seed=18)
        with pytest.raises(ValueError, match="gaussian spec"):
            recover_oblivious_dagger(A, loss, 0.1, EmbeddingSpec(kind, m=6), TIGHT)


class TestNystrom:
    def test_full_subsample_recovers(self):
        A, loss = _instance(18, 30, seed=20)
        spec = EmbeddingSpec(COLUMN_SUBSAMPLE, m=18, seed=SeededRng(21))
        rep = recover_whitened(A, loss, 0.05, spec, TIGHT)
        assert rep.rel_err_x1 <= 1e-6

    def test_typically_behind_adaptive_gaussian(self):
        # mean ordering over 20 seeds at equal sketch size on a decaying spectrum
        base = SeededRng(30)
        A, _ = synth_matrix(150, 220, SpectrumSpec(EXPONENTIAL, nu=0.1), base.derive(0))
        loss = make_loss("logistic", y=synth_labels(150, base.derive(1)))
        lam = 0.03
        x_star = solve_primal_reference(A, loss, lam, TIGHT).minimizer
        opts = SolveOptions(grad_tolerance=1e-10, max_iters=100)
        m, seeds = 32, 20
        nys = np.empty(seeds)
        ada = np.empty(seeds)
        for s in range(seeds):
            nys_spec = EmbeddingSpec(COLUMN_SUBSAMPLE, m=m, seed=base.derive(2, s))
            nys[s] = recover_whitened(A, loss, lam, nys_spec, opts, x_star=x_star,
                                      compute_residual=False).rel_err_x1
            spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=m, seed=base.derive(3, s))
            ada[s] = recover_whitened(A, loss, lam, spec, opts, x_star=x_star,
                                      compute_residual=False).rel_err_x1
        assert ada.mean() < nys.mean()


class TestNonsmoothRecovery:
    def test_routes_agree_on_l1(self):
        base = SeededRng(22)
        A, _ = synth_matrix(60, 90, SpectrumSpec(GEOMETRIC, ratio=0.9), base.derive(0))
        gen = base.derive(1).generator()
        x_pl = gen.standard_normal(90)
        x_pl /= np.linalg.norm(x_pl)
        b = A @ x_pl + 0.05 * gen.standard_normal(60)
        loss = make_loss("l1", b=b)
        lam = 0.05
        x_star, zres = solve_nonsmooth_primal_reference(A, loss, lam)
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=20, seed=base.derive(2))
        restricted = recover_nonsmooth(A, loss, lam, spec, x_star=x_star,
                                       warm_start=zres.minimizer)
        assert abs(restricted.report.objective - restricted.dual_objective_plain) <= 1e-6 * max(
            1.0, abs(restricted.dual_objective_plain))

    def test_nonsmooth_error_bound(self):
        base = SeededRng(23)
        A, _ = synth_matrix(40, 60, SpectrumSpec(GEOMETRIC, ratio=0.9), base.derive(0))
        labels = synth_labels(40, base.derive(1))
        loss = make_loss("hinge", b=labels)
        lam = 0.1
        x_star, _ = solve_nonsmooth_primal_reference(A, loss, lam)
        for m in (8, 16):
            spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=m, seed=base.derive(2, m))
            out = recover_nonsmooth(A, loss, lam, spec, x_star=x_star)
            abs_err = out.report.rel_err_x1 * out.report.x_star_norm
            assert abs_err <= out.report.bound_rhs

    def test_fully_pinned_partition_needs_no_solve(self, monkeypatch):
        # a target far from every kink pins the whole subdifferential
        iterations = []
        dual = estimators.solve_dual_projected

        def spy(*args, **kwargs):
            res = dual(*args, **kwargs)
            iterations.append(res.iterations)
            return res

        monkeypatch.setattr(estimators, "solve_dual_projected", spy)
        base = SeededRng(24)
        A, _ = synth_matrix(10, 15, SpectrumSpec(EXPONENTIAL, nu=0.5), base.derive(0))
        b = 100.0 + np.arange(10.0)
        loss = make_loss("l1", b=b)
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=4, seed=base.derive(1))
        out = recover_nonsmooth(A, loss, 1.0, spec)
        assert iterations[-1] == 0  # the restricted dual
        assert np.array_equal(out.y_star, -np.ones(10))  # sign(w - b) on every coordinate

    def test_reference_solve_uses_the_given_options(self, monkeypatch):
        seen = []
        reference = estimators.solve_nonsmooth_primal_reference

        def spy(A, loss, lam, *rest):
            seen.append(rest)
            return reference(A, loss, lam, *rest)

        monkeypatch.setattr(estimators, "solve_nonsmooth_primal_reference", spy)
        base = SeededRng(26)
        A, _ = synth_matrix(10, 15, SpectrumSpec(EXPONENTIAL, nu=0.5), base.derive(0))
        loss = make_loss("l1", b=base.derive(1).generator().standard_normal(10))
        opts = SolveOptions(grad_tolerance=1e-8, max_iters=5000)
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=4, seed=base.derive(2))
        recover_nonsmooth(A, loss, 1.0, spec, opts=opts)
        assert seen == [(opts,)]

    def test_report_converged_needs_plain_and_restricted_solves(self, monkeypatch):
        solve = estimators.solve_dual_projected
        base = SeededRng(27)
        A, _ = synth_matrix(12, 18, SpectrumSpec(EXPONENTIAL, nu=0.5), base.derive(0))
        loss = make_loss("l1", b=base.derive(1).generator().standard_normal(12))
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=4, seed=base.derive(2))
        assert recover_nonsmooth(A, loss, 1.0, spec).report.converged
        for plain_ok, restricted_ok in ((False, True), (True, False)):
            statuses = iter([plain_ok, restricted_ok])

            def solve_with_status(*args, **kwargs):
                res = solve(*args, **kwargs)
                res.converged = next(statuses)
                return res

            monkeypatch.setattr(estimators, "solve_dual_projected", solve_with_status)
            assert not recover_nonsmooth(A, loss, 1.0, spec).report.converged
            assert next(statuses, None) is None  # both solves ran

    def test_report_converged_needs_the_reference_solve(self, monkeypatch):
        reference = estimators.solve_nonsmooth_primal_reference

        def unconverged(*args):
            x_star, res = reference(*args)
            res.converged = False
            return x_star, res

        base = SeededRng(27)
        A, _ = synth_matrix(12, 18, SpectrumSpec(EXPONENTIAL, nu=0.5), base.derive(0))
        loss = make_loss("l1", b=base.derive(1).generator().standard_normal(12))
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=4, seed=base.derive(2))
        x_star, _ = reference(A, loss, 1.0)
        monkeypatch.setattr(estimators, "solve_nonsmooth_primal_reference", unconverged)
        assert recover_nonsmooth(A, loss, 1.0, spec, x_star=x_star).report.converged
        assert not recover_nonsmooth(A, loss, 1.0, spec).report.converged

    def test_rejects_plain_oblivious_spec(self):
        A = np.eye(3)
        loss = make_loss("l1", b=np.ones(3))
        with pytest.raises(ValueError):
            recover_nonsmooth(A, loss, 1.0,
                              EmbeddingSpec(OBLIVIOUS_GAUSSIAN, m=2, seed=SeededRng(0)))


class TestObliviousFloorSmall:
    def test_zero_order_floor_small_instance(self):
        n, d, m, seeds = 20, 60, 15, 400
        base = SeededRng(25)
        A, _ = synth_matrix(n, d, SpectrumSpec(EXPONENTIAL, nu=0.2), base.derive(0))
        loss = make_loss("quadratic", b=base.derive(1).generator().standard_normal(n))
        lam = 0.1
        x_star = solve_primal_reference(A, loss, lam, TIGHT).minimizer
        opts = SolveOptions(grad_tolerance=1e-10, max_iters=100)
        sq = np.empty(seeds)
        for s in range(seeds):
            spec = EmbeddingSpec(OBLIVIOUS_GAUSSIAN, m=m, seed=base.derive(2, s))
            rep = recover_whitened(A, loss, lam, spec, opts, x_star=x_star,
                                   compute_residual=False)
            sq[s] = rep.rel_err_x0**2
        se = sq.std(ddof=1) / np.sqrt(seeds)
        assert sq.mean() >= (1.0 - m / d) - 3.0 * se
