import itertools

import numpy as np
import pytest
import scipy.linalg
from scipy.linalg import cho_factor, cho_solve

from oracles import (
    accelerated_gradient,
    nested_grid_minimize,
    ridge_solution,
    simplex_projection_bisection,
)
from test_golden_outputs import CASES
from subsketch import estimators, numkit, solvers
from subsketch.embeddings import ADAPTIVE_GAUSSIAN, EmbeddingSpec, build_sketch
from subsketch.harness import ExperimentConfig, build_instance, parse_config, run_experiment
from subsketch.losses import (
    BoxSet,
    L1BallSet,
    SimplexFaceSet,
    make_loss,
    project_box,
    project_l1_ball,
    project_scaled_simplex,
)
from subsketch.numkit import SeededRng, thin_svd
from subsketch.solvers import (
    SolveOptions,
    _newton_step_direct,
    _newton_step_dual_space,
    solve_dual_projected,
    solve_nonsmooth_primal_reference,
    solve_primal_reference,
    solve_sketched,
    solve_sketched_raw,
    solve_sketched_shifted,
)

TIGHT = SolveOptions(grad_tolerance=1e-12, max_iters=300)


def _random_instance(n, d, seed, loss_name="logistic"):
    gen = SeededRng(seed).generator()
    A = gen.standard_normal((n, d)) / np.sqrt(n)
    y = gen.integers(0, 2, n) * 2.0 - 1.0
    loss = make_loss(loss_name, b=gen.standard_normal(n), y=y)
    return A, loss


class TestPrimalReference:
    def test_quadratic_closed_form(self):
        A = np.diag([2.0, 1.0])
        b = np.array([2.0, 1.0])
        res = solve_primal_reference(A, make_loss("quadratic", b=b), 1.0, TIGHT)
        assert np.allclose(res.minimizer, [4.0 / 5.0, 1.0 / 2.0], atol=1e-10)
        assert res.converged

    def test_heavy_regularization_bound(self):
        A, loss = _random_instance(20, 30, seed=1)
        lam = 1e9
        res = solve_primal_reference(A, loss, lam, TIGHT)
        cap = np.linalg.norm(A.T @ loss.gradient(np.zeros(20))) / lam
        assert np.linalg.norm(res.minimizer) <= cap * (1 + 1e-6)

    def test_logistic_against_accelerated_gradient_oracle(self):
        A, loss = _random_instance(50, 20, seed=2)
        lam = 1e-2

        def grad(x):
            return A.T @ loss.gradient(A @ x) + lam * x

        lip = loss.smoothness * np.linalg.norm(A, 2) ** 2 + lam
        x_oracle = accelerated_gradient(grad, lip, np.zeros(20), iters=100_000)
        res = solve_primal_reference(A, loss, lam, TIGHT)

        def objective(x):
            return loss.value(A @ x) + 0.5 * lam * x @ x

        assert abs(objective(res.minimizer) - objective(x_oracle)) <= 1e-9

    def test_dual_space_newton_matches_direct(self):
        # d >> n triggers the n-sided Newton systems; answers must agree
        A, loss = _random_instance(15, 60, seed=3)
        lam = 0.05
        res = solve_primal_reference(A, loss, lam, TIGHT)
        direct = accelerated_gradient(
            lambda x: A.T @ loss.gradient(A @ x) + lam * x,
            loss.smoothness * np.linalg.norm(A, 2) ** 2 + lam,
            np.zeros(60), iters=200_000)
        assert np.linalg.norm(res.minimizer - direct) <= 1e-7

    def test_kkt_residual(self):
        for seed in range(5):
            A, loss = _random_instance(25, 15, seed=seed)
            lam = 0.1
            res = solve_primal_reference(A, loss, lam, TIGHT)
            x = res.minimizer
            assert res.converged
            kkt = np.linalg.norm(x + A.T @ loss.gradient(A @ x) / lam)
            assert kkt <= 10 * TIGHT.grad_tolerance * (1 + np.linalg.norm(x))


class TestSketchedSolve:
    def test_full_sketch_recovers_reference(self):
        A, loss = _random_instance(20, 12, seed=4)
        lam = 0.1
        ref = solve_primal_reference(A, loss, lam, TIGHT)
        res = solve_sketched(A, loss, lam, TIGHT)  # q_s = identity
        assert np.linalg.norm(res.minimizer - ref.minimizer) <= 1e-8

    def test_quadratic_closed_form(self):
        gen = SeededRng(5).generator()
        B = gen.standard_normal((15, 6))
        b = gen.standard_normal(15)
        lam = 0.3
        res = solve_sketched(B, make_loss("quadratic", b=b), lam, TIGHT)
        assert np.allclose(res.minimizer, ridge_solution(B, b, lam), atol=1e-9)

    def test_zero_columns_pure_ridge(self):
        b = np.ones(5)
        res = solve_sketched(np.zeros((5, 3)), make_loss("quadratic", b=b), 1.0, TIGHT)
        assert np.allclose(res.minimizer, 0.0)
        res0 = solve_sketched(np.zeros((5, 0)), make_loss("quadratic", b=b), 1.0, TIGHT)
        assert res0.minimizer.size == 0 and res0.converged


class TestNewtonStep:
    # a well-conditioned step system, n=50 samples and m=10 coordinates, solved
    # here by scipy's Cholesky as the reference for numpy's LU inside the solver
    @staticmethod
    def _system(seed):
        gen = SeededRng(seed).generator()
        B = gen.standard_normal((50, 10)) / np.sqrt(50)
        h = gen.uniform(0.1, 1.0, 50)
        g = gen.standard_normal(10)
        S = gen.standard_normal((10, 10)) / np.sqrt(10) + np.eye(10)
        return B, h, 0.5, g, S.T @ S

    @staticmethod
    def _cholesky_step(B, h, lam, g, G):
        return -cho_solve(cho_factor((B * h[:, None]).T @ B + lam * G), g)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_direct_step_matches_cholesky(self, seed):
        B, h, lam, g, G = self._system(seed)
        for gram in (None, G):
            ref = self._cholesky_step(B, h, lam, g, np.eye(10) if gram is None else gram)
            step = _newton_step_direct(B, h, lam, g, gram)
            assert np.linalg.norm(step - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dual_space_step_matches_cholesky(self, seed):
        B, h, lam, g, _ = self._system(seed)
        ref = self._cholesky_step(B, h, lam, g, np.eye(10))
        step = _newton_step_dual_space(B, B @ B.T, h, lam, g)
        assert np.linalg.norm(step - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_exactly_singular_system_takes_the_least_squares_step(self):
        # a zero column in S and in A @ S leaves a zero row and column in the
        # raw program's Hessian; the solve raises and lstsq takes the step
        A, loss = _random_instance(20, 15, seed=30)
        S = SeededRng(31).generator().standard_normal((15, 4))
        S[:, 2] = 0.0
        res = solve_sketched_raw(A @ S, S, loss, 0.1, TIGHT)
        assert np.all(np.isfinite(res.minimizer)) and res.converged
        assert res.minimizer[2] == 0.0
        kept = np.delete(S, 2, axis=1)
        ref = solve_sketched_raw(A @ kept, kept, loss, 0.1, TIGHT)
        assert np.linalg.norm(S @ res.minimizer - kept @ ref.minimizer) <= 1e-8


class TestShiftedSolve:
    def test_zero_shift_matches_plain(self):
        A, loss = _random_instance(18, 7, seed=6)
        lam = 0.2
        a = solve_sketched(A, loss, lam, TIGHT)
        b = solve_sketched_shifted(A, np.zeros(18), np.zeros(7), loss, lam, TIGHT)
        assert np.allclose(a.minimizer, b.minimizer, atol=1e-10)

    def test_quadratic_shifted_closed_form(self):
        gen = SeededRng(7).generator()
        B = gen.standard_normal((12, 5))
        target = gen.standard_normal(12)
        shift_img = gen.standard_normal(12)
        shift_co = gen.standard_normal(5)
        lam = 0.4
        res = solve_sketched_shifted(B, shift_img, shift_co,
                                     make_loss("quadratic", b=target), lam, TIGHT)
        # stationarity: B.T (B a + c - target) + lam (a + t) = 0
        expected = np.linalg.solve(B.T @ B + lam * np.eye(5),
                                   B.T @ (target - shift_img) - lam * shift_co)
        assert np.allclose(res.minimizer, expected, atol=1e-9)

    def test_shift_at_optimum_gives_zero(self):
        A, loss = _random_instance(16, 8, seed=8)
        lam = 0.3
        ref = solve_primal_reference(A, loss, lam, TIGHT)
        sketch = build_sketch(A, EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=8, seed=SeededRng(9)))
        res = solve_sketched_shifted(sketch.a_qs, A @ ref.minimizer,
                                     sketch.q_s.T @ ref.minimizer, loss, lam, TIGHT)
        assert np.linalg.norm(res.minimizer) <= 1e-8

    def test_dimension_checks(self):
        with pytest.raises(ValueError):
            solve_sketched_shifted(np.eye(3), np.zeros(2), np.zeros(3),
                                   make_loss("quadratic", b=np.zeros(3)), 1.0, TIGHT)


class TestProjections:
    def test_box_clipping(self):
        assert np.array_equal(project_box(np.array([5.0, -5.0]), [-1, -1], [1, 1]), [1.0, -1.0])

    def test_box_empty(self):
        with pytest.raises(ValueError):
            project_box(np.zeros(2), [1.0, 0.0], [0.0, 1.0])

    def test_simplex_symmetry(self):
        out = project_scaled_simplex(np.array([0.8, 0.8]), np.array([1.0, 1.0]), 1.0)
        assert np.allclose(out, [0.5, 0.5])

    def test_simplex_against_bisection_oracle(self):
        gen = SeededRng(10).generator()
        for _ in range(30):
            v = gen.standard_normal(9) * 2
            signs = np.sign(gen.standard_normal(9))
            signs[signs == 0] = 1.0
            ours = project_scaled_simplex(v, signs, 1.0)
            oracle = signs * simplex_projection_bisection(signs * v, 1.0)
            assert np.abs(ours - oracle).max() <= 1e-10

    def test_l1_ball(self):
        v = np.array([2.0, -0.5])
        out = project_l1_ball(v, 1.0)
        assert np.abs(out).sum() <= 1.0 + 1e-12
        inside = np.array([0.2, -0.3])
        assert np.array_equal(project_l1_ball(inside, 1.0), inside)

    def test_support_functions_are_maxima_over_vertices(self):
        gen = SeededRng(23).generator()
        r = gen.standard_normal(5)
        lows, highs = -gen.random(5), gen.random(5)
        corners = np.array(list(itertools.product(*zip(lows, highs))))
        assert BoxSet(lows, highs).support(r) == pytest.approx((corners @ r).max(), rel=1e-14)
        signs = np.array([1.0, 0.0, -1.0, -1.0, 1.0])
        vertices = 2.0 * np.diag(signs)[signs != 0]
        assert SimplexFaceSet(signs, 2.0).support(r) == pytest.approx((vertices @ r).max(),
                                                                      rel=1e-14)
        vertices = 3.0 * np.vstack([np.eye(5), -np.eye(5)])
        assert L1BallSet(3.0).support(r) == pytest.approx((vertices @ r).max(), rel=1e-14)


class TestDualProjected:
    def test_huge_lambda_linear_endpoints(self):
        gen = SeededRng(11).generator()
        b = gen.standard_normal(6)
        B = gen.standard_normal((4, 6))
        loss = make_loss("l1", b=b)
        feas = loss.conjugate_domain()
        res = solve_dual_projected(B, b, 1e12, feas,
                                   SolveOptions(grad_tolerance=1e-10, max_iters=10_000))
        assert np.allclose(res.minimizer, -np.sign(b), atol=1e-6)

    def test_l1_2x2_against_grid_oracle(self):
        gen = SeededRng(12).generator()
        B = gen.standard_normal((2, 2))
        b = np.array([0.7, -0.2])
        lam = 0.5
        loss = make_loss("l1", b=b)

        def objective(y):
            return y @ b + np.linalg.norm(B @ y) ** 2 / (2 * lam)

        _, oracle_val = nested_grid_minimize(objective, [-1, -1], [1, 1], rounds=12, pts=61)
        res = solve_dual_projected(B, b, lam, loss.conjugate_domain(),
                                   SolveOptions(grad_tolerance=1e-12, max_iters=50_000))
        assert res.objective <= oracle_val + 1e-8

    def test_single_point_box(self):
        point = np.array([0.3, -0.3])
        feas = BoxSet(point, point)
        res = solve_dual_projected(np.eye(2), np.ones(2), 1.0, feas,
                                   SolveOptions(grad_tolerance=1e-10, max_iters=100))
        assert np.array_equal(res.minimizer, point)

    def test_simplex_face_set(self):
        signs = np.array([1.0, 0.0, -1.0])
        feas = SimplexFaceSet(signs, 1.0)
        y = feas.project(np.array([2.0, 9.0, 1.0]))
        assert y[1] == 0.0
        assert abs(np.abs(y).sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("case", ["box", "simplex-face", "l1-ball-boundary",
                                      "l1-ball-interior"])
    def test_each_set_is_finished_on_its_kkt_point(self, case):
        """The active-set finisher lands on the KKT point of every feasible set
        in its one pass: y is its own projected gradient step, y = P(y - grad)."""
        gen = SeededRng(22).generator()
        B = gen.standard_normal((6, 20))
        b = gen.standard_normal(20)
        lam = 0.1
        if case == "box":
            feas = make_loss("l1", b=b).conjugate_domain()
        elif case == "simplex-face":
            feas = SimplexFaceSet(np.where(np.arange(20) % 3 == 0, 0.0, np.sign(b)), 1.0)
        elif case == "l1-ball-boundary":
            feas = L1BallSet(1.0)
        else:
            # quadratic with consistent linear term: optimum strictly inside the ball
            B, b, lam = np.eye(3) * 2.0, np.array([-0.4, 0.2, 0.0]), 1.0
            feas = L1BallSet(1.0)
        res = solve_dual_projected(B, b, lam, feas,
                                   SolveOptions(grad_tolerance=1e-12, max_iters=20_000))
        y = res.minimizer
        grad = b + B.T @ (B @ y) / lam
        assert np.abs(y - feas.project(y - grad)).max() <= 1e-10
        assert res.iterations == 0 and res.converged
        if case == "l1-ball-boundary":
            assert np.abs(y).sum() == pytest.approx(1.0, abs=1e-12)
        if case == "l1-ball-interior":
            assert np.abs(y + b / 4.0).max() <= 1e-8  # stationarity of b.y + 2 y.y

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("case", ["box", "simplex-face", "l1-ball"])
    def test_dual_does_not_depend_on_the_objective_scale(self, case, seed):
        """Scaling the objective by c (B -> sqrt(c) B, b -> c b) leaves the
        minimizer and the relative gap test unchanged: the finisher's point
        passes at either scale."""
        gen = SeededRng(seed).generator()
        B = gen.standard_normal((20, 60))
        b = gen.standard_normal(60)
        feas = {"box": BoxSet(-np.ones(60), np.ones(60)),
                "simplex-face": SimplexFaceSet(
                    np.where(np.arange(60) % 3 == 0, 0.0, np.sign(b)), 1.0),
                "l1-ball": L1BallSet(1.0)}[case]
        results = [solve_dual_projected(np.sqrt(c) * B, c * b, 0.1, feas) for c in (1.0, 1e6)]
        for res in results:
            assert res.converged and res.iterations == 0
        y1, y2 = (res.minimizer for res in results)
        assert np.linalg.norm(y2 - y1) <= 1e-12 * np.linalg.norm(y1)

    @pytest.mark.parametrize("argv, optimum", [
        pytest.param("--n 60 --d 45 --ratio 0.8 --loss l1 --lambda 1e-4 --seed 5",
                     -3.3359314, id="l1-n60"),
        pytest.param("--n 200 --d 150 --ratio 0.9 --loss hinge --lambda 1e-3 --seed 0",
                     -146.01444, id="hinge-n200")])
    def test_one_pass_solves_d_lt_n_duals(self, argv, optimum):
        """The reference duals of two d < n runs, whose faces have dependent
        columns: the finisher solves them through the non-basis columns of its
        face factor (at the least squares of B_F.T B_F / lam it stopped at
        -3.2610 and -92.95)."""
        config = parse_config(f"nonsmooth --decay geom {argv}".split())
        A, _, loss = build_instance(config)
        res = solve_dual_projected(A.T, loss.b, config.lam, loss.conjugate_domain(),
                                   config.solve_options())
        assert res.converged and res.iterations == 0
        assert res.objective == pytest.approx(optimum, rel=1e-7)

    @pytest.mark.parametrize("case", ["seed10-n200", "golden-nonsmooth-linf"])
    def test_linf_duals_need_no_projected_gradient(self, monkeypatch, tmp_path, case):
        """Every dual of a linf run, the L1-ball plain duals and reference
        included, converges in its one finisher pass."""
        solve = solvers.solve_dual_projected
        results = []

        def recorded(*args, **kwargs):
            results.append((type(args[3]).__name__, solve(*args, **kwargs)))
            return results[-1][1]

        monkeypatch.setattr(solvers, "solve_dual_projected", recorded)
        monkeypatch.setattr(estimators, "solve_dual_projected", recorded)
        if case == "seed10-n200":
            params = dict(experiment="nonsmooth", n=200, d=400, decay="geom", ratio=0.98,
                          loss="linf", lam=1e-2, m_list=[16, 32, 64, 128], seed=10)
        else:
            params = CASES["nonsmooth-linf"]
        run_experiment(ExperimentConfig(**params, out_path=str(tmp_path / "run.csv")))
        assert [kind for kind, _ in results].count("L1BallSet") == len(params["m_list"]) + 1
        for kind, res in results:
            assert res.iterations == 0 and res.converged, kind

    def test_paired_columns_are_solved_in_one_pass(self, monkeypatch):
        """Paired columns make every face that frees a pair rank deficient; the
        finisher solves it through the non-basis columns of its factor, with no
        SVD, LU solve or least squares (each one here raises)."""
        def raising(*args, **kwargs):
            raise AssertionError("the finisher ran a face SVD, LU or least squares")

        monkeypatch.setattr(numkit, "thin_svd", raising)
        monkeypatch.setattr(scipy.linalg, "svd", raising)
        monkeypatch.setattr(np.linalg, "solve", raising)
        monkeypatch.setattr(solvers, "_lstsq", raising)
        nonbasis = []

        class Recorded(solvers._Face):
            def solve(self, x):
                nonbasis.append(len(self.nonbasis))
                return super().solve(x)

        monkeypatch.setattr(solvers, "_Face", Recorded)
        gen = SeededRng(20).generator()
        C = gen.standard_normal((6, 3))
        B = np.hstack([C, C])
        b = np.tile(gen.standard_normal(3), 2)
        res = solve_dual_projected(B, b, 1.0, make_loss("l1", b=b).conjugate_domain())
        assert res.converged and res.iterations == 0
        assert res.objective == pytest.approx(-0.43774, abs=1e-5)
        assert max(nonbasis) > 0

    @staticmethod
    def _paired_ball():
        gen = SeededRng(20).generator()
        C = gen.standard_normal((6, 3))
        return np.hstack([C, C]), np.tile(gen.standard_normal(3), 2), L1BallSet(1.0)

    def test_non_finite_face_factor_returns_the_start_unconverged(self, monkeypatch):
        """A factor that turns non-finite fails the step's residual check; a
        fresh one that fails too ends the finisher, and the gap test reports
        the projected start unconverged instead of raising."""
        init = solvers._Face.__init__

        def poisoned(self, *args):
            init(self, *args)
            self.R = np.full_like(self.R, np.nan)

        monkeypatch.setattr(solvers._Face, "__init__", poisoned)
        B, b, feas = self._paired_ball()
        res = solve_dual_projected(B, b, 1.0, feas)
        assert not res.converged and res.iterations == 0
        assert res.objective == 0.0 and not res.minimizer.any()
        assert res.grad_norm > 1e-3

    def test_corrupted_update_refactors_the_face(self, monkeypatch):
        """An update that leaves a non-finite factor is caught by the next
        step's residual check, which refactors the face from scratch; the
        solve then converges to the same point."""
        B, b, feas = self._paired_ball()
        clean = solve_dual_projected(B, b, 1.0, feas)
        init, add = solvers._Face.__init__, solvers._Face.add
        factored, corrupted = [], []

        def counted(self, *args):
            factored.append(args[2].size)
            init(self, *args)

        def corrupts_once(self, j):
            add(self, j)
            if not corrupted:
                corrupted.append(j)
                self.R = np.full_like(self.R, np.nan)

        monkeypatch.setattr(solvers._Face, "__init__", counted)
        monkeypatch.setattr(solvers._Face, "add", corrupts_once)
        res = solve_dual_projected(B, b, 1.0, feas)
        assert corrupted and len(factored) == 2
        assert res.converged and res.iterations == 0
        assert np.abs(res.minimizer - clean.minimizer).max() <= 1e-12

    @pytest.mark.parametrize("loss_name", ["l1", "hinge"])
    def test_box_duals_run_lbfgsb_at_scipy_default_memory(self, monkeypatch, loss_name):
        """The box accelerator calls L-BFGS-B through ``scipy.optimize.minimize``
        and keeps scipy's default number of correction pairs."""
        import scipy.optimize

        minimize = scipy.optimize.minimize
        calls = []

        def recorded(*args, **kwargs):
            calls.append(kwargs)
            return minimize(*args, **kwargs)

        monkeypatch.setattr(scipy.optimize, "minimize", recorded)
        gen = SeededRng(21).generator()
        A = gen.standard_normal((30, 8)) / np.sqrt(30)
        target = gen.standard_normal(30)
        loss = make_loss(loss_name, b=np.sign(target) if loss_name == "hinge" else target)
        feas = loss.conjugate_domain()
        assert isinstance(feas, BoxSet)
        solve_dual_projected(A.T, loss.b, 0.1, feas,
                             SolveOptions(grad_tolerance=1e-9, max_iters=1_000))
        assert calls
        for kwargs in calls:
            assert kwargs["method"] == "L-BFGS-B"
            assert "maxcor" not in kwargs.get("options", {})


class TestFaceFactor:
    """The finisher's factor of its free columns under random frees and pins:
    after every update the kept triangle reproduces the Gram matrix of the
    basis columns, the basis has the rank of the free columns, and every
    non-basis column lies in the basis's span."""

    @staticmethod
    def _matrix(case, gen):
        if case == "fewer-rows":
            return gen.standard_normal((8, 30)), None
        if case == "more-rows":
            return gen.standard_normal((30, 12)), None
        if case == "duplicated":
            B = gen.standard_normal((10, 24))
            B[:, 1::2] = B[:, ::2]
            return B, None
        B = gen.standard_normal((8, 12))  # the L1-ball lifting, with its equality row
        lifted = np.hstack([B, -B, np.zeros((8, 1))])
        return lifted, np.linalg.norm(lifted, axis=0).max() * np.ones(25)

    @pytest.mark.parametrize("case", ["fewer-rows", "more-rows", "duplicated", "lifted-l1-ball"])
    def test_random_frees_and_pins_keep_the_factor(self, case):
        gen = SeededRng(24).derive(len(case)).generator()
        B, arow = self._matrix(case, gen)
        M = B if arow is None else np.vstack([B, arow])
        tol = np.finfo(float).eps * max(M.shape) * np.linalg.norm(M, axis=0).max()
        free = gen.random(M.shape[1]) < 0.5
        face = solvers._Face(B, arow, np.flatnonzero(free), tol)
        for _ in range(300):
            j = int(gen.integers(M.shape[1]))
            face.remove(j) if free[j] else face.add(j)
            free[j] = not free[j]
            basis, rest = face.basis, face.nonbasis
            assert sorted(basis + rest) == list(np.flatnonzero(free))
            Mb = M[:, basis]
            gram = Mb.T @ Mb
            assert not np.tril(face.R, -1).any()
            assert np.linalg.norm(face.R.T @ face.R - gram) <= 1e-10 * np.linalg.norm(gram)
            assert np.array_equal(face.cols[:, :len(basis)], Mb)
            assert len(basis) == (np.linalg.matrix_rank(M[:, free]) if free.any() else 0)
            if rest:
                coef = np.linalg.lstsq(Mb, M[:, rest], rcond=None)[0]
                assert np.linalg.norm(Mb @ coef - M[:, rest]) <= 1e-10 * np.linalg.norm(M[:, rest])


def _frank_wolfe_gap(B, b, lam, feas, y):
    """The relative duality gap of y, from the vertex v of ``feas`` that
    minimizes g.v, computed from the set's own bounds: g.(y - v) over
    max(|D|, |P|), with P = -g.v + ||B y||^2 / (2 lam)."""
    By = B @ y
    g = b + B.T @ By / lam
    v = np.zeros_like(y)
    if isinstance(feas, BoxSet):
        v = np.where(g > 0, feas.lows, feas.highs)
    elif isinstance(feas, SimplexFaceSet):
        j = np.flatnonzero(feas.signs)[np.argmin((feas.signs * g)[feas.signs != 0])]
        v[j] = feas.radius * feas.signs[j]
    else:
        j = np.argmax(np.abs(g))
        v[j] = -feas.radius * np.sign(g[j])
    quad = By @ By / (2 * lam)
    return g @ (y - v) / max(abs(b @ y + quad), abs(quad - g @ v))


class TestDualStress:
    """Seeded net over the dual solver: every set, B with fewer or more rows
    than dual coordinates, duplicated columns, column condition up to 1e8,
    lam from 1e-4 to 1, the objective scaled by c = 1e-3 .. 1e3 (B -> sqrt(c) B,
    b -> c b), and cold and warm starts (at the cold minimizer); each (cond, c)
    pair meets one lam.  Every solve
    must converge in its one pass, at a relative gap of at most 1e-11 by
    Frank-Wolfe's own count."""

    @pytest.mark.parametrize("shape", [(20, 60), (60, 20), (40, 40), (8, 120)])
    @pytest.mark.parametrize("kind", ["l1", "hinge", "simplex-face", "l1-ball"])
    def test_every_dual_converges_at_a_small_gap(self, kind, shape):
        m, n = shape
        failures = []
        for dup, (i, cond) in itertools.product((False, True), enumerate((1e1, 1e4, 1e8))):
            gen = SeededRng(0).derive(m, n, i, int(dup)).generator()
            r = min(m, n)
            U = np.linalg.qr(gen.standard_normal((m, r)))[0]
            V = np.linalg.qr(gen.standard_normal((n, r)))[0]
            B = (U * np.logspace(0, -np.log10(cond), r)) @ V.T
            if dup:
                B[:, 1::2] = B[:, ::2]
            b = gen.standard_normal(n)
            if kind in ("l1", "hinge"):
                loss = make_loss(kind, b=np.sign(b) if kind == "hinge" else b)
                b, feas = loss.b, loss.conjugate_domain()
            elif kind == "simplex-face":
                feas = SimplexFaceSet(np.where(np.arange(n) % 3 == 0, 0.0, np.sign(b)), 1.0)
            else:
                feas = L1BallSet(1.0)
            for j, c in enumerate((1e-3, 1.0, 1e3)):
                lam = (1e-4, 1e-2, 1.0)[(i + j) % 3]  # a Latin square: every (cond, lam), (lam, c)
                Bc, bc = np.sqrt(c) * B, c * b
                cold = solve_dual_projected(Bc, bc, lam, feas)
                warm = solve_dual_projected(Bc, bc, lam, feas, y0=cold.minimizer)
                for start, res in (("cold", cold), ("warm", warm)):
                    gap = _frank_wolfe_gap(Bc, bc, lam, feas, res.minimizer)
                    if not (res.converged and res.iterations == 0 and gap <= 1e-11):
                        failures.append((dup, cond, lam, c, start, res.converged,
                                         res.iterations, gap))
        assert failures == []


class TestNonsmoothReference:
    def test_l1_identity_instance(self):
        b = np.array([1.0, -1.0])
        x_star, res = solve_nonsmooth_primal_reference(np.eye(2), make_loss("l1", b=b), 1.0)
        assert np.allclose(res.minimizer, [-1.0, 1.0], atol=1e-8)
        assert np.allclose(x_star, [1.0, -1.0], atol=1e-8)

    def test_hinge_satisfied_margins_have_zero_dual(self):
        # one strongly fit coordinate, one violated: A = [[2], [0.1]], labels +1
        A = np.array([[2.0], [0.1]])
        loss = make_loss("hinge", b=np.array([1.0, 1.0]))
        lam = 0.05
        x_star, res = solve_nonsmooth_primal_reference(A, loss, lam)
        assert abs(res.minimizer[0]) <= 1e-9  # margin strictly satisfied
        assert res.minimizer[1] == pytest.approx(-1.0, abs=1e-8)
        assert x_star[0] == pytest.approx(2.0, abs=1e-6)

    def test_linf_primal_against_grid_search(self):
        gen = SeededRng(14).generator()
        A = gen.standard_normal((3, 2))
        b = gen.standard_normal(3)
        lam = 0.2
        loss = make_loss("linf", b=b)
        x_star, _ = solve_nonsmooth_primal_reference(
            A, loss, lam, SolveOptions(grad_tolerance=1e-12, max_iters=100_000))

        def primal(x):
            return loss.value(A @ x) + 0.5 * lam * x @ x

        _, oracle_val = nested_grid_minimize(primal, [-3, -3], [3, 3], rounds=10, pts=61)
        assert primal(x_star) <= oracle_val + 1e-6


class TestWhitenedConditioning:
    def test_newton_iterations_never_worse_sketched(self):
        opts = SolveOptions(grad_tolerance=1e-10, max_iters=50)
        for seed in range(20):
            gen = SeededRng(seed).generator()
            A = gen.standard_normal((25, 35)) / 5.0
            b = gen.standard_normal(25)
            loss = make_loss("quadratic", b=b)
            sketch = build_sketch(A, EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=10,
                                                   seed=SeededRng(100 + seed)))
            full = solve_primal_reference(A, loss, 0.1, opts)
            small = solve_sketched(sketch.a_qs, loss, 0.1, opts)
            assert small.iterations <= full.iterations

    def test_sketched_kkt_after_back_mapping(self):
        # map the whitened solution back to raw coordinates and check the
        # stationarity of the embedding-shaped program
        gen = SeededRng(15).generator()
        A = gen.standard_normal((12, 9))
        loss = make_loss("logistic", y=np.sign(gen.standard_normal(12)) + 0.0)
        lam = 0.2
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=4, seed=SeededRng(16))
        sketch = build_sketch(A, spec)
        res = solve_sketched(sketch.a_qs, loss, lam, TIGHT)
        f = thin_svd(sketch.s)
        alpha = f.vt.T @ ((f.vt @ res.minimizer) / f.singular_values)
        S = sketch.s
        kkt = S.T @ S @ alpha + S.T @ A.T @ loss.gradient(A @ S @ alpha) / lam
        assert np.linalg.norm(kkt) <= 1e-8

    def test_raw_program_matches_whitened(self):
        gen = SeededRng(17).generator()
        A = gen.standard_normal((14, 10))
        loss = make_loss("quadratic", b=gen.standard_normal(14))
        lam = 0.15
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=5, seed=SeededRng(18))
        sketch = build_sketch(A, spec)
        raw = solve_sketched_raw(A @ sketch.s, sketch.s, loss, lam, TIGHT)
        wht = solve_sketched(sketch.a_qs, loss, lam, TIGHT)
        assert np.linalg.norm(sketch.s @ raw.minimizer - sketch.q_s @ wht.minimizer) <= 1e-7
