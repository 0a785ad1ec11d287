import numpy as np
import pytest

from oracles import (
    accelerated_gradient,
    nested_grid_minimize,
    ridge_solution,
    simplex_projection_bisection,
)
from subsketch.embeddings import ADAPTIVE_GAUSSIAN, EmbeddingSpec, build_sketch
from subsketch.losses import make_loss
from subsketch.numkit import SeededRng, thin_svd
from subsketch.solvers import (
    BoxSet,
    L1BallSet,
    SimplexFaceSet,
    SolveOptions,
    conjugate_feasible_set,
    project_box,
    project_l1_ball,
    project_scaled_simplex,
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


class TestDualProjected:
    def test_huge_lambda_linear_endpoints(self):
        gen = SeededRng(11).generator()
        b = gen.standard_normal(6)
        B = gen.standard_normal((4, 6))
        loss = make_loss("l1", b=b)
        feas = conjugate_feasible_set(loss)
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
        res = solve_dual_projected(B, b, lam, conjugate_feasible_set(loss),
                                   SolveOptions(grad_tolerance=1e-12, max_iters=50_000))
        assert res.objective <= oracle_val + 1e-8

    def test_single_point_box(self):
        point = np.array([0.3, -0.3])
        feas = BoxSet(point, point)
        res = solve_dual_projected(np.eye(2), np.ones(2), 1.0, feas,
                                   SolveOptions(grad_tolerance=1e-10, max_iters=100))
        assert np.array_equal(res.minimizer, point)

    def test_monotone_objective(self):
        gen = SeededRng(13).generator()
        B = gen.standard_normal((5, 20))
        b = gen.standard_normal(20)
        loss = make_loss("l1", b=b)
        trace = []
        solve_dual_projected(B, b, 0.05, conjugate_feasible_set(loss),
                             SolveOptions(grad_tolerance=1e-12, max_iters=5_000),
                             polish=False, callback=lambda it, obj: trace.append(obj))
        assert len(trace) >= 10
        assert all(b2 <= a2 + 1e-12 for a2, b2 in zip(trace, trace[1:]))

    def test_simplex_face_set(self):
        signs = np.array([1.0, 0.0, -1.0])
        feas = SimplexFaceSet(signs, 1.0)
        y = feas.project(np.array([2.0, 9.0, 1.0]))
        assert y[1] == 0.0
        assert abs(np.abs(y).sum() - 1.0) <= 1e-12

    def test_l1_ball_set_interior_optimum(self):
        # quadratic with consistent linear term: optimum strictly inside the ball
        B = np.eye(3) * 2.0
        b = np.array([-0.4, 0.2, 0.0])
        res = solve_dual_projected(B, b, 1.0, L1BallSet(1.0),
                                   SolveOptions(grad_tolerance=1e-12, max_iters=20_000))
        expected = -b / 4.0  # stationarity of b.y + 2 y.y
        assert np.abs(res.minimizer - expected).max() <= 1e-8


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
