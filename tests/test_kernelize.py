import numpy as np
import pytest

from subsketch.embeddings import whiten
from subsketch.estimators import first_order, zero_order
from subsketch.kernelize import (
    gram_from_features,
    gram_gaussian_kernel,
    kernel_first_order,
    kernel_root,
    rkhs_distance,
    solve_sketched_kernel,
)
from subsketch.losses import make_loss
from subsketch.numkit import SeededRng
from subsketch.solvers import SolveOptions, solve_primal_reference, solve_sketched

TIGHT = SolveOptions(grad_tolerance=1e-13, max_iters=400)


def _smooth_instance(n, d, seed, loss_name="logistic"):
    gen = SeededRng(seed).generator()
    A = gen.standard_normal((n, d)) / np.sqrt(n)
    y = gen.integers(0, 2, n) * 2.0 - 1.0
    loss = make_loss(loss_name, b=gen.standard_normal(n), y=y)
    return A, loss


class TestGram:
    def test_identity_features(self):
        assert np.array_equal(gram_from_features(np.eye(3)), np.eye(3))

    def test_rank_one(self):
        a = np.array([[1.0], [2.0]])
        K = gram_from_features(a)
        evals = np.linalg.eigvalsh(K)
        assert evals[0] <= 1e-10 * evals[-1]

    def test_matches_dot_products(self):
        A = SeededRng(1).generator().standard_normal((5, 4))
        K = gram_from_features(A)
        for i in range(5):
            for j in range(5):
                assert abs(K[i, j] - A[i] @ A[j]) <= 1e-12

    def test_gaussian_kernel_diagonal(self):
        X = SeededRng(2).generator().standard_normal((6, 3))
        K = gram_gaussian_kernel(X, 0.5)
        assert np.allclose(np.diag(K), 1.0)

    def test_gaussian_kernel_identical_points(self):
        X = np.vstack([np.ones(3), np.ones(3)])
        K = gram_gaussian_kernel(X, 1.0)
        assert K[0, 1] == pytest.approx(1.0)

    def test_gaussian_kernel_psd(self):
        X = SeededRng(3).generator().standard_normal((5, 2))
        K = gram_gaussian_kernel(X, 0.7)
        assert np.linalg.eigvalsh(K).min() >= -1e-10


class TestKernelRoot:
    def test_reconstructs_gram(self):
        A = SeededRng(4).generator().standard_normal((6, 4))
        K = gram_from_features(A)
        Kh = kernel_root(K)
        assert np.abs(Kh @ Kh.T - K).max() <= 1e-10

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            kernel_root(np.array([[1.0, 0.0], [0.0, -1.0]]))


class TestSketchedKernel:
    def test_matches_feature_space_solution(self):
        n, d, m = 20, 14, 6
        A, loss = _smooth_instance(n, d, seed=5)
        K = gram_from_features(A)
        s_tilde = SeededRng(6).generator().normal(0, 1 / np.sqrt(m), (n, m))
        lam = 0.1
        alpha_k = solve_sketched_kernel(K, s_tilde, loss, lam, TIGHT).minimizer
        # feature-space program with the adaptive embedding and raw regularizer
        from subsketch.solvers import solve_sketched_raw

        S = A.T @ s_tilde
        alpha_f_res = solve_sketched_raw(A @ S, S, loss, lam, TIGHT)
        assert np.abs(alpha_k - alpha_f_res.minimizer).max() <= 1e-8

    def test_identity_sketch_recovers_kernel_solution(self):
        n, d = 15, 10
        A, loss = _smooth_instance(n, d, seed=7)
        K = gram_from_features(A)
        lam = 0.2
        w_star = solve_sketched_kernel(K, np.eye(n), loss, lam, TIGHT).minimizer
        x_star = solve_primal_reference(A, loss, lam, TIGHT).minimizer
        assert np.linalg.norm(A.T @ w_star - x_star) <= 1e-7

    def test_large_lambda_shrinks_to_zero(self):
        n = 12
        A, loss = _smooth_instance(n, 8, seed=8)
        K = gram_from_features(A)
        s_tilde = SeededRng(9).generator().standard_normal((n, 4))
        alpha = solve_sketched_kernel(K, s_tilde, loss, 1e9, TIGHT).minimizer
        assert np.linalg.norm(alpha) <= 1e-6

    def test_never_touches_features(self):
        # structural: only K and s_tilde go in
        n = 10
        A, loss = _smooth_instance(n, 6, seed=10)
        K = gram_from_features(A)
        s_tilde = SeededRng(11).generator().standard_normal((n, 3))
        res1 = solve_sketched_kernel(K, s_tilde, loss, 0.3, TIGHT)
        res2 = solve_sketched_kernel(K.copy(), s_tilde, loss, 0.3, TIGHT)
        assert np.array_equal(res1.minimizer, res2.minimizer)


class TestKernelEstimators:
    def test_zero_alpha_maps_to_scaled_gradient(self):
        n = 8
        A, loss = _smooth_instance(n, 5, seed=12)
        K = gram_from_features(A)
        s_tilde = SeededRng(13).generator().standard_normal((n, 3))
        lam = 0.5
        w1 = kernel_first_order(K, s_tilde, np.zeros(3), loss, lam)
        assert np.allclose(w1, -loss.gradient(np.zeros(n)) / lam)

    def test_consistency_with_feature_pipeline(self):
        n, d, m = 18, 12, 5
        A, loss = _smooth_instance(n, d, seed=14)
        K = gram_from_features(A)
        s_tilde = SeededRng(15).generator().normal(0, 1 / np.sqrt(m), (n, m))
        lam = 0.15
        alpha_k = solve_sketched_kernel(K, s_tilde, loss, lam, TIGHT).minimizer
        w1 = kernel_first_order(K, s_tilde, alpha_k, loss, lam)
        q_s = whiten(A.T @ s_tilde)
        beta = solve_sketched(A @ q_s, loss, lam, TIGHT).minimizer
        x1 = first_order(A, loss, lam, zero_order(q_s, beta))
        assert np.linalg.norm(A.T @ w1 - x1) <= 1e-8 * max(1.0, np.linalg.norm(x1))

    def test_fixed_point_up_to_null_space(self):
        n = 14
        A, loss = _smooth_instance(n, 9, seed=16)
        K = gram_from_features(A)
        lam = 0.25
        w_star = solve_sketched_kernel(K, np.eye(n), loss, lam, TIGHT).minimizer
        w1 = kernel_first_order(K, np.eye(n), w_star, loss, lam)
        assert np.linalg.norm(K @ (w1 - w_star)) <= 1e-8


class TestRkhsDistance:
    def test_zero_for_equal_weights(self):
        K = gram_from_features(SeededRng(17).generator().standard_normal((5, 3)))
        w = np.ones(5)
        assert rkhs_distance(K, w, w.copy()) == 0.0

    def test_identity_kernel_is_euclidean(self):
        w = np.array([1.0, 2.0])
        v = np.array([0.0, 0.0])
        assert rkhs_distance(np.eye(2), w, v) == pytest.approx(np.sqrt(5.0))

    def test_factor_identity(self):
        A = SeededRng(18).generator().standard_normal((6, 4))
        K = gram_from_features(A)
        gen = SeededRng(19).generator()
        w, v = gen.standard_normal(6), gen.standard_normal(6)
        assert rkhs_distance(K, w, v) == pytest.approx(np.linalg.norm(A.T @ (w - v)), abs=1e-10)


class TestRkhsErrorEqualsEuclidean:
    def test_error_metrics_agree(self):
        n, d, m = 16, 10, 5
        A, loss = _smooth_instance(n, d, seed=26)
        K = gram_from_features(A)
        s_tilde = SeededRng(27).generator().normal(0, 1 / np.sqrt(m), (n, m))
        lam = 0.2
        alpha_k = solve_sketched_kernel(K, s_tilde, loss, lam, TIGHT).minimizer
        w1 = kernel_first_order(K, s_tilde, alpha_k, loss, lam)
        w_star = solve_sketched_kernel(K, np.eye(n), loss, lam, TIGHT).minimizer
        x_star = solve_primal_reference(A, loss, lam, TIGHT).minimizer
        q_s = whiten(A.T @ s_tilde)
        beta = solve_sketched(A @ q_s, loss, lam, TIGHT).minimizer
        x1 = first_order(A, loss, lam, zero_order(q_s, beta))
        rkhs_rel = rkhs_distance(K, w1, w_star) / rkhs_distance(K, w_star, np.zeros(n))
        euclid_rel = np.linalg.norm(x1 - x_star) / np.linalg.norm(x_star)
        assert abs(rkhs_rel - euclid_rel) <= 1e-6
