import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import jacobi_singular_values
from subsketch.numkit import (
    ConvergenceError,
    SeededRng,
    load_matrix,
    mix64,
    sample_gaussian_matrix,
    sample_haar_frame,
    save_matrix,
    spectral_norm,
    thin_svd,
)


class TestThinSvd:
    def test_diagonal(self):
        f = thin_svd(np.diag([3.0, 1.0]))
        assert np.allclose(f.singular_values, [3.0, 1.0])
        assert np.allclose(np.abs(f.u), np.eye(2), atol=1e-12)
        assert np.allclose(np.abs(f.vt), np.eye(2), atol=1e-12)

    def test_zero_matrix_has_rank_zero(self):
        f = thin_svd(np.zeros((2, 2)))
        assert f.rank == 0
        assert f.u.shape == (2, 0)
        assert f.vt.shape == (0, 2)

    def test_random_matrix_against_jacobi_oracle(self):
        M = SeededRng(11).generator().standard_normal((20, 7))
        f = thin_svd(M)
        recon = f.u @ np.diag(f.singular_values) @ f.vt
        assert np.abs(recon - M).max() <= 1e-8 * f.singular_values[0]
        oracle = jacobi_singular_values(M)
        assert np.abs(f.singular_values - oracle).max() <= 1e-9

    def test_orthonormal_factors(self):
        M = SeededRng(3).generator().standard_normal((15, 40))
        f = thin_svd(M)
        assert np.abs(f.u.T @ f.u - np.eye(f.rank)).max() <= 1e-10
        assert np.abs(f.vt @ f.vt.T - np.eye(f.rank)).max() <= 1e-10

    def test_rank_tolerance_cuts(self):
        M = np.diag([1.0, 1e-12])
        assert thin_svd(M, rank_tolerance=1e-10).rank == 1
        assert thin_svd(M, rank_tolerance=0.0).rank == 2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            thin_svd(np.array([[np.nan, 1.0]]))
        with pytest.raises(ValueError):
            thin_svd(np.eye(2), rank_tolerance=1.5)

    @settings(max_examples=100)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**31 - 1))
    def test_reconstruction_random_shapes(self, rows, cols, seed):
        M = SeededRng(seed).generator().standard_normal((rows, cols))
        f = thin_svd(M)
        recon = f.u @ np.diag(f.singular_values) @ f.vt
        top = f.singular_values[0] if f.rank else 1.0
        assert np.abs(recon - M).max() <= 1e-8 * top


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([5.0, 2.0, 1.0]), tol=1e-10) == pytest.approx(5.0, rel=5e-7)

    def test_identity(self):
        assert spectral_norm(np.eye(4)) == pytest.approx(1.0, rel=1e-9)

    def test_matches_svd(self):
        M = SeededRng(9).generator().standard_normal((30, 10))
        top = np.linalg.svd(M, compute_uv=False)[0]
        assert spectral_norm(M, tol=1e-9) == pytest.approx(top, rel=1e-6)

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 4))) == 0.0

    def test_iteration_cap(self):
        M = np.diag([1.0, 0.9999])
        with pytest.raises(ConvergenceError) as err:
            spectral_norm(M, tol=1e-30, max_iters=3)
        assert err.value.last_estimate == pytest.approx(1.0, rel=1e-2)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.integers(1, 8))
    def test_bounded_by_frobenius(self, seed, rows, cols):
        M = SeededRng(seed).generator().standard_normal((rows, cols))
        assert spectral_norm(M, tol=1e-10) <= np.linalg.norm(M) * (1.0 + 1e-8)

    @given(st.integers(0, 2**31 - 1))
    def test_frobenius_equality_on_rank_one(self, seed):
        gen = SeededRng(seed).generator()
        M = np.outer(gen.standard_normal(6), gen.standard_normal(4))
        assert spectral_norm(M, tol=1e-12) == pytest.approx(np.linalg.norm(M), rel=1e-6)


class TestSampling:
    def test_gaussian_determinism(self):
        a = sample_gaussian_matrix(1, 1, 1.0, SeededRng(5))
        b = sample_gaussian_matrix(1, 1, 1.0, SeededRng(5))
        assert a == b

    def test_gaussian_moments(self):
        M = sample_gaussian_matrix(1000, 1000, 0.25, SeededRng(6))
        assert abs(M.mean()) <= 3e-3
        assert abs(M.var() - 0.25) <= 0.02 * 0.25

    def test_stream_separation(self):
        a = sample_gaussian_matrix(4, 4, 1.0, SeededRng(5, 0))
        b = sample_gaussian_matrix(4, 4, 1.0, SeededRng(5, 1))
        assert not np.array_equal(a, b)

    def test_haar_orthonormal(self):
        Q = sample_haar_frame(2, 2, SeededRng(7))
        assert np.abs(Q.T @ Q - np.eye(2)).max() <= 1e-12

    def test_haar_reproducible(self):
        assert np.array_equal(sample_haar_frame(5, 2, SeededRng(8)),
                              sample_haar_frame(5, 2, SeededRng(8)))

    def test_haar_mean_projector(self):
        p, r, draws = 6, 2, 2000
        acc = np.zeros((p, p))
        for i in range(draws):
            Q = sample_haar_frame(p, r, SeededRng(10, i))
            acc += Q @ Q.T
        assert np.abs(acc / draws - (r / p) * np.eye(p)).max() <= 0.02

    def test_haar_rejects_tall_request(self):
        with pytest.raises(ValueError):
            sample_haar_frame(3, 4, SeededRng(0))


class TestRngPlumbing:
    def test_mix64_deterministic(self):
        assert mix64(1, 2, 3) == mix64(1, 2, 3)
        assert mix64(1, 2, 3) != mix64(1, 3, 2)
        assert 0 <= mix64(2**63, 17) < 2**64

    def test_derive_changes_stream(self):
        base = SeededRng(42)
        assert base.derive(1).stream_id != base.derive(2).stream_id
        assert base.derive(1) == base.derive(1)


class TestMatrixIO:
    def test_round_trip(self, tmp_path):
        M = SeededRng(13).generator().standard_normal((4, 3)) * 1e-7
        path = tmp_path / "m.txt"
        save_matrix(path, M)
        text = path.read_text().splitlines()
        assert text[0] == "4 3"
        assert np.array_equal(load_matrix(path), M)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 2\n1 2\n")
        with pytest.raises(ValueError):
            load_matrix(path)
