import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import jacobi_singular_values
from subsketch import numkit
from subsketch.embeddings import DegenerateSketch, whiten
from subsketch.numkit import (
    ConvergenceError,
    ResidualOperator,
    SeededRng,
    mix64,
    sample_gaussian_matrix,
    sample_haar_frame,
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


def _rank_deficient(rows, cols, rank, seed):
    gen = SeededRng(seed).generator()
    return gen.standard_normal((rows, rank)) @ gen.standard_normal((rank, cols))


class TestThinSvdDrivers:
    """thin_svd runs gesdd in scipy's LAPACK and falls back to gesvd."""

    @pytest.mark.parametrize("M", [
        SeededRng(40).generator().standard_normal((60, 9)),
        SeededRng(41).generator().standard_normal((9, 60)),
        _rank_deficient(50, 12, 5, seed=42),
        _rank_deficient(12, 50, 5, seed=43),
        np.zeros((7, 4)),
    ], ids=["tall", "wide", "rank-deficient-tall", "rank-deficient-wide", "zero"])
    def test_agrees_with_numpy_svd(self, M):
        f = thin_svd(M)
        u, s, vt = np.linalg.svd(M, full_matrices=False)
        r = int(np.count_nonzero(s > numkit.DEFAULT_RANK_TOLERANCE * s[0])) if s[0] > 0 else 0
        assert f.rank == r
        assert np.all(np.abs(f.singular_values - s[:r]) <= 1e-13 * s[:r])
        if r == 0:
            with pytest.raises(DegenerateSketch):
                whiten(M)
            return
        # the range's basis: the polar factor is unique at full column rank,
        # and at lower rank the basis is compared through its projector
        q, ref = whiten(M), (u @ vt if r == M.shape[1] else u[:, :r])
        if r < M.shape[1]:
            q, ref = q @ q.T, ref @ ref.T
        assert np.abs(q - ref).max() <= 1e-12

    def test_gesvd_takes_over_when_gesdd_fails(self, monkeypatch):
        svd, drivers = scipy.linalg.svd, []

        def gesdd_fails(M, **kwargs):
            drivers.append(kwargs.get("lapack_driver", "gesdd"))
            if drivers[-1] == "gesdd":
                raise np.linalg.LinAlgError("SVD did not converge")
            return svd(M, **kwargs)

        monkeypatch.setattr(numkit.scipy.linalg, "svd", gesdd_fails)
        M = SeededRng(44).generator().standard_normal((20, 6))
        f = thin_svd(M)
        assert drivers == ["gesdd", "gesvd"]
        s = np.linalg.svd(M, compute_uv=False)
        assert np.all(np.abs(f.singular_values - s) <= 1e-13 * s)
        assert np.abs(f.u @ np.diag(s) @ f.vt - M).max() <= 1e-12 * s[0]

    def test_both_drivers_failing_raises_convergence_error(self, monkeypatch):
        def fails(M, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(numkit.scipy.linalg, "svd", fails)
        with pytest.raises(ConvergenceError, match=r"shape \(5, 3\)"):
            thin_svd(np.ones((5, 3)))


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
        # more nearly equal top singular values than steps, so three steps
        # neither reach the dimension nor settle
        M = np.diag([1.0, 0.9999, 0.9998, 0.9997, 0.9996, 0.5])
        with pytest.raises(ConvergenceError) as err:
            spectral_norm(M, tol=1e-30, max_iters=3)
        assert err.value.iterations == 3
        assert err.value.last_estimate == pytest.approx(1.0, rel=1e-2)

    def test_clustered_spectrum(self):
        # power iteration contracts the second direction by (1 - 1e-6)^2 a step
        M = np.diag(np.concatenate([[1.0, 1.0 - 1e-6], 0.5 ** np.arange(1, 39)]))
        assert spectral_norm(M, tol=1e-12) == pytest.approx(np.linalg.norm(M, 2), rel=1e-12)

    def test_repeatable(self):
        M = SeededRng(12).generator().standard_normal((40, 25))
        assert spectral_norm(M, tol=1e-9) == spectral_norm(M, tol=1e-9)

    @pytest.mark.parametrize("shape", [(40, 25), (25, 40)])
    def test_operator_matches_dense(self, shape):
        M = SeededRng(14).generator().standard_normal(shape)
        dense = spectral_norm(M, tol=1e-12)
        assert dense == pytest.approx(np.linalg.norm(M, 2), rel=1e-12)
        assert spectral_norm(_DenseOperator(M), tol=1e-12) == pytest.approx(dense, rel=1e-12)

    def test_nan_through_operator_raises(self):
        M = np.ones((5, 4))
        M[2, 1] = np.nan
        with pytest.raises(ValueError, match="NaN or Inf"):
            spectral_norm(_DenseOperator(M))

    @given(st.integers(0, 2**31 - 1), st.integers(1, 8), st.integers(1, 8))
    def test_bounded_by_frobenius(self, seed, rows, cols):
        M = SeededRng(seed).generator().standard_normal((rows, cols))
        assert spectral_norm(M, tol=1e-10) <= np.linalg.norm(M) * (1.0 + 1e-8)

    @given(st.integers(0, 2**31 - 1))
    def test_frobenius_equality_on_rank_one(self, seed):
        gen = SeededRng(seed).generator()
        M = np.outer(gen.standard_normal(6), gen.standard_normal(4))
        assert spectral_norm(M, tol=1e-12) == pytest.approx(np.linalg.norm(M), rel=1e-6)


class _DenseOperator:
    """The smallest operator ``spectral_norm`` accepts: shape, ``@`` and ``.T``."""

    def __init__(self, M):
        self.M = M
        self.shape = M.shape

    @property
    def T(self):
        return _DenseOperator(self.M.T)

    def __matmul__(self, x):
        return self.M @ x


class TestResidualOperator:
    # rows 20 > 12 pad X with zeros, as the oblivious SRHT basis does
    @pytest.mark.parametrize("rows", [12, 20])
    def test_products_match_formed_residual(self, rows):
        gen = SeededRng(15).generator()
        X = gen.standard_normal((12, 7))
        q, _ = np.linalg.qr(gen.standard_normal((rows, 3)))
        R = np.vstack([X, np.zeros((rows - 12, 7))])
        R -= q @ (q.T @ R)
        op = ResidualOperator(q, X)
        assert op.shape == R.shape and op.T.shape == R.T.shape
        x, y = gen.standard_normal(7), gen.standard_normal(rows)
        assert np.abs(op @ x - R @ x).max() <= 1e-13
        assert np.abs(op.T @ y - R.T @ y).max() <= 1e-13
        assert spectral_norm(op, tol=1e-12) == pytest.approx(np.linalg.norm(R, 2), rel=1e-12)

    def test_short_basis_rejected(self):
        with pytest.raises(ValueError):
            ResidualOperator(np.zeros((3, 1)), np.ones((4, 2)))


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


# Thread counts of the two bundled OpenBLAS pools, read after the package import.
_POOL_PROBE = """
import ctypes, glob, os, sys
import numpy, scipy
import subsketch

def lib(package, pattern):
    libs = os.path.join(os.path.dirname(os.path.dirname(package.__file__)), package.__name__ + ".libs")
    found = glob.glob(os.path.join(libs, pattern))
    return ctypes.CDLL(found[0]) if found else None

scipy_lib = lib(scipy, "libscipy_openblas*.so")
if scipy_lib is None:
    print("none")
    sys.exit()
numpy_lib = lib(numpy, "libscipy_openblas64_*.so")
print(scipy_lib.scipy_openblas_get_num_threads(), numpy_lib.scipy_openblas_get_num_threads64_())
"""


class TestScipyOpenblasCap:
    def test_import_holds_scipy_pool_at_one_thread_and_leaves_numpy_pool(self):
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", _POOL_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=120).stdout.split()
        if out == ["none"]:
            pytest.skip("the installed scipy bundles no OpenBLAS")
        assert out == ["1", "2"]

    def test_no_bundled_library_is_a_no_op(self, tmp_path, monkeypatch):
        loaded = []
        monkeypatch.setattr(numkit, "_SCIPY_LIBS", str(tmp_path))
        monkeypatch.setattr(numkit.ctypes, "CDLL", loaded.append)
        assert numkit._cap_scipy_openblas() is None
        assert loaded == []
