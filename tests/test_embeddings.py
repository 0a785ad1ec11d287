import tracemalloc

import numpy as np
import pytest

from subsketch.analysis import SpectralSummary, spectral_residual
from subsketch.embeddings import (
    ADAPTIVE_GAUSSIAN,
    ADAPTIVE_SRHT,
    COLUMN_SUBSAMPLE,
    OBLIVIOUS_GAUSSIAN,
    OBLIVIOUS_SRHT,
    DegenerateSketch,
    EmbeddingSpec,
    _fwht_inplace,
    apply_srht,
    build_adaptive,
    build_sketch,
    next_pow2,
    projection_residual_norm,
    srht_matrix,
    whiten,
)
from subsketch.numkit import SeededRng, sample_gaussian_matrix
from subsketch.synth import EXPONENTIAL, SpectrumSpec, synth_matrix

from oracles import allocating_apply_srht, allocating_fwht_rows


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EmbeddingSpec("bogus", m=4)

    def test_power_rejected_for_oblivious(self):
        with pytest.raises(ValueError):
            EmbeddingSpec(OBLIVIOUS_GAUSSIAN, m=4, q=1)

    def test_minimum_sketch_size(self):
        with pytest.raises(ValueError):
            EmbeddingSpec(OBLIVIOUS_GAUSSIAN, m=0)


def _fwht_rows(M):
    """Orthonormal Walsh-Hadamard transform of each row of M through the
    in-place column kernel."""
    X = np.array(M.T, order="C")
    _fwht_inplace(X)
    return np.ascontiguousarray(X.T) / np.sqrt(M.shape[1])


class TestSrht:
    def test_orthogonality_property(self):
        # materialize the implied embedding by transforming the identity
        for seed in (0, 1, 2):
            S = apply_srht(np.eye(8), 4, SeededRng(seed))
            assert np.abs(S.T @ S - 2.0 * np.eye(4)).max() <= 1e-10

    def test_zero_input_padded(self):
        out = apply_srht(np.zeros((2, 3)), 2, SeededRng(0))
        assert np.allclose(out, 0.0)

    def test_first_basis_row_transform(self):
        e1 = np.zeros((1, 4))
        e1[0, 0] = 1.0
        assert np.allclose(_fwht_rows(e1), 0.5 * np.ones((1, 4)))

    def test_transform_is_orthonormal(self):
        H = _fwht_rows(np.eye(8))
        assert np.abs(H.T @ H - np.eye(8)).max() <= 1e-12

    def test_sketch_size_cap(self):
        with pytest.raises(ValueError):
            apply_srht(np.ones((2, 3)), 5, SeededRng(0))

    def test_next_pow2(self):
        assert [next_pow2(k) for k in (1, 2, 3, 5, 8)] == [1, 2, 4, 8, 8]


def _same_bits(a, b):
    return a.shape == b.shape and a.strides == b.strides and a.tobytes() == b.tobytes()


class TestSrhtBitIdentity:
    """The in-place transform and the m-row oblivious draw change no bit."""

    @pytest.mark.parametrize("rows,width", [(1, 1), (1, 64), (37, 64), (37, 128), (50, 1024)])
    def test_fwht_rows_matches_allocating_loop(self, rows, width):
        M = SeededRng(40, rows * 4096 + width).generator().standard_normal((rows, width))
        assert _same_bits(_fwht_rows(M), allocating_fwht_rows(M))

    @pytest.mark.parametrize("rows,p", [(1, 1), (3, 5), (37, 100), (37, 128), (50, 1000)])
    def test_apply_srht_matches_allocating_loop(self, rows, p):
        # p = 5, 100 and 1000 are zero-padded; the F-order layout of the result
        # is kept too, since it decides how later products sum
        M = SeededRng(41, rows * 4096 + p).generator().standard_normal((rows, p))
        pt = next_pow2(p)
        for m in sorted({1, min(7, pt), pt}):
            for seed in (0, 1, 2):
                assert _same_bits(apply_srht(M, m, SeededRng(seed)),
                                  allocating_apply_srht(M, m, SeededRng(seed)))
        # a transposed view, as the adaptive SRHT passes A.T
        assert _same_bits(apply_srht(M.T, 1, SeededRng(3)),
                          allocating_apply_srht(M.T, 1, SeededRng(3)))

    @pytest.mark.parametrize("p", [8, 36, 200, 1024, 2000])
    def test_srht_matrix_is_the_transformed_identity(self, p):
        pt = next_pow2(p)
        for m in sorted({1, 7, pt}):
            for seed in (0, 1, 2):
                S = srht_matrix(p, m, SeededRng(seed))
                T = apply_srht(np.eye(pt), m, SeededRng(seed))
                assert np.array_equal(S, T)
                # bit for bit: equal values could still differ in the sign of zero
                assert S.tobytes() == np.ascontiguousarray(T).tobytes()

    def test_srht_matrix_sketch_size_cap(self):
        with pytest.raises(ValueError):
            srht_matrix(3, 5, SeededRng(0))
        with pytest.raises(ValueError):
            srht_matrix(1024, 1025, SeededRng(0))


class TestObliviousGaussian:
    def test_single_entry(self):
        spec = EmbeddingSpec(OBLIVIOUS_GAUSSIAN, m=1, seed=SeededRng(4))
        assert build_sketch(np.ones((1, 1)), spec).s.shape == (1, 1)

    def test_determinism(self):
        A = np.ones((2, 10))
        spec = EmbeddingSpec(OBLIVIOUS_GAUSSIAN, m=3, seed=SeededRng(5))
        assert np.array_equal(build_sketch(A, spec).s, build_sketch(A, spec).s)

    def test_gram_diagonal_scaling(self):
        d, m, draws = 1000, 10, 200
        A = np.ones((1, d))
        acc = 0.0
        for i in range(draws):
            spec = EmbeddingSpec(OBLIVIOUS_GAUSSIAN, m=m, seed=SeededRng(6, i))
            S = build_sketch(A, spec).s
            acc += np.diag(S.T @ S).mean()
        assert abs(acc / draws - d / m) <= 0.05 * d / m


class TestAdaptive:
    def test_zero_power_is_plain_product(self):
        gen = SeededRng(7).generator()
        A = gen.standard_normal((6, 9))
        seed = SeededRng(8)
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=4, q=0, seed=seed)
        S = build_adaptive(A, spec)
        s_tilde = sample_gaussian_matrix(6, 4, 0.25, seed)
        assert np.allclose(S, A.T @ s_tilde)

    def test_identity_data_returns_inner_matrix(self):
        seed = SeededRng(9)
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=3, q=2, seed=seed)
        S = build_adaptive(np.eye(5), spec)
        s_tilde = sample_gaussian_matrix(5, 3, 1.0 / 3.0, seed)
        assert np.allclose(S, s_tilde)

    def test_power_product_against_direct_oracle(self):
        A = np.diag([2.0, 1.0, 0.0])
        seed = SeededRng(10)
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=3, q=2, seed=seed)
        S = build_adaptive(A, spec)
        s_tilde = sample_gaussian_matrix(3, 3, 1.0 / 3.0, seed)
        expected = np.linalg.matrix_power(A.T @ A, 2) @ A.T @ s_tilde
        assert np.abs(S - expected).max() <= 1e-12
        # with the identity inner matrix the product is diag(32, 1, 0)
        assert np.allclose(np.linalg.matrix_power(A.T @ A, 2) @ A.T, np.diag([32.0, 1.0, 0.0]))

    def test_srht_kind_matches_direct_product(self):
        gen = SeededRng(11).generator()
        A = gen.standard_normal((8, 5))
        seed = SeededRng(12)
        S = build_adaptive(A, EmbeddingSpec(ADAPTIVE_SRHT, m=4, q=1, seed=seed))
        s_tilde = apply_srht(np.eye(8), 4, seed)
        assert np.allclose(S, A.T @ A @ (A.T @ s_tilde))


def _column_selector(n, m, rng):
    # with A = I the column-subsample embedding A.T @ S_tilde is the selector S_tilde
    return build_adaptive(np.eye(n), EmbeddingSpec(COLUMN_SUBSAMPLE, m=m, seed=rng))


class TestColumnSubsample:
    def test_full_size_is_permutation_selector(self):
        S = _column_selector(4, 4, SeededRng(13))
        assert np.array_equal(np.sort(np.argmax(S, axis=0)), np.arange(4))
        assert S.sum() == 4

    def test_distinct_columns(self):
        S = _column_selector(5, 2, SeededRng(14))
        cols = np.argmax(S, axis=0)
        assert cols[0] != cols[1]

    def test_uniform_frequency(self):
        counts = np.zeros(4)
        for i in range(10_000):
            S = _column_selector(4, 1, SeededRng(15, i))
            counts[np.argmax(S[:, 0])] += 1
        assert np.abs(counts / 10_000 - 0.25).max() <= 0.015

    def test_rejects_oversample(self):
        with pytest.raises(ValueError):
            _column_selector(3, 4, SeededRng(0))


class TestWhiten:
    def test_orthonormal_input_fixed_point(self):
        Q, _ = np.linalg.qr(SeededRng(16).generator().standard_normal((6, 3)))
        assert np.abs(whiten(Q) - Q).max() <= 1e-10

    def test_scaling_removed(self):
        S = np.zeros((4, 1))
        S[0, 0] = 3.0
        q = whiten(S)
        assert np.allclose(q, np.array([[1.0], [0.0], [0.0], [0.0]]))

    def test_duplicated_column_rank_two(self):
        gen = SeededRng(17).generator()
        base = gen.standard_normal((4, 2))
        S = np.column_stack([base[:, 0], base[:, 1], base[:, 0]])
        q = whiten(S)
        assert q.shape == (4, 2)
        assert np.abs(q.T @ q - np.eye(2)).max() <= 1e-10
        # spans range(S)
        assert np.abs(S - q @ (q.T @ S)).max() <= 1e-8 * np.linalg.norm(S)

    def test_zero_sketch_raises(self):
        with pytest.raises(DegenerateSketch):
            whiten(np.zeros((4, 2)))

    def test_projector_matches_pseudo_inverse(self):
        S = SeededRng(18).generator().standard_normal((7, 3))
        q = whiten(S)
        P_oracle = S @ np.linalg.pinv(S.T @ S) @ S.T
        assert np.abs(q @ q.T - P_oracle).max() <= 1e-8


class TestProjectionResidual:
    def test_full_rank_adaptive_is_zero(self):
        gen = SeededRng(19).generator()
        A = gen.standard_normal((6, 10))
        sketch = build_sketch(A, EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=8, seed=SeededRng(20)))
        assert projection_residual_norm(A, sketch.q_s) <= 1e-8

    def test_single_direction_residual(self):
        A = np.diag([2.0, 1.0])
        e1 = np.array([[1.0], [0.0]])
        assert projection_residual_norm(A, e1) == pytest.approx(1.0, abs=1e-10)

    def test_empty_basis_returns_full_norm(self):
        A = np.diag([2.0, 1.0])
        assert projection_residual_norm(A, np.zeros((2, 0))) == pytest.approx(2.0, rel=1e-8)

    # d=36 pads the oblivious SRHT basis to 64 rows; d=32 leaves it unpadded
    @pytest.mark.parametrize("d", [36, 32])
    def test_matches_norm_of_formed_residual(self, d):
        A, _ = synth_matrix(24, d, SpectrumSpec(EXPONENTIAL, nu=0.4), SeededRng(21))
        A.flags.writeable = False
        q_s = build_sketch(A, EmbeddingSpec(OBLIVIOUS_SRHT, m=8, seed=SeededRng(22))).q_s
        assert q_s.shape[0] == next_pow2(d)
        R = np.vstack([A.T, np.zeros((q_s.shape[0] - d, A.shape[0]))])
        expected = np.linalg.norm(R - q_s @ (q_s.T @ R), 2)
        assert projection_residual_norm(A, q_s) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("kind", [OBLIVIOUS_SRHT, ADAPTIVE_GAUSSIAN])
    def test_residual_is_never_formed(self, kind):
        n, d = 400, 600
        A, _ = synth_matrix(n, d, SpectrumSpec(EXPONENTIAL, nu=0.4), SeededRng(21))
        q_s = build_sketch(A, EmbeddingSpec(kind, m=32, seed=SeededRng(22))).q_s
        tracemalloc.start()
        try:
            projection_residual_norm(A, q_s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= d * n * 8 / 4

    def test_non_finite_data_raises(self):
        A = np.diag([2.0, 1.0])
        A[1, 0] = np.inf
        with pytest.raises(ValueError, match="NaN or Inf"):
            projection_residual_norm(A, np.array([[1.0], [0.0]]))


class TestSketchBundle:
    @pytest.mark.parametrize("kind,q", [(ADAPTIVE_GAUSSIAN, 0), (ADAPTIVE_GAUSSIAN, 1),
                                        (ADAPTIVE_SRHT, 0), (OBLIVIOUS_GAUSSIAN, 0),
                                        (COLUMN_SUBSAMPLE, 0)])
    def test_invariants(self, kind, q):
        gen = SeededRng(21).generator()
        A = gen.standard_normal((12, 10))
        sketch = build_sketch(A, EmbeddingSpec(kind, m=5, q=q, seed=SeededRng(22)))
        r = sketch.q_s.shape[1]
        assert np.abs(sketch.q_s.T @ sketch.q_s - np.eye(r)).max() <= 1e-10
        s = sketch.s
        assert np.abs(s - sketch.q_s @ (sketch.q_s.T @ s)).max() <= 1e-8 * np.linalg.norm(s)
        assert np.allclose(sketch.a_qs, A @ sketch.q_s[: A.shape[1]])


class TestResidualTailBounds:
    def test_gaussian_residual_factor_small_instance(self):
        n, d, k, seeds = 100, 150, 8, 50
        A, summary = synth_matrix(n, d, SpectrumSpec(EXPONENTIAL, nu=0.3), SeededRng(23))
        r_k = spectral_residual(summary, k)
        for s in range(seeds):
            sketch = build_sketch(A, EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=2 * k,
                                                   seed=SeededRng(24, s)))
            assert projection_residual_norm(A, sketch.q_s) <= 26.0 * r_k

    def test_power_iterations_shrink_residual(self):
        n, d = 40, 60
        A, _ = synth_matrix(n, d, SpectrumSpec(EXPONENTIAL, nu=0.5), SeededRng(25))
        for s in range(5):
            resids = []
            for q in (0, 1, 2):
                spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=8, q=q, seed=SeededRng(26, s))
                sketch = build_sketch(A, spec)
                resids.append(projection_residual_norm(A, sketch.q_s))
            assert resids[0] >= resids[1] >= resids[2]
