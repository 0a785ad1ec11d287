import numpy as np
import pytest

from subsketch.analysis import SpectralSummary, spectral_residual
from subsketch.embeddings import (
    ADAPTIVE_GAUSSIAN,
    ADAPTIVE_SRHT,
    COLUMN_SUBSAMPLE,
    OBLIVIOUS_GAUSSIAN,
    DegenerateSketch,
    EmbeddingSpec,
    apply_srht,
    build_adaptive,
    build_oblivious_gaussian,
    build_sketch,
    fwht_rows,
    next_pow2,
    projection_residual_norm,
    whiten,
)
from subsketch.numkit import SeededRng, sample_gaussian_matrix
from subsketch.synth import EXPONENTIAL, SpectrumSpec, synth_matrix


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
        assert np.allclose(fwht_rows(e1), 0.5 * np.ones((1, 4)))

    def test_transform_is_orthonormal(self):
        H = fwht_rows(np.eye(8))
        assert np.abs(H.T @ H - np.eye(8)).max() <= 1e-12

    def test_sketch_size_cap(self):
        with pytest.raises(ValueError):
            apply_srht(np.ones((2, 3)), 5, SeededRng(0))

    def test_next_pow2(self):
        assert [next_pow2(k) for k in (1, 2, 3, 5, 8)] == [1, 2, 4, 8, 8]


class TestObliviousGaussian:
    def test_single_entry(self):
        S = build_oblivious_gaussian(1, EmbeddingSpec(OBLIVIOUS_GAUSSIAN, m=1, seed=SeededRng(4)))
        assert S.shape == (1, 1)

    def test_determinism(self):
        spec = EmbeddingSpec(OBLIVIOUS_GAUSSIAN, m=3, seed=SeededRng(5))
        assert np.array_equal(build_oblivious_gaussian(10, spec),
                              build_oblivious_gaussian(10, spec))

    def test_gram_diagonal_scaling(self):
        d, m, draws = 1000, 10, 200
        acc = 0.0
        for i in range(draws):
            spec = EmbeddingSpec(OBLIVIOUS_GAUSSIAN, m=m, seed=SeededRng(6, i))
            S = build_oblivious_gaussian(d, spec)
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


class TestSketchBundle:
    @pytest.mark.parametrize("kind,q", [(ADAPTIVE_GAUSSIAN, 0), (ADAPTIVE_GAUSSIAN, 1),
                                        (ADAPTIVE_SRHT, 0), (OBLIVIOUS_GAUSSIAN, 0),
                                        (COLUMN_SUBSAMPLE, 0)])
    def test_invariants(self, kind, q):
        gen = SeededRng(21).generator()
        A = gen.standard_normal((12, 10))
        sketch = build_sketch(A, EmbeddingSpec(kind, m=5, q=q, seed=SeededRng(22)))
        r = sketch.rank
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
