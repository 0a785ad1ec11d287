import numpy as np
import pytest
from oracles import loop_risk_zero_order

from subsketch.analysis import (
    SpectralSummary,
    aligned_error_floor,
    aligned_instance_check,
    condition_numbers,
    loglog_slope_fit,
    risk_zero_order,
    sketched_range_residual,
    spectral_residual,
    statistical_dimension,
)
from subsketch.embeddings import ADAPTIVE_GAUSSIAN, OBLIVIOUS_GAUSSIAN, EmbeddingSpec, build_sketch
from subsketch.numkit import SeededRng
from subsketch.synth import EXPONENTIAL, SpectrumSpec, synth_matrix


def _summary(sigma, n=None, d=None):
    sigma = np.asarray(sigma, dtype=float)
    return SpectralSummary(sigma, n or sigma.size, d or sigma.size)


class TestSpectralResidual:
    def test_two_values(self):
        assert spectral_residual(_summary([2.0, 1.0]), 1.0) == pytest.approx(2.0)

    def test_empty_tail(self):
        assert spectral_residual(_summary([2.0, 1.0]), 2.0) == 0.0
        assert spectral_residual(_summary([2.0, 1.0]), 5.7) == 0.0

    def test_geometric_against_summation_oracle(self):
        sigma = 0.98 ** np.arange(1, 401)
        k = 50
        tail = sigma[k:]
        oracle = tail[0] + np.sqrt(sum(float(t) ** 2 for t in tail) / k)
        assert spectral_residual(_summary(sigma), 50.0) == pytest.approx(oracle, abs=1e-12)

    def test_rejects_small_delta(self):
        with pytest.raises(ValueError):
            spectral_residual(_summary([1.0]), 0.5)

    def test_nonincreasing_in_delta(self):
        gen = SeededRng(1).generator()
        for _ in range(20):
            sigma = np.sort(gen.uniform(0.1, 5.0, 30))[::-1]
            s = _summary(sigma)
            vals = [spectral_residual(s, k) for k in range(1, 30)]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestStatisticalDimension:
    def test_example_spectrum(self):
        s = _summary(np.sqrt([4.0, 1.0, 0.01]))
        assert statistical_dimension(s, noise_var=1.0, n=1) == 1

    def test_noise_dominates_immediately(self):
        s = _summary([5.0, 1.0, 0.5])
        assert statistical_dimension(s, noise_var=10.0, n=10) == 1

    def test_brute_force_scan_agreement(self):
        gen = SeededRng(3).generator()
        for _ in range(100):
            sigma = np.sort(gen.uniform(0.01, 3.0, gen.integers(2, 25)))[::-1]
            n = int(gen.integers(5, 200))
            nv = float(gen.uniform(0.05, 4.0))
            s2 = sigma**2
            expected = s2.size
            for k in range(1, s2.size):
                if nv * k / n >= s2[k]:
                    expected = k
                    break
            assert statistical_dimension(_summary(sigma), nv, n) == expected

    def test_exponential_closed_form_scaling(self):
        # scan agrees within +/-2 with the solution of the crossing equation
        # k/n = exp(-nu (k+1)), the exact form of the (1/nu) log(n/noise) scaling
        nu, n = 0.1, 10_000
        sigma = np.exp(-nu * np.arange(1, 2001) / 2.0)
        ds = statistical_dimension(_summary(sigma, n=n, d=2000), 1.0, n)
        lo, hi = 1.0, 2000.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid / n >= np.exp(-nu * (mid + 1.0)):
                hi = mid
            else:
                lo = mid
        assert abs(ds - hi) <= 2.0


class TestConditionNumbers:
    def test_identity(self):
        kappa, kappa_dag = condition_numbers(np.eye(4), np.eye(4)[:, :2], 0.5)
        assert kappa == pytest.approx(1.0)
        assert kappa_dag == pytest.approx(1.0)

    def test_rank_deficient_full_program(self):
        A = np.diag([3.0, 2.0])
        A = np.hstack([A, np.zeros((2, 2))])  # d=4 > rank 2
        kappa, _ = condition_numbers(A, np.eye(4)[:, :1], 2.0)
        assert kappa == pytest.approx((2.0 + 9.0) / 2.0)

    def test_whitened_never_worse(self):
        for seed in range(20):
            gen = SeededRng(seed).generator()
            A = gen.standard_normal((15, 25)) / 4.0
            sketch = build_sketch(A, EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=6,
                                                   seed=SeededRng(100 + seed)))
            kappa, kappa_dag = condition_numbers(A, sketch.q_s, 1e-3)
            assert kappa_dag <= kappa * (1 + 1e-12)


class TestRisk:
    def test_orthonormal_rows_full_sketch_variance_only(self):
        gen = SeededRng(4).generator()
        A, _ = np.linalg.qr(gen.standard_normal((12, 8)))
        A = A.T  # 8 x 12 with orthonormal rows
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=8, seed=SeededRng(5))
        mc, limit = risk_zero_order(A, spec, noise_var=1.0, lam=1e-10, trials=50,
                                    rng=SeededRng(6))
        assert limit == pytest.approx(8.0 / 8.0, abs=1e-10)

    def test_monte_carlo_matches_limit(self):
        # variance-dominated regime, where the direction set resolves the sup
        base = SeededRng(7)
        A, _ = synth_matrix(60, 100, SpectrumSpec(EXPONENTIAL, nu=0.8), base.derive(0))
        spec = EmbeddingSpec(OBLIVIOUS_GAUSSIAN, m=20, seed=base.derive(1))
        mc, limit = risk_zero_order(A, spec, noise_var=4.0, lam=1e-9, trials=400,
                                    rng=base.derive(2))
        assert abs(mc - limit) <= 0.08 * limit

    @pytest.mark.parametrize("trials", [500, 1])
    def test_matches_per_trial_loop_oracle(self, trials):
        # the risk-limit certificate's instance: the batched solve and the
        # per-trial Cholesky loop differ only by rounding, which lam=1e-8 amplifies
        base = SeededRng(0)
        A, _ = synth_matrix(200, 400, SpectrumSpec(EXPONENTIAL, nu=0.2), base.derive(0xA))
        spec = EmbeddingSpec(OBLIVIOUS_GAUSSIAN, m=84, seed=base.derive(17))
        args = (A, spec, 25.0, 1e-8, trials, base.derive(18))
        mc, limit = risk_zero_order(*args)
        mc_loop, limit_loop = loop_risk_zero_order(*args)
        assert mc == pytest.approx(mc_loop, rel=1e-9, abs=0)
        assert limit == pytest.approx(limit_loop, rel=1e-9, abs=0)

    def test_variance_term_grows_linearly_with_sketch_size(self):
        base = SeededRng(8)
        A, _ = synth_matrix(40, 80, SpectrumSpec(EXPONENTIAL, nu=0.4), base.derive(0))
        for m in (10, 20, 40):
            spec = EmbeddingSpec(OBLIVIOUS_GAUSSIAN, m=m, seed=base.derive(1, m))
            _, limit = risk_zero_order(A, spec, noise_var=1.0, lam=1e-9, trials=5,
                                       rng=base.derive(2))
            resid = sketched_range_residual(A, spec)
            assert limit - resid**2 == pytest.approx(m / 40.0, rel=1e-9)

    def test_range_residual_zero_for_adaptive_full_rank(self):
        gen = SeededRng(9).generator()
        A = gen.standard_normal((10, 20))
        spec = EmbeddingSpec(ADAPTIVE_GAUSSIAN, m=12, seed=SeededRng(10))
        assert sketched_range_residual(A, spec) <= 1e-8


class TestAlignedFloor:
    def test_full_sketch_floor_is_zero(self):
        assert aligned_error_floor(2.0, 10, 10, 1.0) == 0.0

    def test_large_lambda_floor_vanishes(self):
        assert aligned_error_floor(2.0, 10, 5, 1e12) <= 1e-10

    def test_small_instance_check_passes(self):
        gen = SeededRng(11).generator()
        A = gen.standard_normal((20, 20)) / np.sqrt(20)
        passed, mc, floor, se = aligned_instance_check(A, 1e-3, 5, 200, SeededRng(12))
        assert passed
        assert floor > 0


class TestLogLogFit:
    def test_exact_power_law(self):
        ms = np.array([8, 16, 32, 64])
        errors = 3.0 / ms
        slope, intercept, r2 = loglog_slope_fit(ms, errors)
        assert slope == pytest.approx(-1.0, abs=1e-10)
        assert r2 == pytest.approx(1.0)

    def test_constant_errors(self):
        slope, _, _ = loglog_slope_fit([2, 4, 8], [5.0, 5.0, 5.0])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            loglog_slope_fit([1, 2], [1.0, 2.0])
        with pytest.raises(ValueError):
            loglog_slope_fit([1, 2, 3], [1.0, -2.0, 3.0])
