import numpy as np
import pytest

from subsketch.numkit import SeededRng, thin_svd
from subsketch.synth import (
    EXPONENTIAL,
    GEOMETRIC,
    POLYNOMIAL,
    SpectrumSpec,
    synth_labels,
    synth_loss,
    synth_matrix,
    synth_observation,
)


class TestSpectrumSpec:
    def test_profiles_match_formulas(self):
        n = 50
        j = np.arange(1, 21, dtype=float)
        poly = SpectrumSpec(POLYNOMIAL, nu=1.0).generate(n, 20)
        assert np.allclose(poly, np.sqrt(n) / j)
        expo = SpectrumSpec(EXPONENTIAL, nu=0.1).generate(n, 20)
        assert np.allclose(expo, np.sqrt(n) * np.exp(-0.05 * j))
        geom = SpectrumSpec(GEOMETRIC, ratio=0.98).generate(n, 20)
        assert np.allclose(geom, 0.98**j)

    def test_scale_overrides_the_default(self):
        vals = SpectrumSpec(GEOMETRIC, ratio=0.5, scale=2.0).generate(3, 2)
        assert np.allclose(vals, [1.0, 0.5])
        vals = SpectrumSpec(EXPONENTIAL, nu=2.0, scale=3.0).generate(50, 2)
        assert np.allclose(vals, 3.0 * np.exp(-np.arange(1.0, 3.0)))

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectrumSpec(POLYNOMIAL, nu=0.0)
        with pytest.raises(ValueError):
            SpectrumSpec(GEOMETRIC, ratio=1.2)
        with pytest.raises(ValueError):
            SpectrumSpec("explicit")


class TestSynthMatrix:
    def test_spectrum_recovered(self):
        spec = SpectrumSpec(GEOMETRIC, ratio=1.0 / 3.0, scale=9.0)
        A, summary = synth_matrix(2, 2, spec, SeededRng(1))
        f = thin_svd(A)
        assert np.allclose(f.singular_values, [3.0, 1.0], atol=1e-10)
        assert np.array_equal(summary.singular_values, spec.generate(2, 2))

    def test_spectra_match_for_all_kinds_and_shapes(self):
        specs = [SpectrumSpec(POLYNOMIAL, nu=0.5), SpectrumSpec(EXPONENTIAL, nu=0.2),
                 SpectrumSpec(GEOMETRIC, ratio=0.9)]
        shapes = [(10, 17), (17, 10), (12, 12), (30, 5), (5, 30)]
        for spec in specs:
            for i, (n, d) in enumerate(shapes):
                A, summary = synth_matrix(n, d, spec, SeededRng(3, i))
                measured = thin_svd(A, rank_tolerance=0.0).singular_values
                expected = summary.singular_values
                k = min(measured.size, expected.size)
                assert np.abs(measured[:k] - expected[:k]).max() <= 1e-8 * expected[0]

    def test_factors_orthonormal(self):
        A, summary = synth_matrix(20, 12, SpectrumSpec(EXPONENTIAL, nu=0.3), SeededRng(4))
        f = thin_svd(A)
        assert np.abs(f.u.T @ f.u - np.eye(f.rank)).max() <= 1e-10
        assert np.abs(f.vt @ f.vt.T - np.eye(f.rank)).max() <= 1e-10

    def test_deterministic(self):
        spec = SpectrumSpec(GEOMETRIC, ratio=0.95)
        A1, _ = synth_matrix(8, 6, spec, SeededRng(5))
        A2, _ = synth_matrix(8, 6, spec, SeededRng(5))
        assert np.array_equal(A1, A2)


class TestLabels:
    def test_single_draw(self):
        v = synth_labels(1, SeededRng(6))
        assert v[0] in (-1.0, 1.0)

    def test_mean_close_to_zero(self):
        v = synth_labels(100_000, SeededRng(7))
        assert abs(v.mean()) <= 0.01

    def test_reproducible(self):
        assert np.array_equal(synth_labels(50, SeededRng(8)), synth_labels(50, SeededRng(8)))


class TestSynthLoss:
    def test_targets_come_from_fixed_streams(self):
        # labels from 0xB, planted vector from 0xC, observation noise from 0xD
        base = SeededRng(14)
        A, _ = synth_matrix(12, 7, SpectrumSpec(EXPONENTIAL, nu=0.3), base.derive(0xA))
        labels = synth_labels(12, base.derive(0xB))
        for name in ("logistic", "relu"):
            assert np.array_equal(synth_loss(name, A, base).y, labels)
        assert np.array_equal(synth_loss("hinge", A, base).b, labels)
        x_pl = base.derive(0xC).generator().standard_normal(7)
        x_pl /= np.linalg.norm(x_pl)
        for noise_var in (1.0, 0.5):
            b = synth_observation(A, x_pl, noise_var, base.derive(0xD))
            for name in ("quadratic", "l1", "linf"):
                loss = synth_loss(name, A, base, noise_var)
                assert loss.kind == name
                assert np.array_equal(loss.b, b)


class TestObservation:
    def test_tiny_noise_limit(self):
        gen = SeededRng(9).generator()
        A = gen.standard_normal((10, 6))
        x = gen.standard_normal(6)
        x /= 2 * np.linalg.norm(x)
        b = synth_observation(A, x, 1e-20, SeededRng(10))
        assert np.abs(b - A @ x).max() <= 1e-8

    def test_noise_variance(self):
        n = 100
        A = np.zeros((n, 2))
        draws = np.array([synth_observation(A, np.zeros(2), 2.0, SeededRng(11, i))
                          for i in range(10_000)])
        assert abs(draws.var() - 2.0 / n) <= 0.03 * 2.0 / n

    def test_zero_plant_is_pure_noise(self):
        A = SeededRng(12).generator().standard_normal((5, 3))
        b = synth_observation(A, np.zeros(3), 1.0, SeededRng(13))
        b2 = synth_observation(np.zeros((5, 3)), np.zeros(3), 1.0, SeededRng(13))
        assert np.array_equal(b, b2)

    def test_rejects_large_plant(self):
        A = np.eye(3)
        with pytest.raises(ValueError):
            synth_observation(A, np.array([2.0, 0.0, 0.0]), 1.0, SeededRng(0))
