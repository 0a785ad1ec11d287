import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import central_difference_gradient, nested_grid_minimize
from subsketch.losses import (
    HingeLoss,
    L1Loss,
    LinfLoss,
    LogisticLoss,
    QuadraticLoss,
    ReluTypeLoss,
    default_tie_tolerance,
    make_loss,
)
from subsketch.numkit import SeededRng


def _labels(n, seed=0):
    return SeededRng(seed).generator().integers(0, 2, n) * 2.0 - 1.0


class TestValuesAndGradients:
    def test_logistic_at_zero(self):
        y = _labels(8)
        loss = LogisticLoss(y)
        assert loss.value(np.zeros(8)) == pytest.approx(np.log(2.0))
        assert np.allclose(loss.gradient(np.zeros(8)), -y / (2 * 8))

    def test_quadratic_gradient(self):
        b = np.array([1.0, -2.0])
        loss = QuadraticLoss(b)
        w = np.array([0.5, 0.5])
        assert np.allclose(loss.gradient(w), w - b)
        assert loss.value(w) == pytest.approx(0.5 * np.sum((w - b) ** 2))

    def test_relu_gradient_matches_finite_differences(self):
        y = _labels(6, seed=1)
        loss = ReluTypeLoss(y)
        w = np.array([1.5, -2.0, 0.7, -0.3, 2.2, -1.1])
        assert np.allclose(loss.gradient(w), (np.maximum(w, 0.0) - y) / 6)
        fd = central_difference_gradient(loss.value, w)
        assert np.abs(loss.gradient(w) - fd).max() <= 1e-5 * max(1, np.abs(fd).max())

    def test_nan_rejected(self):
        loss = QuadraticLoss(np.zeros(2))
        with pytest.raises(ValueError):
            loss.value(np.array([np.nan, 0.0]))

    @pytest.mark.parametrize("name", ["quadratic", "logistic", "relu"])
    def test_gradient_oracle_100_points(self, name):
        n = 10
        y = _labels(n, seed=2)
        loss = make_loss(name, b=y.astype(float), y=y)
        gen = SeededRng(3).generator()
        for _ in range(100):
            w = gen.standard_normal(n) * 2.0
            if name == "relu":
                w[np.abs(w) < 1e-4] = 0.5  # keep clear of the curvature kink
            g = loss.gradient(w)
            fd = central_difference_gradient(loss.value, w)
            denom = max(1.0, np.abs(fd).max())
            assert np.abs(g - fd).max() / denom <= 1e-5


class TestSmoothnessConstants:
    def test_values(self):
        assert QuadraticLoss(np.zeros(3)).smoothness == 1.0
        assert LogisticLoss(_labels(1000)).smoothness == pytest.approx(2.5e-4)
        assert ReluTypeLoss(_labels(4)).smoothness == pytest.approx(0.25)

    @pytest.mark.parametrize("name", ["quadratic", "logistic", "relu"])
    def test_gradient_lipschitz_certificate(self, name):
        n = 12
        y = _labels(n, seed=4)
        loss = make_loss(name, b=y.astype(float), y=y)
        gen = SeededRng(5).generator()
        mu = loss.smoothness
        for _ in range(1000):
            w = gen.standard_normal(n) * 3
            v = gen.standard_normal(n) * 3
            lhs = np.linalg.norm(loss.gradient(w) - loss.gradient(v))
            assert lhs <= mu * np.linalg.norm(w - v) * (1 + 1e-12)


class TestConjugates:
    def test_l1_zero_in_domain(self):
        assert L1Loss(np.array([2.0, 3.0])).conjugate_value(np.zeros(2)) == 0.0

    def test_linf_outside_ball(self):
        loss = LinfLoss(np.zeros(2))
        assert loss.conjugate_value(np.array([1.5, -0.5])) == np.inf

    def test_hinge_domain(self):
        b = np.array([1.0, -1.0])
        loss = HingeLoss(b)
        assert loss.conjugate_value(np.array([-0.5, 0.5])) == pytest.approx(-1.0)
        assert loss.conjugate_value(np.array([0.5, 0.5])) == np.inf

    def test_quadratic_conjugate_against_grid_search(self):
        loss = QuadraticLoss(np.zeros(2))
        z = np.array([0.4, -0.7])
        _, neg_val = nested_grid_minimize(lambda w: -(w @ z - loss.value(w)),
                                          [-4, -4], [4, 4])
        assert loss.conjugate_value(z) == pytest.approx(-neg_val, abs=1e-8)
        assert loss.conjugate_value(z) == pytest.approx(0.5 * z @ z)

    @pytest.mark.parametrize("name", ["quadratic", "l1", "linf", "hinge"])
    def test_fenchel_young(self, name):
        n = 6
        gen = SeededRng(6).generator()
        b = _labels(n, seed=7) if name == "hinge" else gen.standard_normal(n)
        loss = make_loss(name, b=b)
        for trial in range(50):
            w = gen.standard_normal(n)
            if name == "quadratic":
                z = loss.gradient(w)
            else:
                z = loss.arbitrary_subgradient(w)
            fy = loss.value(w) + loss.conjugate_value(z) - w @ z
            assert abs(fy) <= 1e-8
            # inequality for z drawn anywhere in the conjugate domain
            if name == "l1":
                z_rand = gen.uniform(-1, 1, n)
            elif name == "linf":
                z_rand = gen.uniform(-1, 1, n)
                z_rand /= max(1.0, np.abs(z_rand).sum())
            elif name == "hinge":
                z_rand = -b * gen.uniform(0, 1, n)
            else:
                z_rand = gen.standard_normal(n)
            assert loss.value(w) + loss.conjugate_value(z_rand) >= w @ z_rand - 1e-10


class TestPartitions:
    def test_hinge_exact_margin_is_free(self):
        b = np.array([1.0, -1.0])
        loss = HingeLoss(b)
        w = np.array([1.0, 0.5])  # first coordinate exactly on the margin
        p = loss.subgradient_partition(w)
        assert not p.fixed_mask[0]
        assert (p.free_low[0], p.free_high[0]) == (-1.0, 0.0)  # interval [0, -b] sorted
        assert p.fixed_mask[1] and p.fixed_values[1] == 1.0  # margin violated: -b = 1

    def test_l1_no_ties_all_fixed(self):
        b = np.array([0.3, -0.4])
        loss = L1Loss(b)
        p = loss.subgradient_partition(b + np.array([2.0, -3.0]))
        assert p.fixed_mask.all()
        assert np.array_equal(p.fixed_values, [1.0, -1.0])

    def test_linf_two_way_tie(self):
        b = np.zeros(3)
        loss = LinfLoss(b)
        p = loss.subgradient_partition(np.array([5.0, 5.0, 1.0]), tie_tolerance=1e-8)
        assert np.array_equal(p.active, [0, 1])
        assert np.array_equal(p.signs, [1.0, 1.0])

    def test_partition_covers_coordinates(self):
        gen = SeededRng(8).generator()
        b = gen.standard_normal(10)
        w = gen.standard_normal(10)
        w[3] = b[3]  # force one tie
        p = L1Loss(b).subgradient_partition(w)
        assert not p.fixed_mask[3]
        assert p.fixed_mask.sum() + p.n_free == 10


class TestArbitrarySubgradient:
    def test_l1_at_target_is_zero(self):
        b = np.array([1.0, 2.0])
        assert np.array_equal(L1Loss(b).arbitrary_subgradient(b.copy()), np.zeros(2))

    def test_hinge_midpoint_on_margin(self):
        b = np.array([1.0, -1.0])
        g = HingeLoss(b).arbitrary_subgradient(np.array([1.0, 5.0]))
        assert g[0] == pytest.approx(-0.5)  # midpoint of [0, -b_0] on the tie
        assert g[1] == 1.0  # margin violated: singleton subgradient -b_1
        g2 = HingeLoss(b).arbitrary_subgradient(np.array([5.0, 5.0]))
        assert g2[0] == 0.0  # margin strictly satisfied

    def test_linf_unique_max(self):
        g = LinfLoss(np.zeros(3)).arbitrary_subgradient(np.array([0.1, -2.0, 0.3]))
        assert np.array_equal(g, [0.0, -1.0, 0.0])

    @pytest.mark.parametrize("name", ["l1", "linf", "hinge"])
    def test_subgradient_inequality(self, name):
        n = 7
        gen = SeededRng(9).generator()
        b = _labels(n, seed=10) if name == "hinge" else gen.standard_normal(n)
        loss = make_loss(name, b=b)
        for _ in range(200):
            w = gen.standard_normal(n)
            g = loss.arbitrary_subgradient(w)
            v = gen.standard_normal(n)
            assert loss.value(v) >= loss.value(w) + g @ (v - w) - 1e-10


class TestLipschitz:
    @pytest.mark.parametrize("name,expected", [("l1", np.sqrt(9)), ("hinge", np.sqrt(9)),
                                               ("linf", 1.0)])
    def test_constant_and_certificate(self, name, expected):
        n = 9
        b = _labels(n, seed=11) if name == "hinge" else SeededRng(12).generator().standard_normal(n)
        loss = make_loss(name, b=b)
        assert loss.lipschitz == pytest.approx(expected)
        gen = SeededRng(13).generator()
        for _ in range(1000):
            w = gen.standard_normal(n) * 2
            v = gen.standard_normal(n) * 2
            assert abs(loss.value(w) - loss.value(v)) <= loss.lipschitz * np.linalg.norm(w - v) * (
                1 + 1e-12)


class TestConstruction:
    def test_tie_tolerance_scales_with_input(self):
        assert default_tie_tolerance(np.zeros(3)) == pytest.approx(1e-7)
        assert default_tie_tolerance(np.array([9.0])) == pytest.approx(1e-6)

    def test_labels_validated(self):
        with pytest.raises(ValueError):
            LogisticLoss(np.array([1.0, 0.5]))
        with pytest.raises(ValueError):
            HingeLoss(np.array([2.0, -1.0]))

    def test_factory_unknown(self):
        with pytest.raises(ValueError):
            make_loss("huber", b=np.zeros(2))

    @given(st.integers(0, 2**31 - 1))
    def test_logistic_value_stable_for_large_inputs(self, seed):
        y = _labels(4, seed=seed % 100)
        loss = LogisticLoss(y)
        w = SeededRng(seed).generator().standard_normal(4) * 500
        v = loss.value(w)
        assert np.isfinite(v) and v >= 0.0
