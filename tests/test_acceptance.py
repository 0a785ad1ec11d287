"""Acceptance suite: every recovery guarantee certified at its stated tolerance.

One test per criterion; each prints a PASS/FAIL line with the measured margin.
The two sweep-scale criteria (ordering/slopes and the non-smooth bound) take
about 35 s and 2 minutes; the whole module runs in about 3 minutes on 2 cores.
"""

import dataclasses
import re

import numpy as np
import pytest

from oracles import central_difference_gradient
from subsketch import certify, estimators
from subsketch.embeddings import ADAPTIVE_GAUSSIAN, EmbeddingSpec, apply_srht, build_sketch, next_pow2
from subsketch.harness import CSV_COLUMNS, ExperimentConfig, run_experiment
from subsketch.losses import make_loss
from subsketch.numkit import SeededRng, thin_svd


def _report(result):
    print(f"{'PASS' if result.passed else 'FAIL'} {result.name}: {result.detail}")
    assert result.passed, f"{result.name}: {result.detail}"


class TestRecoveryCertificates:
    def test_01_smooth_recovery_certificate(self):
        _report(certify.smooth_recovery_certificate())

    def test_02_residual_bound_gaussian(self):
        _report(certify.residual_bound_gaussian())

    def test_03_residual_bound_srht(self):
        _report(certify.residual_bound_srht())

    def test_04_iterative_contraction(self):
        _report(certify.iterative_contraction())

    def test_05_conditioning_ordering(self):
        _report(certify.conditioning_ordering())

    def test_06_whitened_equivalence(self):
        _report(certify.whitened_equivalence())

    def test_07_oblivious_zero_order_floor(self):
        _report(certify.oblivious_zero_order_floor())

    def test_08_aligned_first_order_floor(self):
        _report(certify.aligned_first_order_floor())

    def test_11_kernel_feature_consistency(self):
        _report(certify.kernel_feature_consistency())

    def test_06_11_certificates_check_the_shipped_pipeline(self, monkeypatch):
        """A sketched solve of the recovery pipeline that is off by 1e-3
        relative fails both suites that compare the pipeline with an
        independent route."""
        solve = estimators.solve_sketched

        def perturbed(*args, **kwargs):
            res = solve(*args, **kwargs)
            return dataclasses.replace(res, minimizer=res.minimizer * (1.0 + 1e-3))

        monkeypatch.setattr(estimators, "solve_sketched", perturbed)
        assert not certify.whitened_equivalence().passed
        assert not certify.kernel_feature_consistency().passed

    def test_12_risk_limit(self):
        _report(certify.risk_limit())


class TestLossLayerNumerics:
    def test_13_loss_layer_numerics(self):
        n = 20
        gen = SeededRng(77).generator()
        labels = np.sign(gen.standard_normal(n)) + 0.0
        target = gen.standard_normal(n)
        smooth = [make_loss(k, b=target, y=labels) for k in ("quadratic", "logistic", "relu")]
        nonsmooth = [make_loss("l1", b=target), make_loss("linf", b=target),
                     make_loss("hinge", b=labels)]

        worst_fd = 0.0
        for loss in smooth:
            for _ in range(100):
                w = gen.standard_normal(n) * 2.0
                if loss.kind == "relu":
                    w[np.abs(w) < 1e-4] = 0.3
                fd = central_difference_gradient(loss.value, w)
                rel = np.abs(loss.gradient(w) - fd).max() / max(1.0, np.abs(fd).max())
                worst_fd = max(worst_fd, rel)
        assert worst_fd <= 1e-5

        worst_fy = 0.0
        for loss in [make_loss("quadratic", b=target)] + nonsmooth:
            for _ in range(100):
                w = gen.standard_normal(n)
                z = loss.gradient(w) if loss.kind == "quadratic" else loss.arbitrary_subgradient(w)
                worst_fy = max(worst_fy, abs(loss.value(w) + loss.conjugate_value(z) - w @ z))
        assert worst_fy <= 1e-8

        worst_mu = worst_lip = 0.0
        for _ in range(1000):
            w = gen.standard_normal(n) * 3.0
            v = gen.standard_normal(n) * 3.0
            dist = np.linalg.norm(w - v)
            for loss in smooth:
                ratio = np.linalg.norm(loss.gradient(w) - loss.gradient(v)) / (
                    loss.smoothness * dist)
                worst_mu = max(worst_mu, ratio)
            for loss in nonsmooth:
                ratio = abs(loss.value(w) - loss.value(v)) / (loss.lipschitz * dist)
                worst_lip = max(worst_lip, ratio)
        assert worst_mu <= 1.0 + 1e-10
        assert worst_lip <= 1.0 + 1e-10
        print(f"PASS loss-numerics: fd={worst_fd:.2e}, fenchel-young={worst_fy:.2e}, "
              f"smoothness ratio={worst_mu:.6f}, lipschitz ratio={worst_lip:.6f}")


class TestInfrastructure:
    def test_14_infrastructure(self):
        # SRHT orthogonality, including a padded (non power of two) dimension
        worst_orth = 0.0
        for p, m, seed in ((8, 4, 0), (16, 16, 1), (200, 32, 2), (1024, 100, 3)):
            pt = next_pow2(p)
            S = apply_srht(np.eye(pt), m, SeededRng(seed))
            worst_orth = max(worst_orth, np.abs(S.T @ S - (pt / m) * np.eye(m)).max())
        assert worst_orth <= 1e-10

        # whitening invariants across embedding families
        gen = SeededRng(88).generator()
        A = gen.standard_normal((30, 24))
        worst_wht = 0.0
        for kind in ("adaptive-gaussian", "adaptive-srht", "gaussian", "nystrom"):
            sketch = build_sketch(A, EmbeddingSpec(kind, m=7, seed=SeededRng(89)))
            r = sketch.q_s.shape[1]
            worst_wht = max(worst_wht, np.abs(sketch.q_s.T @ sketch.q_s - np.eye(r)).max())
            gap = np.abs(sketch.s - sketch.q_s @ (sketch.q_s.T @ sketch.s)).max()
            assert gap <= 1e-8 * np.linalg.norm(sketch.s)
        assert worst_wht <= 1e-10

        # determinism of the experiment harness (runtime column excluded)
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            runs = []
            for tag in ("x", "y"):
                cfg = ExperimentConfig(
                    experiment="sweep", n=20, d=30, decay="exp", nu=0.3,
                    loss="logistic", lam=1e-2, embedding="adaptive-gaussian",
                    m_list=[4, 8], trials=2, seed=11, out_path=f"{tmp}/{tag}.csv")
                run_experiment(cfg)
                idx = CSV_COLUMNS.index("runtime_ms")
                runs.append([line.split(",")[:idx] for line in open(f"{tmp}/{tag}.csv")])
            assert runs[0] == runs[1]

        # thin SVD reconstruction across 100 shapes
        worst_recon = 0.0
        shape_gen = SeededRng(99).generator()
        for i in range(100):
            rows = int(shape_gen.integers(1, 40))
            cols = int(shape_gen.integers(1, 40))
            M = SeededRng(100, i).generator().standard_normal((rows, cols))
            f = thin_svd(M)
            top = f.singular_values[0] if f.rank else 1.0
            err = np.abs(f.u @ np.diag(f.singular_values) @ f.vt - M).max() / top
            worst_recon = max(worst_recon, err)
        assert worst_recon <= 1e-8
        print(f"PASS infrastructure: srht-orthogonality={worst_orth:.2e}, "
              f"whitening={worst_wht:.2e}, determinism ok, svd-reconstruction={worst_recon:.2e}")


class TestSweepScaleCertificates:
    def test_09_sweep_ordering_and_slopes(self):
        _report(certify.sweep_ordering_and_slopes())

    def test_10_nonsmooth_bound_and_ordering(self):
        """Every dual solve, the references' included, ends in one finisher
        pass certified by its duality gap."""
        result = certify.nonsmooth_bound_and_ordering()
        _report(result)
        gap = re.search(r"; largest relative duality gap (\S+); ", result.detail).group(1)
        assert float(gap) <= 1e-9

    @pytest.mark.parametrize("cut", [False, True])
    def test_10_nonsmooth_bound_fails_on_an_unconverged_solve(self, monkeypatch, cut):
        """At a small size, one recovery reported unconverged fails the suite
        and is counted in its detail line."""
        recover = certify.recover_nonsmooth
        calls = []

        def recorded(*args, **kwargs):
            out = recover(*args, **kwargs)
            calls.append(out)
            if cut and len(calls) == 2:
                out.report.converged = False
            return out

        monkeypatch.setattr(certify, "recover_nonsmooth", recorded)
        result = certify.nonsmooth_bound_and_ordering(n=40, d=80, trials=1, ms=(8, 16))
        assert len(calls) == 6
        assert result.passed is not cut
        assert result.detail.endswith(f"; {int(cut)} unconverged solves")
