import json
import re
import weakref
from dataclasses import fields

import numpy as np
import pytest

from subsketch import estimators, harness, kernelize, solvers, synth
from subsketch.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    RunRecord,
    parse_config,
    read_records,
    run_experiment,
    write_records,
)
from subsketch.numkit import SeededRng, sample_gaussian_matrix
from subsketch.solvers import SolveOptions, solve_dual_projected


class TestParseConfig:
    def test_sweep_flags(self):
        cfg = parse_config(
            "sweep --n 1000 --d 2000 --decay exp --nu 0.1 --loss logistic "
            "--lambda 1e-4 --embedding adaptive-gaussian --m 8,16,32,64,128,256,512 "
            "--trials 10 --seed 42".split())
        assert cfg.experiment == "sweep"
        assert (cfg.n, cfg.d, cfg.decay, cfg.nu) == (1000, 2000, "exp", 0.1)
        assert cfg.loss == "logistic" and cfg.lam == 1e-4
        assert cfg.embedding == "adaptive-gaussian"
        assert cfg.m_list == [8, 16, 32, 64, 128, 256, 512]
        assert (cfg.trials, cfg.seed) == (10, 42)

    def test_missing_n_is_usage_error(self):
        with pytest.raises(SystemExit):
            parse_config("sweep --d 100".split())

    def test_flag_overrides_file(self, tmp_path):
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps({"n": 50, "d": 80, "lambda": 0.5, "loss": "relu"}))
        cfg = parse_config(["recover", "--config", str(cfile), "--lambda", "0.25"])
        assert cfg.lam == 0.25  # flag wins
        assert cfg.n == 50 and cfg.loss == "relu"  # file keys kept

    def test_unknown_config_key_rejected(self, tmp_path):
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps({"n": 10, "d": 10, "bogus": 1}))
        with pytest.raises(SystemExit):
            parse_config(["recover", "--config", str(cfile)])

    def test_invalid_enum_rejected(self):
        with pytest.raises(SystemExit):
            parse_config("recover --n 10 --d 10 --embedding fourier".split())

    def test_unsorted_m_list_rejected(self):
        with pytest.raises(SystemExit):
            parse_config("sweep --n 10 --d 10 --m 32,16".split())

    def test_unknown_decay_rejected(self):
        with pytest.raises(ValueError, match="decay must be"):
            ExperimentConfig(experiment="recover", n=10, d=10, decay="linear")

    def test_explicit_decay_rejected(self):
        with pytest.raises(ValueError, match="decay must be"):
            ExperimentConfig(experiment="recover", n=10, d=10, decay="explicit")

    def test_dagger_only_for_recover_and_sweep(self):
        assert parse_config("sweep --n 10 --d 10 --embedding oblivious-dagger".split())
        with pytest.raises(SystemExit):
            parse_config("iterative --n 10 --d 10 --embedding oblivious-dagger".split())

    def test_nonsmooth_needs_nonsmooth_loss_and_adaptive_embedding(self):
        assert parse_config("nonsmooth --n 10 --d 10 --loss hinge".split())
        with pytest.raises(SystemExit):
            parse_config("nonsmooth --n 10 --d 10 --loss logistic".split())
        with pytest.raises(SystemExit):
            parse_config("nonsmooth --n 10 --d 10 --loss l1 --embedding nystrom".split())

    def test_smooth_experiments_reject_nonsmooth_loss(self):
        assert parse_config("kernel --n 10 --d 10 --loss relu".split())
        for experiment in ("recover", "sweep", "iterative", "kernel"):
            with pytest.raises(SystemExit):
                parse_config(f"{experiment} --n 10 --d 10 --loss l1".split())

    def test_kernel_sketches_the_sample_coordinates(self):
        # a kernel cell sketches the root K_h.T, whose n columns are the samples
        for flags in ("--embedding adaptive-gaussian", "--embedding adaptive-srht --q 1",
                      "--embedding nystrom --m 10"):
            assert parse_config(f"kernel --n 10 --d 12 {flags}".split())
        for flags in ("--embedding gaussian", "--embedding srht",
                      "--embedding oblivious-dagger", "--embedding nystrom --m 11"):
            with pytest.raises(SystemExit):
                parse_config(f"kernel --n 10 --d 12 {flags}".split())

    def test_power_iterations_only_for_adaptive_embeddings(self, capsys):
        # a row's q column must be the power its draw took; each rule has its own message
        assert parse_config("recover --n 16 --d 24 --embedding adaptive-gaussian --q 2".split())
        for argv, message in (
                ("kernel --n 16 --d 24 --m 4 --embedding nystrom --q 2",
                 "--q must be 0 for embedding 'nystrom', which takes no power iterations"),
                ("recover --n 16 --d 24 --m 4 --embedding srht --q 1",
                 "--q must be 0 for embedding 'srht', which takes no power iterations"),
                ("sweep --n 16 --d 24 --embedding gaussian --q 1",
                 "--q must be 0 for embedding 'gaussian', which takes no power iterations"),
                ("recover --n 16 --d 24 --embedding oblivious-dagger --q 1",
                 "--q must be 0 for embedding 'oblivious-dagger', which takes no power "
                 "iterations"),
                ("recover --n 16 --d 24 --embedding adaptive-gaussian --q -1",
                 "--q must be >= 0, not -1")):
            with pytest.raises(SystemExit):
                parse_config(argv.split())
            err = capsys.readouterr().err
            assert err.rstrip().endswith(f"error: {message}"), err
        assert parse_config("certify --embedding srht --q 1".split())

    def test_srht_size_capped_by_padded_feature_dimension(self):
        assert parse_config("recover --n 16 --d 24 --embedding srht --m 4,32".split())
        for experiment in ("recover", "sweep", "iterative", "conditioning"):
            with pytest.raises(SystemExit):
                parse_config(f"{experiment} --n 16 --d 24 --embedding srht --m 4,33".split())
        # certify draws no embedding from these flags
        assert parse_config("certify --n 16 --d 24 --embedding srht --m 64".split())

    def test_adaptive_srht_size_capped_by_padded_sample_count(self):
        assert parse_config(
            "nonsmooth --n 12 --d 64 --loss l1 --embedding adaptive-srht --m 16".split())
        for argv in ("nonsmooth --n 12 --d 64 --loss l1 --embedding adaptive-srht --m 8,17",
                     "recover --n 12 --d 64 --embedding adaptive-srht --m 17"):
            with pytest.raises(SystemExit):
                parse_config(argv.split())

    def test_nystrom_size_capped_by_sample_count(self):
        assert parse_config("sweep --n 16 --d 64 --embedding nystrom --m 16".split())
        for experiment in ("sweep", "risk"):
            with pytest.raises(SystemExit):
                parse_config(f"{experiment} --n 16 --d 64 --embedding nystrom --m 17".split())

    def test_nonsmooth_loss_gets_dual_solve_options(self):
        opts = parse_config("nonsmooth --n 10 --d 10 --loss l1".split()).solve_options()
        assert opts.grad_tolerance == 1e-9
        opts = parse_config("recover --n 10 --d 10".split()).solve_options()
        assert (opts.grad_tolerance, opts.max_iters) == (1e-10, 500)

    @pytest.mark.parametrize("flags", [
        "--lambda -1", "--lambda nan", "--lambda inf", "--tol 0", "--tol 1", "--tol inf",
        "--max-iters 0", "--noise-var 0", "--nu 0", "--nu nan", "--decay poly --nu inf",
        "--nu 2000", "--decay poly --nu 2000", "--decay geom --ratio 1.5",
        "--decay geom --ratio 1e-200", "--m 0", "--m 0,4", "--n 0", "--d 0"])
    def test_invalid_number_is_usage_error(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_config(f"recover --n 10 --d 12 --m 4 {flags}".split())
        assert exc.value.code == 2
        flag = flags.split()[-2]
        assert re.search(rf"error: .*{flag}\b", capsys.readouterr().err)

    def test_empty_sketch_size_list_is_valid(self):
        assert ExperimentConfig(experiment="sweep", m_list=[]).m_list == []

    def test_certify_needs_no_instance(self):
        cfg = parse_config(["certify", "--suite", "conditioning"])
        assert cfg.suite == "conditioning"

    @staticmethod
    def _file_config(tmp_path, content, *flags):
        cfile = tmp_path / "cfg.json"
        cfile.write_text(json.dumps(content))
        return parse_config(["recover", "--config", str(cfile), *flags])

    def test_file_value_outside_choices_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit):
            self._file_config(tmp_path, {"n": 10, "d": 10, "decay": "explicit"})

    def test_prefix_of_a_flag_is_neither_a_flag_nor_a_key(self, tmp_path):
        with pytest.raises(SystemExit):
            self._file_config(tmp_path, {"n": 10, "d": 10, "trial": 5})
        with pytest.raises(SystemExit):
            parse_config("recover --n 10 --d 10 --trial 5".split())

    def test_file_values_take_the_flag_types(self, tmp_path):
        cfg = self._file_config(tmp_path, {"n": 10, "d": 10, "seed": "3"})
        assert cfg.seed == 3
        with pytest.raises(SystemExit):
            self._file_config(tmp_path, {"n": 10.5, "d": 10})

    @pytest.mark.parametrize("m", [[4, 8], "4,8"])
    def test_every_file_key_reads_as_its_flag(self, tmp_path, m):
        content = {"experiment": "sweep", "n": 30, "d": 50, "decay": "poly", "nu": 1.5,
                   "ratio": 0.9, "loss": "relu", "lambda": 0.03,
                   "embedding": "adaptive-srht", "m": m, "q": 2, "T": 3, "trials": 4,
                   "seed": 5, "tol": 1e-8, "max_iters": 60, "noise_var": 2.5,
                   "out": str(tmp_path / "x.csv"), "suite": "conditioning"}
        flags = ("recover --n 30 --d 50 --decay poly --nu 1.5 --ratio 0.9 --loss relu "
                 "--lambda 0.03 --embedding adaptive-srht --m 4,8 --q 2 --T 3 --trials 4 "
                 "--seed 5 --tol 1e-8 --max-iters 60 --noise-var 2.5 "
                 f"--out {tmp_path / 'x.csv'} --suite conditioning").split()
        from_flags = parse_config(flags)
        assert self._file_config(tmp_path, content) == from_flags
        # every key moves its field off the default, so the comparison covers it
        defaults = ExperimentConfig(experiment="recover")
        assert all(getattr(from_flags, fld.name) != getattr(defaults, fld.name)
                   for fld in fields(ExperimentConfig) if fld.name != "experiment")


class TestCsvContract:
    def test_header_is_exact_field_list(self, tmp_path):
        path = tmp_path / "r.csv"
        write_records(path, [])
        assert path.read_text().splitlines()[0] == ",".join(CSV_COLUMNS)

    def test_round_trip(self, tmp_path):
        rec = RunRecord(experiment="recover", trial=3, seed=9, n=10, d=20, decay="exp",
                        nu=0.1, loss="logistic", lam=1e-4, embedding="adaptive-gaussian",
                        q=1, m=8, T=0, rel_err_x0=0.25, rel_err_x1=0.125,
                        residual_norm=1.5e-3, spectral_residual_k=2.0, bound_rhs=0.3,
                        condition_ok=True, objective=0.7, runtime_ms=12.5)
        path = tmp_path / "rt.csv"
        write_records(path, [rec])
        back = read_records(path)[0]
        assert back == rec

    def test_unused_fields_stay_empty(self, tmp_path):
        rec = RunRecord(experiment="conditioning", trial=0, seed=1, n=4, d=4,
                        decay="geom", nu=0.9, loss="quadratic", lam=0.1,
                        embedding="adaptive-gaussian", kappa=3.0, kappa_dagger=2.0)
        path = tmp_path / "u.csv"
        write_records(path, [rec])
        line = path.read_text().splitlines()[1].split(",")
        cols = dict(zip(CSV_COLUMNS, line))
        assert cols["rel_err_x0"] == "" and cols["bound_rhs"] == ""
        assert cols["kappa"] != ""

    def test_atomic_write_leaves_no_partial_file(self, tmp_path):
        class Exploding:
            def to_row(self):
                raise RuntimeError("boom")

        path = tmp_path / "a.csv"
        with pytest.raises(RuntimeError):
            write_records(path, [Exploding()])
        assert not path.exists()
        assert not any(p.suffix == ".tmp" for p in tmp_path.iterdir())

    def test_17_digit_round_trip(self, tmp_path):
        value = 0.1 + 0.2  # not exactly representable in decimal
        rec = RunRecord(experiment="recover", trial=0, seed=0, n=1, d=1, decay="exp",
                        nu=0.1, loss="quadratic", lam=value, embedding="gaussian",
                        rel_err_x1=value)
        path = tmp_path / "p.csv"
        write_records(path, [rec])
        back = read_records(path)[0]
        assert back.lam == value and back.rel_err_x1 == value


def _rows_without_runtime(path):
    idx = CSV_COLUMNS.index("runtime_ms")
    return [line.split(",")[:idx] + line.split(",")[idx + 1:] for line in open(path)]


def _mini_config(tmp_path, experiment="recover", **overrides):
    kwargs = dict(experiment=experiment, n=24, d=36, decay="exp", nu=0.4,
                  loss="logistic", lam=1e-2, embedding="adaptive-gaussian",
                  m_list=[4, 8], trials=2, seed=7, tol=1e-10, max_iters=200,
                  out_path=str(tmp_path / f"{experiment}.csv"))
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestRunExperiment:
    def test_single_cell(self, tmp_path):
        cfg = _mini_config(tmp_path, trials=1, m_list=[6])
        records = run_experiment(cfg)
        assert len(records) == 1
        assert records[0].rel_err_x1 is not None and np.isfinite(records[0].rel_err_x1)

    def test_rerun_is_byte_identical_except_runtime(self, tmp_path):
        cfg1 = _mini_config(tmp_path, out_path=str(tmp_path / "a.csv"))
        cfg2 = _mini_config(tmp_path, out_path=str(tmp_path / "b.csv"))
        run_experiment(cfg1)
        run_experiment(cfg2)
        idx = CSV_COLUMNS.index("runtime_ms")
        rows_a = [line.split(",")[:idx] for line in open(tmp_path / "a.csv")]
        rows_b = [line.split(",")[:idx] for line in open(tmp_path / "b.csv")]
        assert rows_a == rows_b

    def test_rows_ordered_by_trial_then_m(self, tmp_path):
        # a risk config runs one cell per m, with its trials inside the cell
        for cfg, cells in [
                (_mini_config(tmp_path, experiment="sweep"), [(0, 4), (0, 8), (1, 4), (1, 8)]),
                (_mini_config(tmp_path, experiment="risk", loss="quadratic",
                              embedding="gaussian", trials=30, lam=1e-8), [(0, 4), (0, 8)])]:
            assert [(r.trial, r.m) for r in run_experiment(cfg)] == cells

    def test_summary_written(self, tmp_path):
        cfg = _mini_config(tmp_path, experiment="sweep")
        run_experiment(cfg)
        summary = json.load(open(tmp_path / "sweep.summary.json"))
        cells = {(c["embedding"], c["m"]) for c in summary["cells"]}
        assert ("adaptive-gaussian", 4) in cells and ("adaptive-gaussian", 8) in cells
        for c in summary["cells"]:
            assert "mean_rel_err_x1" in c and "two_std_rel_err_x1" in c
        assert summary["failed"] == [] and summary["not_converged"] == []

    def test_iterative_records_per_round(self, tmp_path):
        cfg = _mini_config(tmp_path, experiment="iterative", trials=1, m_list=[6], T=3,
                           lam=1.0)
        records = run_experiment(cfg)
        assert [r.T for r in records] == list(range(1, len(records) + 1))

    def test_nonsmooth_rows_include_comparator(self, tmp_path):
        cfg = _mini_config(tmp_path, experiment="nonsmooth", loss="l1", trials=1,
                           m_list=[6], lam=0.1, tol=1e-9)
        records = run_experiment(cfg)
        assert {r.embedding for r in records} == {"adaptive-gaussian", "arbitrary-subgradient"}

    def test_conditioning_records(self, tmp_path):
        cfg = _mini_config(tmp_path, experiment="conditioning", loss="quadratic",
                           trials=1, m_list=[5])
        rec = run_experiment(cfg)[0]
        assert rec.kappa_dagger <= rec.kappa

    def test_kernel_records(self, tmp_path):
        cfg = _mini_config(tmp_path, experiment="kernel", trials=1, m_list=[5])
        rec = run_experiment(cfg)[0]
        assert np.isfinite(rec.rel_err_x1) and rec.rel_err_x1 >= 0

    def test_risk_records(self, tmp_path):
        cfg = _mini_config(tmp_path, experiment="risk", loss="quadratic",
                           embedding="gaussian", trials=30, m_list=[6], lam=1e-8)
        rec = run_experiment(cfg)[0]
        assert rec.objective is not None and rec.bound_rhs is not None

    def test_dagger_route(self, tmp_path):
        cfg = _mini_config(tmp_path, embedding="oblivious-dagger", trials=1, m_list=[6])
        rec = run_experiment(cfg)[0]
        assert np.isfinite(rec.rel_err_x1)


class TestKernelCells:
    def test_one_root_per_config(self, tmp_path, monkeypatch):
        counts = {"gram_from_features": 0, "kernel_root": 0}
        for name in counts:
            def counted(*args, _name=name, _original=getattr(kernelize, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(kernelize, name, counted)
        monkeypatch.setattr(harness, "_last_setup", (None, None))
        records = run_experiment(_mini_config(tmp_path, "kernel"))
        assert len(records) == 4
        assert counts == {"gram_from_features": 1, "kernel_root": 1}

    def test_sketch_spanning_the_root_is_exact(self, tmp_path):
        cfg = _mini_config(tmp_path, "kernel", n=80, d=120, seed=3, m_list=[64], trials=1)
        (rec,) = run_experiment(cfg)
        assert rec.rel_err_x0 <= 1e-12
        assert rec.rel_err_x1 <= 1e-8
        assert harness._last_setup[1][0].shape == (80, 58)  # m is at least rank(K_h)
        # the sketch captures the whole root, and the row is certified
        assert rec.residual_norm <= 1e-12 and rec.condition_ok

    def test_rows_match_the_weight_space_route(self, tmp_path):
        """The root cells and the weight-space route of ``kernelize`` solve one
        problem: the same S_tilde, the same errors in the RKHS norm."""
        cfg = _mini_config(tmp_path, "kernel")
        records = run_experiment(cfg)
        A, _, loss = harness.build_instance(cfg)
        K = kernelize.gram_from_features(A)
        opts = cfg.solve_options()
        w_star = kernelize.solve_sketched_kernel(K, np.eye(cfg.n), loss, cfg.lam,
                                                 opts).minimizer
        norm = kernelize.rkhs_distance(K, w_star, np.zeros(cfg.n))
        for rec in records:
            rng = SeededRng(cfg.seed).derive(rec.trial, cfg.m_list.index(rec.m))
            s_tilde = sample_gaussian_matrix(cfg.n, rec.m, 1.0 / rec.m, rng)
            res = kernelize.solve_sketched_kernel(K, s_tilde, loss, cfg.lam, opts)
            w0 = s_tilde @ res.minimizer
            w1 = kernelize.kernel_first_order(K, s_tilde, res.minimizer, loss, cfg.lam)
            assert rec.rel_err_x0 == pytest.approx(
                kernelize.rkhs_distance(K, w0, w_star) / norm, rel=1e-12, abs=0)
            assert rec.rel_err_x1 == pytest.approx(
                kernelize.rkhs_distance(K, w1, w_star) / norm, rel=1e-12, abs=0)
            assert rec.objective == pytest.approx(res.objective, rel=1e-12, abs=0)


class TestSetupReuse:
    @pytest.fixture
    def counts(self, monkeypatch):
        """Calls of the instance synthesis, and reference solves: calls of
        ``_ensure_reference`` that are not handed ``x_star``."""
        counts = {"synth": 0, "reference": 0}
        synth_matrix, ensure_reference = synth.synth_matrix, estimators._ensure_reference

        def counted_synth(*args, **kwargs):
            counts["synth"] += 1
            return synth_matrix(*args, **kwargs)

        def counted_reference(A, loss, lam, opts, x_star=None):
            counts["reference"] += x_star is None
            return ensure_reference(A, loss, lam, opts, x_star)

        monkeypatch.setattr(synth, "synth_matrix", counted_synth)
        monkeypatch.setattr(estimators, "_ensure_reference", counted_reference)
        return counts

    @pytest.mark.parametrize("change", [{"embedding": "oblivious-dagger"},
                                        {"m_list": [4, 6, 8]}, {"out_path": "other.csv"}])
    def test_cell_inputs_reuse_the_setup(self, tmp_path, counts, change):
        run_experiment(_mini_config(tmp_path, trials=1))
        if "out_path" in change:
            change = {"out_path": str(tmp_path / change["out_path"])}
        run_experiment(_mini_config(tmp_path, trials=1, **change))
        assert counts == {"synth": 1, "reference": 1}

    @pytest.mark.parametrize("base, change", [
        ({}, {"seed": 8}), ({}, {"lam": 2e-2}), ({}, {"tol": 1e-9}),
        ({}, {"noise_var": 2.0}), ({}, {"nu": 0.5}),
        ({"decay": "geom", "ratio": 0.9}, {"ratio": 0.8})])
    def test_setup_inputs_rebuild(self, tmp_path, counts, base, change):
        run_experiment(_mini_config(tmp_path, trials=1, **base))
        run_experiment(_mini_config(tmp_path, trials=1, **{**base, **change}))
        assert counts == {"synth": 2, "reference": 2}

    @pytest.mark.parametrize("experiment, losses", [("recover", ("logistic", "relu")),
                                                    ("nonsmooth", ("l1", "linf"))])
    def test_other_loss_keeps_the_instance(self, tmp_path, counts, experiment, losses):
        """Same instance, other loss: one synthesis, two reference solves, and
        the CSV that the second loss writes from a cold start."""
        def run(loss, tag):
            path = tmp_path / f"{tag}.csv"
            run_experiment(_mini_config(tmp_path, experiment, loss=loss, trials=1,
                                        out_path=str(path)))
            return _rows_without_runtime(path)

        run(losses[0], "first")
        warm = run(losses[1], "warm")
        assert counts == {"synth": 1, "reference": 2}
        harness._last_setup = (None, None)
        assert warm == run(losses[1], "cold")
        assert counts == {"synth": 2, "reference": 3}

    def test_nu_is_not_an_input_of_a_geometric_spectrum(self, tmp_path, counts):
        run_experiment(_mini_config(tmp_path, trials=1, decay="geom", ratio=0.9))
        run_experiment(_mini_config(tmp_path, trials=1, decay="geom", ratio=0.9, nu=0.5))
        assert counts == {"synth": 1, "reference": 1}

    def test_warm_runs_match_cold_runs(self, tmp_path, counts):
        """A, B, A on one shared set-up writes the CSVs that each config writes
        from a cold start, except runtime_ms."""
        configs = {"a": dict(embedding="adaptive-srht"),
                   "b": dict(experiment="sweep", embedding="oblivious-dagger", m_list=[6])}

        def run(tag, name):
            path = tmp_path / f"{tag}.csv"
            run_experiment(_mini_config(tmp_path, **configs[name], out_path=str(path)))
            return _rows_without_runtime(path)

        warm = [run(f"warm{i}", name) for i, name in enumerate("aba")]
        assert counts == {"synth": 1, "reference": 1}
        cold = {}
        for name in "ab":
            harness._last_setup = (None, None)
            cold[name] = run(f"cold-{name}", name)
        assert counts == {"synth": 3, "reference": 3}
        assert warm == [cold["a"], cold["b"], cold["a"]]

    @pytest.mark.parametrize("experiment, reference", [("recover", True), ("kernel", True),
                                                       ("conditioning", False)])
    def test_cached_arrays_are_read_only(self, tmp_path, experiment, reference):
        loss = "quadratic" if experiment == "conditioning" else "logistic"
        run_experiment(_mini_config(tmp_path, experiment, loss=loss, trials=1, m_list=[5]))
        A, _, _, x_star, _ = harness._last_setup[1]
        with pytest.raises(ValueError, match="read-only"):
            A[0, 0] = 0.0
        assert (x_star is not None) == reference
        if reference:
            with pytest.raises(ValueError, match="read-only"):
                x_star[0] = 0.0

    def test_old_instance_is_released_before_the_next_is_built(self, tmp_path, monkeypatch):
        run_experiment(_mini_config(tmp_path, trials=1))
        old = weakref.ref(harness._last_setup[1][0])
        build_instance = harness.build_instance
        resident = []

        def checked(config):
            resident.append(old() is not None)
            return build_instance(config)

        monkeypatch.setattr(harness, "build_instance", checked)
        run_experiment(_mini_config(tmp_path, trials=1, seed=8))
        assert resident == [False]

    def test_failed_setup_is_not_kept(self, tmp_path, counts, monkeypatch):
        run_experiment(_mini_config(tmp_path, trials=1))
        counted_reference = estimators._ensure_reference

        def failing(*args, **kwargs):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(estimators, "_ensure_reference", failing)
        with pytest.raises(RuntimeError, match="injected failure"):
            run_experiment(_mini_config(tmp_path, trials=1, seed=8))
        assert harness._last_setup == (None, None)
        monkeypatch.setattr(estimators, "_ensure_reference", counted_reference)
        run_experiment(_mini_config(tmp_path, trials=1, seed=8))
        assert counts == {"synth": 3, "reference": 2}


class TestCli:
    def test_recover_main(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        code = harness.main(
            f"recover --n 16 --d 24 --decay exp --nu 0.4 --loss relu --lambda 0.01 "
            f"--embedding adaptive-gaussian --m 4 --trials 1 --seed 3 --out {out}".split())
        assert code == 0
        assert out.exists()

    def test_failed_cell_is_reported_not_written(self, tmp_path, monkeypatch, capsys):
        run_cell = harness._run_cell

        def failing(config, A, summary, loss, x_star, trial, m_idx, m):
            if (trial, m) == (1, 4):
                raise RuntimeError("injected failure")
            return run_cell(config, A, summary, loss, x_star, trial, m_idx, m)

        monkeypatch.setattr(harness, "_run_cell", failing)
        out = tmp_path / "f.csv"
        code = harness.main(
            f"sweep --n 16 --d 24 --loss relu --lambda 0.01 --m 4,8 --trials 2 --seed 3 "
            f"--out {out}".split())
        assert code == 1
        rows = read_records(out)
        assert [(r.trial, r.m) for r in rows] == [(0, 4), (0, 8), (1, 8)]
        summary = json.load(open(tmp_path / "f.summary.json"))
        assert summary["failed"] == [
            {"trial": 1, "m": 4, "error": "RuntimeError: injected failure"}]

    def test_unconverged_rounds_are_reported_not_written(self, tmp_path, capsys):
        out = tmp_path / "nc.csv"
        code = harness.main(
            f"iterative --n 16 --d 24 --loss logistic --lambda 0.01 --m 4,8 --T 3 --trials 2 "
            f"--seed 3 --max-iters 1 --out {out}".split())
        assert code == 1
        assert read_records(out) == []
        summary = json.load(open(tmp_path / "nc.summary.json"))
        assert summary["failed"] == []
        assert summary["not_converged"] == [
            {"trial": trial, "m": m, "t": 1} for trial in (0, 1) for m in (4, 8)]
        assert "4 round(s) did not converge" in capsys.readouterr().err

    @pytest.mark.parametrize("max_iters, converged", [(4, False), (8, True)])
    def test_unconverged_smooth_reference_writes_no_rows(self, tmp_path, capsys, max_iters,
                                                         converged):
        """Newton stops the logistic reference after 4 iterations; the cell
        itself converges, so only the reference keeps its row out."""
        out = tmp_path / "ref.csv"
        code = harness.main(
            f"recover --n 16 --d 24 --loss logistic --lambda 0.01 --m 4 --seed 3 "
            f"--max-iters {max_iters} --out {out}".split())
        summary = json.load(open(tmp_path / "ref.summary.json"))
        assert summary["not_converged"] == [] and summary["failed"] == []
        assert summary["reference_not_converged"] is not converged
        assert len(read_records(out)) == int(converged)
        assert code == int(not converged)
        assert ("reference solve did not converge" in capsys.readouterr().err) is not converged

    def test_unconverged_nonsmooth_reference_writes_no_rows(self, tmp_path, monkeypatch):
        """A dual reference whose finisher returns its start, checked at an
        unreachable tolerance, blocks every row, also when the next run reuses
        its set-up.  The reference's finisher is a no-op: it would land on the
        optimum exactly and meet any tolerance."""
        calls = []

        def truncated(A, loss, lam, opts):
            calls.append(opts)
            with monkeypatch.context() as patch:
                patch.setattr(solvers, "_active_set",
                              lambda B, b, lam, lows, highs, y, a=None: y)
                res = solve_dual_projected(A.T, loss.b, lam, loss.conjugate_domain(),
                                           SolveOptions(grad_tolerance=1e-30, max_iters=1))
            return -(A.T @ res.minimizer) / lam, res

        monkeypatch.setattr(estimators, "solve_nonsmooth_primal_reference", truncated)
        for run in ("a", "b"):
            out = tmp_path / f"{run}.csv"
            code = harness.main(
                f"nonsmooth --n 24 --d 36 --decay geom --ratio 0.9 --loss l1 --lambda 0.1 "
                f"--m 4,8 --seed 7 --out {out}".split())
            assert code == 1
            assert read_records(out) == []
            summary = json.load(open(tmp_path / f"{run}.summary.json"))
            assert summary["reference_not_converged"] is True
            assert summary["not_converged"] == [] and summary["failed"] == []
        assert len(calls) == 1

    def test_certify_exit_status(self):
        assert harness.main(["certify", "--suite", "conditioning"]) == 0

    def test_certify_unknown_suite(self):
        with pytest.raises(SystemExit) as exc:
            harness.main(["certify", "--suite", "nope"])
        assert exc.value.code == 2
