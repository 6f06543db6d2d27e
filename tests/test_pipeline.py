import numpy as np
import pytest

import msl.pipeline
from msl.data import Dataset, SynthConfig, generate_dataset, split
from msl.decoder import DecoderParams, DecoderSpace, decoder_grid
from msl.encoder import encoder_grid
from msl.errors import ConfigError, DivergenceError, LoopFailureError
from msl.inferrer import Architecture, TrainConfig, infer, init_params, train
from msl.encoder import encode
from msl.metrics import report
from msl.pipeline import Predictor, learn, loop, test
from msl.seeds import derive_seed


def small_world(master_seed=4242, epochs=3, learning_rate=0.01):
    synth = SynthConfig(
        width=24,
        height=24,
        blob_count_min=2,
        blob_count_max=4,
        blob_amplitude=0.9,
        blob_radius=1.5,
        min_separation=5.0,
        noise_std=0.05,
        seed=derive_seed(master_seed, 1),
    )
    ds = generate_dataset(synth, 30)
    train_split, val_split, test_split = split(ds, (0.8, 0.1, 0.1), derive_seed(master_seed, 2))
    arch = Architecture(context_radius=2, hidden_units=8)
    train_cfg = TrainConfig(
        epochs=epochs,
        learning_rate=learning_rate,
        batch_pixels=512,
        seed=derive_seed(master_seed, 3),
    )
    decoder_space = decoder_grid([1.5], 3.0, include_careless=True)
    encoder_space = encoder_grid([0.3, 0.5], [2.0])
    return train_split, val_split, test_split, arch, train_cfg, decoder_space, encoder_space, 2.0


class TestLearn:
    def test_degenerate_passthrough(self):
        tr, va, te, arch, cfg, _, _, tau = small_world(learning_rate=0.0)
        space = encoder_grid([0.5], [2.0])
        sol = learn(tr, va, DecoderParams.careful(1.5, 4.5), arch, cfg, space, tau)
        initial = init_params(arch, derive_seed(cfg.seed, 0))
        assert np.array_equal(sol.inferrer_params.w1, initial.w1)
        assert sol.encoder_params == space.candidates[0]

    def test_empty_split_is_a_config_error_before_training(self, monkeypatch):
        tr, _, _, arch, cfg, _, enc_space, tau = small_world()

        def no_training(*args, **kwargs):
            raise AssertionError("train was called")

        monkeypatch.setattr(msl.pipeline, "train", no_training)
        with pytest.raises(ConfigError, match="non-empty"):
            learn(tr, Dataset(()), DecoderParams.careful(1.5, 4.5), arch, cfg, enc_space, tau)

    def test_determinism(self):
        tr, va, te, arch, cfg, _, enc_space, tau = small_world()
        dp = DecoderParams.careful(1.5, 4.5)
        a = learn(tr, va, dp, arch, cfg, enc_space, tau)
        b = learn(tr, va, dp, arch, cfg, enc_space, tau)
        assert np.array_equal(a.inferrer_params.w1, b.inferrer_params.w1)
        assert a.encoder_params == b.encoder_params
        assert a.validation_report == b.validation_report
        assert np.array_equal(a.step_losses, b.step_losses)

    def test_stores_decoder_and_tables(self):
        tr, va, te, arch, cfg, _, enc_space, tau = small_world()
        dp = DecoderParams.careful(1.5, 4.5)
        sol = learn(tr, va, dp, arch, cfg, enc_space, tau)
        assert sol.decoder_params == dp
        assert len(sol.encoder_table) == len(enc_space)
        assert sol.epoch_losses.shape[0] == cfg.epochs

    def test_validation_report_comes_from_the_fit(self, monkeypatch):
        tr, va, te, arch, cfg, _, enc_space, tau = small_world()

        def refuse(*args, **kwargs):
            raise AssertionError("learn scored the validation split a second time")

        monkeypatch.setattr(msl.pipeline, "encode", refuse)
        monkeypatch.setattr(msl.pipeline, "report", refuse)
        sol = learn(tr, va, DecoderParams.careful(1.5, 4.5), arch, cfg, enc_space, tau)
        rep = sol.validation_report
        assert rep.tp + rep.fn == sum(len(s.truth) for s in va.samples)


class TestLoop:
    def test_single_candidate_selected(self):
        tr, va, te, arch, cfg, _, enc_space, tau = small_world()
        space = DecoderSpace((DecoderParams.careful(1.5, 4.5),))
        result = loop(tr, va, space, arch, cfg, enc_space, tau)
        assert result.selected_index == 0
        assert result.entries[0].decoder_params == space.candidates[0]

    def test_selected_attains_table_minimum(self):
        tr, va, te, arch, cfg, dec_space, enc_space, tau = small_world()
        result = loop(tr, va, dec_space, arch, cfg, enc_space, tau)
        losses = [e.validation_loss for e in result.entries if not e.failed]
        assert result.entries[result.selected_index].validation_loss == min(losses)

    def test_worker_count_does_not_change_result(self):
        tr, va, te, arch, cfg, dec_space, enc_space, tau = small_world()
        serial = loop(tr, va, dec_space, arch, cfg, enc_space, tau, workers=1)
        parallel = loop(tr, va, dec_space, arch, cfg, enc_space, tau, workers=2)
        assert serial.selected_index == parallel.selected_index
        for a, b in zip(serial.entries, parallel.entries):
            assert a.decoder_params == b.decoder_params
            assert a.validation_loss == b.validation_loss
            assert np.array_equal(a.solution.inferrer_params.w1, b.solution.inferrer_params.w1)

    def test_failed_candidate_recorded_and_excluded(self, monkeypatch):
        tr, va, te, arch, cfg, dec_space, enc_space, tau = small_world()
        real_learn = msl.pipeline.learn

        def failing_learn(train_split, val_split, decoder_params, *args, **kwargs):
            if decoder_params.variant.value == "careless":
                raise DivergenceError("non-finite training loss at step 3")
            return real_learn(train_split, val_split, decoder_params, *args, **kwargs)

        monkeypatch.setattr(msl.pipeline, "learn", failing_learn)
        result = loop(tr, va, dec_space, arch, cfg, enc_space, tau, workers=1)
        assert result.entries[0].failed
        assert "step 3" in result.entries[0].error
        assert result.entries[0].solution is None
        assert result.selected_index == 1

    def test_all_failed_raises(self, monkeypatch):
        tr, va, te, arch, cfg, dec_space, enc_space, tau = small_world()

        def always_fail(*args, **kwargs):
            raise DivergenceError("non-finite training loss at step 0")

        monkeypatch.setattr(msl.pipeline, "learn", always_fail)
        with pytest.raises(LoopFailureError):
            loop(tr, va, dec_space, arch, cfg, enc_space, tau, workers=1)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_refused_before_learning(self, monkeypatch, workers):
        tr, va, te, arch, cfg, dec_space, enc_space, tau = small_world()

        def never(*args, **kwargs):
            raise AssertionError("a candidate was learned")

        monkeypatch.setattr(msl.pipeline, "learn", never)
        with pytest.raises(ConfigError, match=f"workers .* at least 1, got {workers}"):
            loop(tr, va, dec_space, arch, cfg, enc_space, tau, workers=workers)


class TestTest:
    def test_on_validation_split_reproduces_stored_report(self):
        tr, va, te, arch, cfg, _, enc_space, tau = small_world()
        sol = learn(tr, va, DecoderParams.careful(1.5, 4.5), arch, cfg, enc_space, tau)
        # The stored report holds the encoder fit's counts; test() scores the
        # split again through infer_maps, encode and report.
        rep = test(va, sol, tau)
        assert rep == sol.validation_report

    def test_degenerate_solution_has_zero_recall(self):
        tr, va, te, arch, cfg, _, _, tau = small_world(learning_rate=0.0)
        space = encoder_grid([0.999], [2.0])
        sol = learn(tr, va, DecoderParams.careful(1.5, 4.5), arch, cfg, space, tau)
        rep = test(te, sol, tau)
        assert rep.recall == 0.0

    def test_accepts_loop_result(self):
        tr, va, te, arch, cfg, dec_space, enc_space, tau = small_world()
        result = loop(tr, va, dec_space, arch, cfg, enc_space, tau)
        sel = result.selected
        rep_from_loop = test(te, result, tau)
        assert test(te, sel, tau) == rep_from_loop
        assert test(te, Predictor(sel.inferrer_params, sel.encoder_params), tau) == rep_from_loop

    def test_infers_the_split_in_one_call(self, monkeypatch):
        tr, va, te, arch, cfg, _, enc_space, tau = small_world()
        sol = learn(tr, va, DecoderParams.careful(1.5, 4.5), arch, cfg, enc_space, tau)
        calls = []
        infer_maps = msl.pipeline.infer_maps

        def counted(lattices, params, then=None):
            calls.append(len(lattices))
            return infer_maps(lattices, params, then=then)

        monkeypatch.setattr(msl.pipeline, "infer_maps", counted)
        got = test(tr, sol, tau)
        assert calls == [tr.n]
        preds = [encode(infer(s.lattice, sol.inferrer_params), sol.encoder_params) for s in tr.samples]
        assert got == report(preds, [s.truth for s in tr.samples], tau)


class TestOnBenchmark:
    """End-to-end expectations on the standard benchmark (shared run)."""

    def test_careful_beats_careless_on_validation(self, benchmark_run):
        entries = benchmark_run.result.entries
        careless = [e for e in entries if e.decoder_params.variant.value == "careless"]
        careful = [e for e in entries if e.decoder_params.variant.value == "careful"]
        assert len(careless) == 1 and len(careful) == 3
        careless_f1 = careless[0].solution.validation_report.f1
        for entry in careful:
            if entry.decoder_params.sigma == 2.0:
                assert entry.solution.validation_report.f1 > careless_f1

    def test_generalization_within_tenth(self, benchmark_run):
        sol = benchmark_run.result.selected
        val_f1 = sol.validation_report.f1
        test_f1 = test(benchmark_run.test, sol, benchmark_run.config.match_tolerance).f1
        assert abs(test_f1 - val_f1) <= 0.1

    def test_training_loss_descends(self, benchmark_run):
        sol = benchmark_run.result.selected
        assert sol.epoch_losses[-1] < sol.epoch_losses[0]

    def test_loop_reproducible_loss_recomputation(self, benchmark_run):
        sol = benchmark_run.result.selected
        tau = benchmark_run.config.match_tolerance
        maps = [infer(s.lattice, sol.inferrer_params) for s in benchmark_run.val.samples]
        preds = [encode(m, sol.encoder_params) for m in maps]
        rep = report(preds, [s.truth for s in benchmark_run.val.samples], tau)
        stored = benchmark_run.result.entries[benchmark_run.result.selected_index].validation_loss
        assert rep.loss == stored
