"""Acceptance suite: one test per criterion, each printing a PASS line
with its measured numbers (run with -s to see them)."""

import json
import time
from pathlib import Path

import numpy as np

from msl.cli import main
from msl.data import PointSet, SynthConfig, generate_dataset, split
from msl.decoder import DecoderParams, decode_careful, decoder_grid
from msl.encoder import EncoderParams, encode, encoder_grid, fit_encoder
from msl.inferrer import Architecture, InferrerParams, TrainConfig, gradient, infer
from msl.metrics import detection_loss, match, report
from msl.pipeline import learn, loop, test
from msl.seeds import derive_seed

from helpers import assert_dirs_identical, small_config_dict, write_config
from oracles import careful_value_reference, encode_reference, fd_gradient, optimal_tp


def test_criterion_1_gradient_matches_finite_differences():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    probes = 120
    worst = 0.0
    for _ in range(probes):
        arch = Architecture(
            context_radius=int(rng.integers(0, 3)), hidden_units=int(rng.integers(1, 9))
        )
        params = InferrerParams(
            w1=rng.uniform(-1, 1, size=(arch.hidden_units, arch.input_dim)),
            b1=rng.uniform(-1, 1, size=arch.hidden_units),
            w2=rng.uniform(-1, 1, size=arch.hidden_units),
            b2=float(rng.uniform(-1, 1)),
        )
        batch = int(rng.integers(1, 9))
        patches = rng.uniform(-1, 1, size=(batch, arch.input_dim))
        targets = rng.uniform(0, 1, size=batch)
        analytic = gradient(params, patches, targets)
        numeric = fd_gradient(params.w1, params.b1, params.w2, params.b2, patches, targets, step=1e-4)
        for a, n in zip(analytic, numeric):
            a = np.asarray(a, dtype=float)
            n = np.asarray(n, dtype=float)
            denom = np.maximum.reduce([np.abs(a), np.abs(n), np.full_like(a, 1e-6)])
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    elapsed = time.perf_counter() - started
    assert worst < 1e-4
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1 PASS — gradient vs central differences: "
          f"max rel err {worst:.3e} over {probes} probes ({elapsed:.1f}s)")


def test_criterion_2_decoder_closed_form():
    rng = np.random.default_rng(102)
    started = time.perf_counter()
    shape = (12, 10)
    worst = 0.0
    for _ in range(1000):
        point = (float(rng.uniform(0, shape[0])), float(rng.uniform(0, shape[1])))
        sigma = float(rng.uniform(0.3, 4.0))
        radius = sigma * float(rng.uniform(1.0, 3.0))
        pixel = (int(rng.integers(0, shape[0])), int(rng.integers(0, shape[1])))
        out = decode_careful(
            PointSet(np.array([point])), shape, DecoderParams.careful(sigma, radius)
        )
        expected = careful_value_reference(point, sigma, radius, pixel)
        worst = max(worst, abs(out.values[pixel[1], pixel[0]] - expected))
    # Exact peak at integer-coordinate truth points.
    for _ in range(50):
        px, py = int(rng.integers(0, shape[0])), int(rng.integers(0, shape[1]))
        sigma = float(rng.uniform(0.3, 4.0))
        out = decode_careful(
            PointSet(np.array([[float(px), float(py)]])),
            shape,
            DecoderParams.careful(sigma, 3 * sigma),
        )
        assert out.values[py, px] == 1.0
    elapsed = time.perf_counter() - started
    assert worst < 1e-12
    assert elapsed < 5.0
    print(f"ACCEPTANCE 2 PASS — decoder closed form: max abs err {worst:.2e} "
          f"over 1000 probes, exact unit peaks ({elapsed:.1f}s)")


def test_criterion_3_encoder_and_matcher_oracles():
    rng = np.random.default_rng(103)
    started = time.perf_counter()
    for trial in range(500):
        if trial % 4 == 0:
            values = rng.integers(0, 5, size=(16, 16)) / 4.0  # plateaus and ties
        else:
            values = rng.uniform(-0.2, 1.2, size=(16, 16))
        params = EncoderParams(
            threshold=float(rng.uniform(0.05, 0.95)),
            min_separation=float(rng.integers(1, 6)),
        )
        got = [(x, y) for x, y in encode(values, params).points]
        expected = encode_reference(values.tolist(), params.threshold, params.min_separation)
        assert got == expected

    checked = equal_cases = 0
    for _ in range(300):
        n_pred = int(rng.integers(0, 7))
        n_truth = int(rng.integers(0, 7))
        pred = rng.uniform(0, 10, size=(n_pred, 2))
        truth = rng.uniform(0, 10, size=(n_truth, 2))
        tau = float(rng.uniform(0.5, 3.0))
        greedy = match(PointSet(pred), PointSet(truth), tau).tp
        best = optimal_tp(pred, truth, tau)
        assert greedy <= best
        checked += 1
    # Equality whenever same-side pairwise distances all exceed 2*tau.
    tau = 1.5
    for _ in range(100):
        k = int(rng.integers(1, 7))
        cells = rng.permutation(16)[:k]
        centres = np.column_stack([(cells % 4) * 4 * tau, (cells // 4) * 4 * tau]).astype(float)
        truth = centres + rng.uniform(-tau / 4, tau / 4, size=centres.shape)
        pred = (centres + rng.uniform(-tau / 4, tau / 4, size=centres.shape))[: int(rng.integers(0, k + 1))]
        greedy = match(PointSet(pred), PointSet(truth), tau).tp
        assert greedy == optimal_tp(pred, truth, tau)
        equal_cases += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"ACCEPTANCE 3 PASS — encoder oracle on 500 maps, matcher bound on "
          f"{checked} instances, equality on {equal_cases} isolated cases ({elapsed:.1f}s)")


def test_criterion_4_argmin_contracts(benchmark_run):
    rng = np.random.default_rng(104)
    # fit_encoder: independent recomputation of the whole table.
    maps, truths = [], []
    for _ in range(6):
        k = int(rng.integers(1, 4))
        pts = PointSet(np.column_stack([rng.uniform(2, 14, k), rng.uniform(2, 14, k)]))
        target = decode_careful(pts, (16, 16), DecoderParams.careful(1.5, 4.5))
        maps.append(np.clip(target.values + rng.normal(0, 0.07, size=(16, 16)), 0, 1))
        truths.append(pts)
    space = encoder_grid([0.2, 0.4, 0.6, 0.8], [2.0, 3.0])
    best, table, _ = fit_encoder(maps, truths, space, 2.0)
    recomputed = []
    for params, tabulated in table:
        value = sum(detection_loss(encode(m, params), t, 2.0) for m, t in zip(maps, truths)) / len(maps)
        assert abs(value - tabulated) < 1e-12
        recomputed.append(value)
    assert best == table[int(np.argmin(recomputed))][0]

    # Documented tie-break: with every candidate at loss 1.0, the earliest wins.
    synth = SynthConfig(width=24, height=24, blob_count_min=2, blob_count_max=4,
                        blob_amplitude=0.9, blob_radius=1.5, min_separation=5.0,
                        noise_std=0.05, seed=9)
    ds = generate_dataset(synth, 20)
    tr, va, te = split(ds, (0.8, 0.1, 0.1), 10)
    arch = Architecture(context_radius=2, hidden_units=8)
    degenerate_cfg = TrainConfig(epochs=1, learning_rate=0.0, batch_pixels=256, seed=11)
    tie_space = decoder_grid([1.5], 3.0, include_careless=True)
    enc_space = encoder_grid([0.999], [2.0])
    tie_result = loop(tr, va, tie_space, arch, degenerate_cfg, enc_space, 2.0)
    losses = [e.validation_loss for e in tie_result.entries]
    assert losses == [1.0, 1.0]
    assert tie_result.selected_index == 0

    # loop at small scale: recompute the full table independently of loop().
    train_cfg = TrainConfig(epochs=3, learning_rate=0.01, batch_pixels=512, seed=12)
    dec_space = decoder_grid([1.5], 3.0, include_careless=True)
    enc_space = encoder_grid([0.3, 0.5], [2.0])
    result = loop(tr, va, dec_space, arch, train_cfg, enc_space, 2.0)
    for i, entry in enumerate(result.entries):
        from dataclasses import replace
        cand_cfg = replace(train_cfg, seed=derive_seed(train_cfg.seed, i))
        independent = learn(tr, va, entry.decoder_params, arch, cand_cfg, enc_space, 2.0)
        assert abs(independent.validation_report.loss - entry.validation_loss) < 1e-12
    table_losses = [e.validation_loss for e in result.entries]
    assert result.entries[result.selected_index].validation_loss == min(table_losses)

    # Worker count does not change the loop outcome.
    for workers in (2, 3):
        again = loop(tr, va, dec_space, arch, train_cfg, enc_space, 2.0, workers=workers)
        assert again.selected_index == result.selected_index
        assert [e.validation_loss for e in again.entries] == table_losses

    # Benchmark-scale: the stored selection attains the table minimum.
    bench_losses = [e.validation_loss for e in benchmark_run.result.entries if not e.failed]
    selected_loss = benchmark_run.result.entries[benchmark_run.result.selected_index].validation_loss
    assert selected_loss == min(bench_losses)
    print("ACCEPTANCE 4 PASS — argmin contracts: encoder table recomputed to 1e-12, "
          "loop table recomputed to 1e-12, earliest-candidate tie-break, "
          f"worker-invariant, benchmark selection at table minimum ({selected_loss:.4f})")


def test_criterion_5_careful_beats_careless_on_benchmark(benchmark_run):
    cfg = benchmark_run.config
    result = benchmark_run.result
    careless_entries = [e for e in result.entries if e.decoder_params.variant.value == "careless"]
    assert len(careless_entries) == 1
    careless = careless_entries[0].solution
    selected = result.selected
    assert selected.decoder_params.variant.value == "careful"

    careful_val_f1 = selected.validation_report.f1
    careless_val_f1 = careless.validation_report.f1
    careful_test = test(benchmark_run.test, selected, cfg.match_tolerance)
    careless_test = test(benchmark_run.test, careless, cfg.match_tolerance)

    # Hard requirement: strict ordering on both splits.
    assert careful_val_f1 > careless_val_f1
    assert careful_test.f1 > careless_test.f1
    # Derived expectations, confirmed on the first full run of this artifact.
    assert careful_test.f1 >= 0.85
    assert careless_test.f1 <= careful_test.f1 - 0.25
    assert benchmark_run.loop_seconds < 600.0
    print(f"ACCEPTANCE 5 PASS — benchmark: careful test F1 {careful_test.f1:.4f} "
          f"(val {careful_val_f1:.4f}), careless test F1 {careless_test.f1:.4f} "
          f"(val {careless_val_f1:.4f}), gap {careful_test.f1 - careless_test.f1:.3f}, "
          f"loop {benchmark_run.loop_seconds:.0f}s")


def test_criterion_6_byte_identical_reruns(tmp_path):
    cfg = small_config_dict(str(tmp_path / "exp"))
    cfg_path = write_config(tmp_path / "config.json", cfg)
    gen_a, gen_b = tmp_path / "data_a", tmp_path / "data_b"
    assert main(["gen", "--config", str(cfg_path), "--out", str(gen_a)]) == 0
    assert main(["gen", "--config", str(cfg_path), "--out", str(gen_b)]) == 0
    assert_dirs_identical(gen_a, gen_b)

    loop_a, loop_b = tmp_path / "loop_a", tmp_path / "loop_b"
    assert main(["loop", "--config", str(cfg_path), "--data", str(gen_a), "--out", str(loop_a)]) == 0
    assert main(["loop", "--config", str(cfg_path), "--data", str(gen_b), "--out", str(loop_b)]) == 0
    assert_dirs_identical(loop_a, loop_b)
    binaries = sorted(p.relative_to(loop_a) for p in loop_a.rglob("*.msl1"))
    assert binaries, "loop run must produce binary model artifacts"
    for rel in binaries:
        assert (loop_a / rel).read_bytes() == (loop_b / rel).read_bytes()
    print(f"ACCEPTANCE 6 PASS — determinism: dataset and loop runs byte-identical "
          f"({len(binaries)} binary artifacts compared)")


def test_criterion_7_decoder_coupling_and_test_isolation(tmp_path, decode_calls):
    # Distinct sigmas must give distinct stored target maps on non-empty truth.
    truth = PointSet(np.array([[7.3, 5.1], [17.6, 12.2]]))
    maps = {
        sigma: decode_careful(truth, (24, 24), DecoderParams.careful(sigma, 3 * sigma)).values
        for sigma in (1.0, 2.0, 3.0)
    }
    assert not np.array_equal(maps[1.0], maps[2.0])
    assert not np.array_equal(maps[2.0], maps[3.0])
    assert not np.array_equal(maps[1.0], maps[3.0])

    # The testing path never invokes the decoder.
    cfg = small_config_dict(str(tmp_path / "exp"))
    cfg_path = write_config(tmp_path / "config.json", cfg)
    assert main(["gen", "--config", str(cfg_path)]) == 0
    assert main(["loop", "--config", str(cfg_path)]) == 0
    run = Path(cfg["out_dir"]) / "loop"
    decode_calls.clear()
    assert main(["test", "--run", str(run)]) == 0
    calls = len(decode_calls)
    assert calls == 0
    report_payload = json.loads((run / "test_report.json").read_text())
    assert set(report_payload) >= {"precision", "recall", "f1", "loss", "tp", "fp", "fn", "tau"}
    print("ACCEPTANCE 7 PASS — coupling: sigma changes the stored target maps; "
          f"decoder invocations during cmd_test = {calls}")
