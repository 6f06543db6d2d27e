import math

import numpy as np
import pytest

from msl import encoder
from msl.data import PointSet
from msl.decoder import DecoderParams, decode_careful
from msl.encoder import EncoderParams, EncoderSpace, encode, encoder_grid, fit_encoder
from msl.errors import ConfigError
from msl.metrics import detection_loss, report

from oracles import encode_reference, greedy_match_reference


def as_points(pairs):
    return PointSet(np.asarray(pairs, dtype=np.float64).reshape(len(pairs), 2))


def random_map(rng, quantized: bool):
    if quantized:
        # Coarse value grid forces ties and plateaus.
        return rng.integers(0, 5, size=(16, 16)) / 4.0
    return rng.uniform(-0.2, 1.2, size=(16, 16))


class TestParams:
    def test_threshold_range(self):
        with pytest.raises(ConfigError):
            EncoderParams(threshold=0.0, min_separation=2.0)
        with pytest.raises(ConfigError):
            EncoderParams(threshold=1.0, min_separation=2.0)

    def test_separation_at_least_one(self):
        for separation in (0.5, math.nan, math.inf):
            with pytest.raises(ConfigError):
                EncoderParams(threshold=0.5, min_separation=separation)


class TestEncode:
    def test_all_zero_map_gives_no_labels(self):
        out = encode(np.zeros((7, 7)), EncoderParams(threshold=0.5, min_separation=2.0))
        assert len(out) == 0

    def test_single_gaussian_peak(self):
        truth = as_points([(3.0, 3.0)])
        target = decode_careful(truth, (7, 7), DecoderParams.careful(1.0, 3.0))
        out = encode(target, EncoderParams(threshold=0.5, min_separation=2.0))
        expected = encode_reference(target.values.tolist(), 0.5, 2.0)
        assert [(x, y) for x, y in out.points] == expected == [(3.0, 3.0)]

    def test_close_peaks_keep_strongest(self):
        values = np.zeros((7, 7))
        values[3, 3] = 0.9
        values[3, 4] = 0.8
        out = encode(values, EncoderParams(threshold=0.5, min_separation=2.0))
        assert [(x, y) for x, y in out.points] == [(3.0, 3.0)]

    def test_values_clamped_before_thresholding(self):
        values = np.zeros((5, 5))
        values[2, 2] = 7.0  # clamps to 1.0, still a peak
        out = encode(values, EncoderParams(threshold=0.9, min_separation=2.0))
        assert [(x, y) for x, y in out.points] == [(2.0, 2.0)]

    def test_agrees_with_reference_on_random_maps(self):
        rng = np.random.default_rng(10)
        for trial in range(60):
            values = random_map(rng, quantized=trial % 3 == 0)
            params = EncoderParams(
                threshold=float(rng.uniform(0.05, 0.95)),
                min_separation=float(rng.integers(1, 5)),
            )
            got = [(x, y) for x, y in encode(values, params).points]
            expected = encode_reference(values.tolist(), params.threshold, params.min_separation)
            assert got == expected

    def test_conflicts_found_in_small_blocks_match_reference(self, monkeypatch):
        # Blocks of a few rows each, as for a lattice with very many peaks.
        monkeypatch.setattr(encoder, "_PAIR_BLOCK", 50)
        rng = np.random.default_rng(19)
        for trial in range(20):
            values = random_map(rng, quantized=trial % 2 == 0)
            params = EncoderParams(threshold=0.05, min_separation=float(rng.integers(1, 5)))
            got = [(x, y) for x, y in encode(values, params).points]
            assert got == encode_reference(values.tolist(), params.threshold, params.min_separation)

    def test_raising_threshold_never_adds_points(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            values = rng.uniform(0, 1, size=(16, 16))
            counts = [
                len(encode(values, EncoderParams(threshold=h, min_separation=2.0)))
                for h in (0.1, 0.3, 0.5, 0.7, 0.9)
            ]
            assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_returned_points_respect_separation(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            values = rng.uniform(0, 1, size=(16, 16))
            delta = float(rng.integers(2, 6))
            out = encode(values, EncoderParams(threshold=0.2, min_separation=delta)).points
            for i in range(len(out)):
                for j in range(i + 1, len(out)):
                    assert np.hypot(*(out[i] - out[j])) >= delta

    def test_suppression_idempotent_on_single_peak(self):
        truth = as_points([(4.0, 4.0)])
        target = decode_careful(truth, (9, 9), DecoderParams.careful(1.5, 4.0))
        params = EncoderParams(threshold=0.4, min_separation=3.0)
        first = encode(target, params)
        assert [(x, y) for x, y in first.points] == [(4.0, 4.0)]
        # Re-encoding the same ideal map finds the same single point.
        again = encode(target, params)
        assert np.array_equal(first.points, again.points)


class TestGrid:
    def test_single_candidate(self):
        space = encoder_grid([0.5], [2.0])
        assert len(space) == 1
        assert space.candidates[0] == EncoderParams(0.5, 2.0)

    def test_product_order_threshold_major(self):
        space = encoder_grid([0.3, 0.5], [2.0, 3.0])
        assert space.candidates == (
            EncoderParams(0.3, 2.0),
            EncoderParams(0.3, 3.0),
            EncoderParams(0.5, 2.0),
            EncoderParams(0.5, 3.0),
        )

    def test_duplicate_thresholds_rejected(self):
        with pytest.raises(ConfigError):
            encoder_grid([0.5, 0.5], [2.0])

    def test_empty_lists_rejected(self):
        with pytest.raises(ConfigError):
            encoder_grid([], [2.0])
        with pytest.raises(ConfigError):
            encoder_grid([0.5], [])

    def test_space_distinctness(self):
        with pytest.raises(ConfigError):
            EncoderSpace((EncoderParams(0.5, 2.0), EncoderParams(0.5, 2.0)))


class TestFit:
    def make_maps(self, rng, n=6):
        maps = []
        truths = []
        for _ in range(n):
            k = int(rng.integers(1, 4))
            pts = np.column_stack([rng.uniform(2, 14, k), rng.uniform(2, 14, k)])
            truth = PointSet(pts)
            target = decode_careful(truth, (16, 16), DecoderParams.careful(1.5, 4.5))
            noisy = np.clip(target.values + rng.normal(0, 0.07, size=(16, 16)), 0, 1)
            maps.append(noisy)
            truths.append(truth)
        return maps, truths

    def test_single_candidate_returned(self):
        rng = np.random.default_rng(13)
        maps, truths = self.make_maps(rng)
        space = encoder_grid([0.5], [2.0])
        best, table, _ = fit_encoder(maps, truths, space, 2.0)
        assert best == space.candidates[0]
        assert len(table) == 1

    def test_argmin_contract(self):
        rng = np.random.default_rng(14)
        maps, truths = self.make_maps(rng)
        space = encoder_grid([0.2, 0.4, 0.6, 0.8], [2.0, 3.0])
        best, table, _ = fit_encoder(maps, truths, space, 2.0)
        best_loss = dict((p, l) for p, l in table)[best]
        assert all(best_loss <= loss for _, loss in table)
        first_argmin = min(range(len(table)), key=lambda i: (table[i][1], i))
        assert table[first_argmin][0] == best

    def test_table_matches_reference_encode_on_plateaus_and_ties(self):
        rng = np.random.default_rng(16)
        maps = [random_map(rng, quantized=True) for _ in range(8)]
        truths = [PointSet(rng.uniform(0, 15, size=(int(rng.integers(0, 6)), 2))) for _ in maps]
        space = encoder_grid([0.1, 0.25, 0.5, 0.75, 0.9], [1.0, 2.0, 4.0])
        best, table, fit_report = fit_encoder(maps, truths, space, 2.0)
        expected = []
        for params in space.candidates:
            losses = [
                detection_loss(
                    as_points(encode_reference(m.tolist(), params.threshold, params.min_separation)), t, 2.0
                )
                for m, t in zip(maps, truths)
            ]
            expected.append((params, float(sum(losses) / len(losses))))
        assert table == expected
        assert fit_report == report([encode(m, best) for m in maps], truths, 2.0)

    def test_table_matches_references_on_shuffled_grid_and_empty_cases(self):
        rng = np.random.default_rng(17)
        # Scaled maps put peaks between the thresholds and on them: a quantized
        # map times 0.4 takes the values 0.1, 0.2, 0.3 and 0.4 exactly.
        scales = [1.0, 1.0, 0.4, 0.4, 0.6, 0.3, 2.0, 0.5]
        maps = [random_map(rng, quantized=k % 2 == 0) * scale for k, scale in enumerate(scales)]
        # No peak at or above the lowest threshold, 0.1.
        maps += [np.zeros((16, 16)), np.full((16, 16), 0.05), rng.uniform(0, 0.09, size=(16, 16))]
        truths = [PointSet(rng.uniform(0, 15, size=(int(rng.integers(0, 6)), 2))) for _ in maps]
        truths[1] = truths[-1] = PointSet.empty()
        # A grid in no sorted order on either factor.
        space = encoder_grid([0.5, 0.1, 0.9, 0.25], [4.0, 1.0, 2.0])
        best, table, fit_report = fit_encoder(maps, truths, space, 2.0)
        expected = []
        for params in space.candidates:
            losses = []
            for m, t in zip(maps, truths):
                pred = encode_reference(m.tolist(), params.threshold, params.min_separation)
                _, tp, fp, fn = greedy_match_reference(pred, t.points, 2.0)
                denom = 2 * tp + fp + fn
                losses.append(1.0 - (1.0 if denom == 0 else 2 * tp / denom))
            expected.append((params, float(sum(losses) / len(losses))))
        assert table == expected
        assert fit_report == report([encode(m, best) for m in maps], truths, 2.0)

    def test_one_separation_pass_per_map_and_separation(self, monkeypatch):
        rng = np.random.default_rng(18)
        maps, truths = self.make_maps(rng, n=5)
        space = encoder_grid([0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [2.0, 4.0, 6.0])
        expected = fit_encoder(maps, truths, space, 3.0)
        calls = []
        separate = encoder._separate

        def counted(*args):
            calls.append(args[1:])
            return separate(*args)

        monkeypatch.setattr(encoder, "_separate", counted)
        assert fit_encoder(maps, truths, space, 3.0) == expected
        assert len(calls) == 3 * len(maps)
        assert sorted(set(calls)) == [(0.1, 2.0), (0.1, 4.0), (0.1, 6.0)]

    def test_tabulated_loss_reproducible(self):
        rng = np.random.default_rng(15)
        maps, truths = self.make_maps(rng)
        space = encoder_grid([0.3, 0.6], [2.0, 4.0])
        _, table, _ = fit_encoder(maps, truths, space, 2.0)
        for params, tabulated in table:
            recomputed = sum(
                detection_loss(encode(m, params), t, 2.0) for m, t in zip(maps, truths)
            ) / len(maps)
            assert abs(recomputed - tabulated) < 1e-12
