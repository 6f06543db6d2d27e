import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from msl.data import PointSet
from msl.encoder import encoder_grid, fit_encoder
from msl.errors import ShapeError
from msl.metrics import DetectionReport, detection_loss, match, report

from oracles import greedy_match_reference, optimal_tp


def points(array_like) -> PointSet:
    arr = np.asarray(array_like, dtype=np.float64)
    return PointSet(arr.reshape(len(array_like), 2))


def random_instance(rng, max_points=6):
    n_pred = int(rng.integers(0, max_points + 1))
    n_truth = int(rng.integers(0, max_points + 1))
    pred = rng.uniform(0, 10, size=(n_pred, 2))
    truth = rng.uniform(0, 10, size=(n_truth, 2))
    return PointSet(pred), PointSet(truth)


class TestMatch:
    def test_identical_sets_all_matched(self):
        pts = points([(1.0, 1.0), (4.0, 5.0), (8.0, 2.0)])
        m = match(pts, pts, 1.0)
        assert (m.tp, m.fp, m.fn) == (3, 0, 0)

    def test_empty_prediction(self):
        truth = points([(1.0, 1.0), (4.0, 5.0)])
        m = match(PointSet.empty(), truth, 1.0)
        assert (m.tp, m.fp, m.fn) == (0, 0, 2)

    def test_injective_and_within_tolerance(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            pred, truth = random_instance(rng)
            tau = float(rng.uniform(0.5, 3.0))
            m = match(pred, truth, tau)
            pred_ids = [i for i, _ in m.pairs]
            truth_ids = [j for _, j in m.pairs]
            assert len(set(pred_ids)) == len(pred_ids)
            assert len(set(truth_ids)) == len(truth_ids)
            for i, j in m.pairs:
                d = np.hypot(*(pred.points[i] - truth.points[j]))
                assert d <= tau

    def test_greedy_bounded_by_exhaustive_optimum(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            pred, truth = random_instance(rng)
            tau = float(rng.uniform(0.5, 3.0))
            greedy_tp = match(pred, truth, tau).tp
            assert greedy_tp <= optimal_tp(pred.points, truth.points, tau)

    def test_equality_when_points_isolated(self):
        # Grid spacing 4*tau with jitter < tau/2 keeps every same-side
        # pair farther apart than 2*tau, where greedy is optimal.
        rng = np.random.default_rng(2)
        tau = 1.5
        for _ in range(50):
            k = int(rng.integers(1, 7))
            cells = rng.permutation(16)[:k]
            centres = np.column_stack([(cells % 4) * 4 * tau, (cells // 4) * 4 * tau]).astype(float)
            truth = centres + rng.uniform(-tau / 4, tau / 4, size=centres.shape)
            pred = centres + rng.uniform(-tau / 4, tau / 4, size=centres.shape)
            n_kept = int(rng.integers(0, k + 1))
            pred = pred[:n_kept]
            greedy_tp = match(PointSet(pred), PointSet(truth), tau).tp
            best = optimal_tp(pred, truth, tau)
            assert greedy_tp == best == n_kept

    def test_nonpositive_tau_rejected(self):
        pts = points([(1.0, 1.0)])
        for tau in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                match(pts, pts, tau)
            with pytest.raises(ValueError):
                fit_encoder([np.zeros((4, 4))], [PointSet.empty()], encoder_grid([0.5], [2.0]), tau)

    def test_tie_break_prefers_lower_pred_index(self):
        pred = points([(1.0, 2.0), (3.0, 2.0)])
        truth = points([(2.0, 2.0)])
        m = match(pred, truth, 1.5)
        assert m.pairs == ((0, 0),)


# Integer predictions, as the encoder makes them, and sub-pixel truths.
_pixel_points = st.lists(st.tuples(st.integers(0, 12).map(float), st.integers(0, 12).map(float)), max_size=8)
_subpixel_points = st.lists(
    st.tuples(
        st.one_of(st.floats(0, 12), st.integers(0, 24).map(lambda k: k / 2)),
        st.one_of(st.floats(0, 12), st.integers(0, 24).map(lambda k: k / 2)),
    ),
    max_size=8,
)
_taus = st.one_of(
    st.sampled_from([1.0, 2.0, 3.0, 5.0, math.nextafter(5.0, 0.0), math.nextafter(5.0, math.inf), math.sqrt(2.0)]),
    st.floats(0.1, 10),
)


class TestMatchAgainstReference:
    @settings(max_examples=100, deadline=None)
    @given(pred=st.one_of(_pixel_points, _subpixel_points), truth=_subpixel_points, tau=_taus)
    # Empty sides.
    @example(pred=[], truth=[], tau=2.0)
    @example(pred=[(1.0, 1.0)], truth=[], tau=2.0)
    @example(pred=[], truth=[(1.0, 1.0)], tau=2.0)
    # A 3-4-5 triangle exactly at tau, and one ulp either side.
    @example(pred=[(0.0, 0.0)], truth=[(3.0, 4.0)], tau=5.0)
    @example(pred=[(0.0, 0.0)], truth=[(3.0, 4.0)], tau=math.nextafter(5.0, 0.0))
    @example(pred=[(0.0, 0.0)], truth=[(3.0, 4.0)], tau=math.nextafter(5.0, math.inf))
    @example(pred=[(0.0, 0.0)], truth=[(3.0, math.nextafter(4.0, math.inf))], tau=5.0)
    # Equal-distance ties on both sides.
    @example(pred=[(1.0, 2.0), (3.0, 2.0)], truth=[(2.0, 2.0)], tau=1.5)
    @example(pred=[(2.0, 2.0)], truth=[(1.0, 2.0), (3.0, 2.0), (2.0, 1.0), (2.0, 3.0)], tau=1.0)
    @example(pred=[(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)], truth=[(1.0, 0.0), (0.0, 1.0), (2.0, 1.0)], tau=1.0)
    def test_equals_double_loop(self, pred, truth, tau):
        m = match(points(pred), points(truth), tau)
        assert (m.pairs, m.tp, m.fp, m.fn) == greedy_match_reference(pred, truth, tau)

    def test_tau_edge_of_a_3_4_5_triangle(self):
        pred, truth = points([(0.0, 0.0)]), points([(3.0, 4.0)])
        assert match(pred, truth, 5.0).pairs == ((0, 0),)
        assert match(pred, truth, math.nextafter(5.0, 0.0)).pairs == ()
        assert match(pred, truth, math.nextafter(5.0, math.inf)).pairs == ((0, 0),)


class TestDetectionLoss:
    def test_perfect_prediction(self):
        pts = points([(1.0, 1.0), (5.0, 5.0)])
        assert detection_loss(pts, pts, 1.0) == 0.0

    def test_both_empty_convention(self):
        assert detection_loss(PointSet.empty(), PointSet.empty(), 1.0) == 0.0

    def test_half_loss_case(self):
        pred = points([(0.0, 0.0), (9.0, 9.0)])
        truth = points([(0.0, 0.0), (5.0, 5.0)])
        assert detection_loss(pred, truth, 1.0) == 0.5

    def test_symmetric_emptiness(self):
        pts = points([(1.0, 1.0)])
        assert detection_loss(pts, PointSet.empty(), 1.0) == 1.0
        assert detection_loss(PointSet.empty(), pts, 1.0) == 1.0

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_loss_in_unit_range_and_permutation_invariant(self, data):
        coords = st.tuples(st.floats(0, 10), st.floats(0, 10))
        pred = data.draw(st.lists(coords, max_size=5))
        truth = data.draw(st.lists(coords, max_size=5))
        tau = data.draw(st.floats(0.1, 5))
        g = PointSet(np.asarray(pred).reshape(len(pred), 2))
        g_star = PointSet(np.asarray(truth).reshape(len(truth), 2))
        loss = detection_loss(g, g_star, tau)
        assert 0.0 <= loss <= 1.0
        shuffled = PointSet(g.points[::-1].copy())
        assert detection_loss(shuffled, g_star, tau) == loss


class TestReport:
    def test_single_perfect_sample(self):
        pts = points([(1.0, 1.0), (4.0, 4.0)])
        rep = report([pts], [pts], 1.0)
        assert rep.precision == rep.recall == rep.f1 == 1.0
        assert rep.loss == 0.0

    def test_duplication_leaves_micro_f1_unchanged(self):
        pred = points([(0.0, 0.0), (9.0, 9.0)])
        truth = points([(0.0, 0.0), (5.0, 5.0)])
        once = report([pred], [truth], 1.0)
        twice = report([pred, pred], [truth, truth], 1.0)
        assert once.f1 == twice.f1

    def test_micro_average_counts(self):
        # Counts (1,0,0) and (0,1,1) pool to TP=1, FP=1, FN=1 -> F1 = 0.5.
        a_pred = points([(1.0, 1.0)])
        a_truth = points([(1.0, 1.0)])
        b_pred = points([(8.0, 8.0)])
        b_truth = points([(1.0, 5.0)])
        rep = report([a_pred, b_pred], [a_truth, b_truth], 1.0)
        assert (rep.tp, rep.fp, rep.fn) == (1, 1, 1)
        assert rep.f1 == 0.5
        assert rep.loss == 0.5

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            report([PointSet.empty()], [], 1.0)

    def test_from_counts_is_the_report_of_those_counts(self):
        assert DetectionReport.from_counts(0, 0, 0, 2) == report([PointSet.empty()], [PointSet.empty()], 2.0)
        rep = DetectionReport.from_counts(1, 1, 1, 1.0)
        assert (rep.precision, rep.recall, rep.f1, rep.loss) == (0.5, 0.5, 0.5, 0.5)
        assert isinstance(DetectionReport.from_counts(0, 0, 0, 2).tau, float)

    def test_json_fields(self):
        rep = report([PointSet.empty()], [PointSet.empty()], 2.5)
        payload = rep.to_json_dict()
        assert set(payload) == {"precision", "recall", "f1", "loss", "tp", "fp", "fn", "tau"}
        assert payload["tau"] == 2.5
