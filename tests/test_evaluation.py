"""Tests for metrics, baselines, residual groupings, and influence tables."""

import numpy as np
import pytest

from graphmarkov.data import NormStats, prepare_datasets
from graphmarkov.evaluation import (
    InfluenceTable,
    MetricsReport,
    evaluate,
    format_influence,
    format_metrics,
    influence_scores,
    metrics,
    persistence_baseline,
    predict,
    residual_summary,
    write_influence_csv,
    write_metrics_csv,
    write_residual_csv,
)
from graphmarkov.graph import build_graph
from graphmarkov.models import init_gmn, init_sgmn
from graphmarkov.simulate import random_transition, simulate_gmp
from graphmarkov.training import TrainConfig, train

from oracles import complete_dataset, masked_params, windows_dataset

IDENTITY_STATS = NormStats(vmin=0.0, vmax=1.0)


def path_graph(size):
    a = np.zeros((size, size))
    for i in range(size - 1):
        a[i, i + 1] = a[i + 1, i] = 1.0
    return build_graph(a)


class TestMetricsReport:
    def test_rejects_zero_count(self):
        with pytest.raises(ValueError, match="at least one"):
            MetricsReport(mae=1, rmse=1, mape=1, evaluated_count=0, excluded_zero_truth_count=0)

    def test_rejects_negative_metric(self):
        with pytest.raises(ValueError, match="negative"):
            MetricsReport(mae=-1, rmse=1, mape=1, evaluated_count=1, excluded_zero_truth_count=0)

    def test_rejects_nonfinite_metric(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                MetricsReport(mae=bad, rmse=bad, mape=bad, evaluated_count=1, excluded_zero_truth_count=0)
            with pytest.raises(ValueError, match="finite"):
                MetricsReport(mae=1.0, rmse=1.0, mape=bad, evaluated_count=1, excluded_zero_truth_count=0)

    def test_rejects_mae_above_rmse(self):
        with pytest.raises(ValueError, match="exceeds"):
            MetricsReport(mae=2.0, rmse=1.0, mape=0.0, evaluated_count=1, excluded_zero_truth_count=0)


class TestMetrics:
    def test_perfect_prediction(self):
        truth = np.array([[50.0, 60.0]])
        r = metrics(truth, truth, np.ones((1, 2)), IDENTITY_STATS)
        assert (r.mae, r.rmse, r.mape) == (0.0, 0.0, 0.0)

    def test_hand_values(self):
        truth = np.array([[60.0, 30.0]])
        pred = np.array([[63.0, 27.0]])
        r = metrics(pred, truth, np.ones((1, 2)), IDENTITY_STATS)
        assert r.mae == 3.0
        assert r.rmse == 3.0
        np.testing.assert_allclose(r.mape, 7.5, rtol=1e-12)
        assert r.evaluated_count == 2
        assert r.excluded_zero_truth_count == 0

    def test_zero_truth_excluded_from_mape(self):
        truth = np.array([[60.0, 0.0]])
        pred = np.array([[63.0, 2.0]])
        r = metrics(pred, truth, np.ones((1, 2)), IDENTITY_STATS)
        np.testing.assert_allclose(r.mape, 5.0, rtol=1e-12)
        assert r.excluded_zero_truth_count == 1
        assert r.evaluated_count == 2

    def test_masked_entries_ignored(self):
        truth = np.array([[60.0, 999.0]])
        pred = np.array([[63.0, 0.0]])
        r = metrics(pred, truth, np.array([[1.0, 0.0]]), IDENTITY_STATS)
        assert r.mae == 3.0
        assert r.evaluated_count == 1

    def test_denormalization_applied(self):
        stats = NormStats(vmin=10.0, vmax=110.0)
        truth = np.array([[0.5]])  # 60 in original units
        pred = np.array([[0.53]])  # 63
        r = metrics(pred, truth, np.ones((1, 1)), stats)
        np.testing.assert_allclose(r.mae, 3.0, rtol=1e-12)

    def test_scale_consistency(self):
        """Absolute-error metrics transform by the span: normalized-space
        MAE/RMSE times (max - min) equals the reported values."""
        rng = np.random.default_rng(1)
        stats = NormStats(vmin=3.0, vmax=88.0)
        truth = rng.random((20, 6))
        pred = truth + rng.standard_normal((20, 6)) * 0.05
        mask = (rng.random((20, 6)) < 0.8).astype(float)
        mask[0, 0] = 1.0
        r = metrics(pred, truth, mask, stats)
        sel = mask == 1.0
        err = (pred - truth)[sel]
        np.testing.assert_allclose(np.abs(err).mean() * stats.span, r.mae, atol=1e-10)
        np.testing.assert_allclose(
            np.sqrt((err**2).mean()) * stats.span, r.rmse, atol=1e-10
        )

    def test_mae_never_exceeds_rmse(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            truth = rng.random((8, 4)) * 50 + 5
            pred = truth + rng.standard_normal((8, 4))
            mask = (rng.random((8, 4)) < 0.7).astype(float)
            if not mask.any():
                continue
            r = metrics(pred, truth, mask, IDENTITY_STATS)
            assert r.mae <= r.rmse * (1 + 1e-12)

    def test_rejects_no_evaluable_entries(self):
        with pytest.raises(ValueError, match="no evaluable"):
            metrics(np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2)), IDENTITY_STATS)


class TestEvaluate:
    def test_fixed_point_of_undamped_identity(self):
        """A constant fully observed sequence is a fixed point of the
        undamped warm-start model, so its error is exactly zero."""
        g = path_graph(3)
        params = init_gmn(g, n=2, gamma=1.0)
        x = np.full(3, 0.6)
        samples = complete_dataset(np.tile(x, (4, 2, 1)), labels=np.tile(x, (4, 1)))
        r = evaluate(params, samples, NormStats(vmin=0.0, vmax=70.0))
        assert r.mae == 0.0

    def test_trained_model_beats_baseline(self):
        g = path_graph(6)
        spec = random_transition(g, 3, gamma=0.9, noise_std=0.01)
        series = simulate_gmp(g, spec, steps=400, seed=4)
        bundle = prepare_datasets(series, n=1, missing_rate=0.2, seed=5)
        params = init_gmn(g, n=1, gamma=0.9)
        cfg = TrainConfig(batch_size=32, seed=1, max_epochs=30)
        trained, _ = train(params, bundle.train, bundle.val, cfg)
        model = evaluate(trained, bundle.test, bundle.stats)
        base = persistence_baseline(bundle.test, bundle.stats)
        assert model.mae < base.mae

    def test_rejects_empty(self):
        g = path_graph(3)
        params = init_gmn(g, n=1, gamma=0.9)
        data = complete_dataset(np.ones((2, 1, 3)))
        with pytest.raises(ValueError, match="empty"):
            evaluate(params, data[np.array([], dtype=int)], IDENTITY_STATS)

    def test_predict_chunking_consistent(self):
        g = path_graph(4)
        params = init_gmn(g, n=2, gamma=0.9)
        rng = np.random.default_rng(6)
        samples = complete_dataset(rng.random((7, 2, 4)), labels=rng.random((7, 4)))
        whole = params.predict(samples)
        np.testing.assert_array_equal(predict(params, samples), whole)


class TestPersistenceBaseline:
    def test_fully_observed_carries_newest(self):
        s = complete_dataset([[[0.1, 0.2], [0.3, 0.4]]], labels=[[0.0, 0.0]])
        np.testing.assert_array_equal(s.value, [[0.3, 0.4]])

    def test_missing_newest_falls_back(self):
        s = windows_dataset(
            [[[0.1, 0.2], [0.3, 0.0]]], [[[1.0, 1.0], [1.0, 0.0]]], np.zeros((1, 2)), np.ones((1, 2))
        )
        np.testing.assert_array_equal(s.value, [[0.3, 0.2]])

    def test_total_gap_predicts_zero(self):
        s = windows_dataset(np.zeros((1, 3, 2)), np.zeros((1, 3, 2)), np.ones((1, 2)), np.ones((1, 2)))
        np.testing.assert_array_equal(s.value, [[0.0, 0.0]])

    def test_matches_undamped_identity_model(self):
        """On fully observed windows the baseline is the n=1, undamped,
        identity-weight model."""
        g = path_graph(5)
        params = init_gmn(g, n=1, gamma=1.0)
        rng = np.random.default_rng(8)
        samples = complete_dataset(rng.random((6, 1, 5)), labels=rng.random((6, 5)))
        stats = NormStats(vmin=2.0, vmax=66.0)
        base = persistence_baseline(samples, stats)
        model = evaluate(params, samples, stats)
        np.testing.assert_allclose(base.mae, model.mae, atol=1e-10)
        np.testing.assert_allclose(base.rmse, model.rmse, atol=1e-10)


class TestResidualSummary:
    def test_perfect_prediction_all_zero(self):
        pred = np.random.default_rng(0).random((12, 3))
        ts = np.arange(12) * 300.0
        summary = residual_summary(pred, pred, np.ones((12, 3)), ts, "hour", IDENTITY_STATS)
        assert summary.total == 36
        present = summary.counts > 0
        np.testing.assert_array_equal(summary.means[present], 0.0)
        np.testing.assert_array_equal(summary.stds[present], 0.0)

    def test_single_hour_equals_global_stats(self):
        rng = np.random.default_rng(1)
        pred = rng.random((12, 2))
        truth = pred + rng.standard_normal((12, 2)) * 0.1
        ts = np.arange(12) * 300.0  # all within hour 0
        summary = residual_summary(pred, truth, np.ones((12, 2)), ts, "hour", IDENTITY_STATS)
        residuals = (truth - pred).ravel()
        assert summary.counts[0] == 24
        assert summary.counts[1:].sum() == 0
        np.testing.assert_allclose(summary.means[0], residuals.mean(), atol=1e-12)
        np.testing.assert_allclose(summary.stds[0], residuals.std(), atol=1e-12)
        np.testing.assert_allclose(summary.q50[0], np.median(residuals), atol=1e-12)

    def test_weekday_of_epoch_is_thursday(self):
        pred = np.zeros((2, 1))
        ts = np.array([0.0, 300.0])
        summary = residual_summary(pred, pred, np.ones((2, 1)), ts, "weekday", IDENTITY_STATS)
        assert summary.counts[3] == 2  # Monday=0, so Thursday is 3
        assert summary.total == 2

    def test_counts_sum_to_masked_total(self):
        rng = np.random.default_rng(3)
        pred = rng.random((50, 4))
        truth = rng.random((50, 4))
        mask = (rng.random((50, 4)) < 0.6).astype(float)
        ts = np.arange(50) * 300.0
        summary = residual_summary(pred, truth, mask, ts, "hour", IDENTITY_STATS)
        assert summary.total == int(mask.sum())

    def test_unbiased_errors_have_small_group_means(self):
        rng = np.random.default_rng(4)
        rows = 24 * 12 * 3  # three days of 5-minute steps
        pred = rng.random((rows, 5))
        noise = rng.standard_normal((rows, 5)) * 0.2
        ts = np.arange(rows) * 300.0
        summary = residual_summary(pred, pred + noise, np.ones((rows, 5)), ts, "hour", IDENTITY_STATS)
        for k in range(24):
            bound = 3 * 0.2 / np.sqrt(summary.counts[k])
            assert abs(summary.means[k]) < bound

    def test_rejects_misaligned_timestamps(self):
        with pytest.raises(ValueError, match="timestamp"):
            residual_summary(
                np.ones((3, 2)), np.ones((3, 2)), np.ones((3, 2)),
                np.arange(4) * 300.0, "hour", IDENTITY_STATS,
            )

    def test_rejects_unknown_grouping(self):
        with pytest.raises(ValueError, match="grouping"):
            residual_summary(
                np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)),
                np.arange(2) * 300.0, "month", IDENTITY_STATS,
            )


class TestInfluenceScores:
    def test_identity_weight_uniform_scores(self):
        params = init_gmn(path_graph(3), n=1, gamma=0.9)
        table = influence_scores(params, step=1, mode="row")
        np.testing.assert_allclose(table.scores, [1 / 3, 1 / 3, 1 / 3])
        np.testing.assert_array_equal(table.ranks, [1, 2, 3])

    def test_zero_weights_zero_scores(self):
        params = init_gmn(path_graph(4), n=2, gamma=0.9)
        table = influence_scores(params, step=2, mode="row")
        np.testing.assert_array_equal(table.scores, 0.0)

    def test_spectral_unit_gains_uniform(self):
        params = init_sgmn(path_graph(5), n=1, gamma=0.9)
        table = influence_scores(params, step=1, mode="row")
        np.testing.assert_allclose(table.scores, 0.2, atol=1e-10)

    def test_score_sum_is_frobenius_norm(self):
        rng = np.random.default_rng(5)
        g = path_graph(6)
        params = masked_params(
            init_gmn(g, n=2, gamma=0.9), [rng.standard_normal((6, 6)) for _ in range(2)]
        )
        for mode in ("row", "column"):
            table = influence_scores(params, step=2, mode=mode)
            h = params.weights[1]
            np.testing.assert_allclose(
                table.scores.sum() * 6, (h**2).sum(), atol=1e-10
            )

    def test_ranks_descend_with_ties_by_index(self):
        g = path_graph(4)
        params = init_gmn(g, n=1, gamma=0.9)
        w = np.diag([2.0, 5.0, 2.0, 1.0])
        params = masked_params(params, [w])
        table = influence_scores(params, step=1, mode="row")
        np.testing.assert_array_equal(table.ranks, [2, 1, 3, 4])

    def test_rejects_bad_step_or_mode(self):
        params = init_gmn(path_graph(3), n=2, gamma=0.9)
        with pytest.raises(ValueError, match="outside"):
            influence_scores(params, step=3)
        with pytest.raises(ValueError, match="mode"):
            influence_scores(params, step=1, mode="diag")


class TestWriters:
    def report(self):
        return MetricsReport(mae=1.5, rmse=2.0, mape=12.5, evaluated_count=100, excluded_zero_truth_count=3)

    def test_metrics_csv(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(path, {"model": self.report(), "baseline": self.report()})
        lines = path.read_text().splitlines()
        assert lines[0] == "which,mae,rmse,mape,evaluated_count,excluded_zero_truth_count"
        assert len(lines) == 3
        assert lines[1].startswith("model,1.5,2,12.5,100,3")

    def test_residual_csv_has_all_hour_rows(self, tmp_path):
        pred = np.zeros((12, 2))
        ts = np.arange(12) * 300.0
        summary = residual_summary(pred, pred, np.ones((12, 2)), ts, "hour", IDENTITY_STATS)
        path = tmp_path / "res.csv"
        write_residual_csv(path, summary)
        lines = path.read_text().splitlines()
        assert len(lines) == 25  # header + 24 groups
        assert lines[1].startswith("0,24,")
        assert lines[2] == "1,0,,,,,"  # key, zero count, five blank stats

    def test_influence_csv_top_truncation(self, tmp_path):
        params = init_gmn(path_graph(5), n=1, gamma=0.9)
        table = influence_scores(params, step=1)
        path = tmp_path / "inf.csv"
        write_influence_csv(path, table, top=2)
        lines = path.read_text().splitlines()
        assert lines[0] == "rank,vertex,score"
        assert len(lines) == 3
        assert lines[1].startswith("1,0,")

    def test_formatters_return_tables(self):
        text = format_metrics({"model": self.report()})
        assert "MAE" in text and "model" in text
        table = influence_scores(init_gmn(path_graph(3), n=1, gamma=0.9), step=1)
        text = format_influence(table, top=2)
        assert len(text.splitlines()) == 3
