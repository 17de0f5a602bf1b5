"""AP / AmAP / mIoU against hand computations and brute-force oracles."""

import itertools

import numpy as np
import pytest

from scenehull.metrics import (
    average_precision,
    evaluate_salient,
    mean_iou,
)


def ap_naive_tie_groups(scores, labels):
    """Oracle: tie-grouped AP straight from the definition, scalar loops only.

    Sort by descending score; items with equal scores form one group sharing
    the precision computed at the end of the group; each positive contributes
    that shared precision; divide by the number of positives.
    """
    pairs = sorted(zip(scores, labels), key=lambda t: -t[0])
    groups = []
    for s, y in pairs:
        if groups and groups[-1][0] == s:
            groups[-1][1].append(y)
        else:
            groups.append((s, [y]))
    seen = 0
    tp = 0
    total = 0.0
    for _, ys in groups:
        seen += len(ys)
        tp += sum(ys)
        total += sum(ys) * (tp / seen)
    return total / sum(labels)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_hand_computed_interleaved(self):
        ap = average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-9)
        assert ap == pytest.approx(0.833333, abs=1e-6)

    def test_all_tied_equals_positive_fraction(self):
        labels = [1, 0, 1, 0, 1, 0]
        ap = average_precision([0.5] * 6, labels)
        assert ap == pytest.approx(0.5, abs=1e-12)

    def test_ties_match_naive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            scores = rng.integers(0, 3, n).astype(float)  # forces ties
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[0] = 1
            got = average_precision(scores, labels)
            want = ap_naive_tie_groups(list(scores), list(labels))
            assert got == pytest.approx(want, abs=1e-12)

    def test_permutation_invariant_under_ties(self):
        # shuffling tied items must not change the metric
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = 6
            scores = rng.integers(0, 2, n).astype(float)
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[0] = 1
            values = {
                round(average_precision(scores[list(p)], labels[list(p)]), 12)
                for p in itertools.permutations(range(n))
            }
            assert len(values) == 1

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(5, 40))
            scores = rng.normal(size=n)
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[int(rng.integers(n))] = 1
            base = average_precision(scores, labels)
            for f in (lambda s: 3.0 * s + 7.0, np.tanh, lambda s: np.exp(0.5 * s)):
                assert average_precision(f(scores), labels) == pytest.approx(base, abs=1e-12)

    def test_reversed_ranking_not_better(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            n = int(rng.integers(4, 20))
            labels = rng.integers(0, 2, n)
            if labels.sum() == 0:
                labels[0] = 1
            perfect = np.where(labels, 1.0, 0.0) + rng.random(n) * 0.01
            assert average_precision(-perfect, labels) <= average_precision(perfect, labels)

    def test_no_positives_rejected(self):
        with pytest.raises(ValueError):
            average_precision([0.1, 0.2], [0, 0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            average_precision([0.1], [0, 1])


class TestEvaluateSalient:
    def test_one_hot_probabilities_perfect(self):
        gt = np.array([0, 1, 2, 1, 0])
        probs = np.eye(3)[gt]
        report = evaluate_salient(probs, gt, [0, 1, 2])
        assert report.amap == 1.0
        assert all(v == 1.0 for v in report.per_class_ap.values())

    def test_uniform_probabilities_positive_fraction(self):
        gt = np.array([0, 0, 1, 1, 1, 2])
        probs = np.full((6, 3), 1.0 / 3.0)
        report = evaluate_salient(probs, gt, [0, 1, 2])
        assert report.per_class_ap[0] == pytest.approx(2.0 / 6.0, abs=1e-12)
        assert report.per_class_ap[1] == pytest.approx(3.0 / 6.0, abs=1e-12)
        assert report.per_class_ap[2] == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_single_present_class(self):
        gt = np.zeros(4, dtype=int)
        probs = np.random.default_rng(3).dirichlet(np.ones(3), size=4)
        report = evaluate_salient(probs, gt, [0])
        assert report.amap == report.per_class_ap[0]

    def test_absent_class_skipped_and_flagged(self):
        gt = np.array([0, 0, 1])
        probs = np.full((3, 3), 1.0 / 3.0)
        report = evaluate_salient(probs, gt, [0, 1, 2])
        assert report.skipped_classes == [2]
        assert 2 not in report.per_class_ap
        assert report.amap == pytest.approx(
            np.mean([report.per_class_ap[0], report.per_class_ap[1]]))

    def test_amap_is_mean_of_reported(self):
        rng = np.random.default_rng(4)
        gt = rng.integers(0, 4, 100)
        probs = rng.dirichlet(np.ones(4), size=100)
        report = evaluate_salient(probs, gt, [0, 1, 2, 3])
        assert report.amap == pytest.approx(np.mean(list(report.per_class_ap.values())))

    def test_missing_column_rejected(self):
        with pytest.raises(ValueError):
            evaluate_salient(np.ones((2, 2)), np.array([0, 1]), [5])


def iou_confusion_oracle(pred, gt, classes):
    """Oracle: build the full confusion matrix, read IoU off it."""
    classes = list(classes)
    k = max(max(pred), max(gt), max(classes)) + 1
    conf = np.zeros((k, k), dtype=int)
    for p, g in zip(pred, gt):
        conf[p, g] += 1
    out = {}
    for c in classes:
        tp = conf[c, c]
        fp = conf[c, :].sum() - tp
        fn = conf[:, c].sum() - tp
        if tp + fp + fn > 0:
            out[c] = tp / (tp + fp + fn)
    return out


class TestMeanIoU:
    def test_perfect(self):
        gt = np.array([0, 1, 2, 1])
        per, miou = mean_iou(gt, gt, [0, 1, 2])
        assert miou == 1.0

    def test_disjoint_class_zero(self):
        per, _ = mean_iou(np.array([0, 0]), np.array([1, 1]), [0, 1])
        assert per[0] == 0.0 and per[1] == 0.0

    def test_hand_counted(self):
        per, miou = mean_iou(np.array([0, 0, 1, 1]), np.array([0, 1, 1, 1]), [0, 1])
        assert per[0] == pytest.approx(0.5)
        assert per[1] == pytest.approx(2.0 / 3.0)
        assert miou == pytest.approx(7.0 / 12.0)

    def test_matches_confusion_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            n = int(rng.integers(5, 60))
            k = int(rng.integers(2, 6))
            pred = rng.integers(0, k, n)
            gt = rng.integers(0, k, n)
            per, miou = mean_iou(pred, gt, range(k))
            want = iou_confusion_oracle(pred, gt, range(k))
            assert set(per) == set(want)
            for c in per:
                assert per[c] == pytest.approx(want[c], abs=1e-12)

    def test_class_absent_everywhere_excluded(self):
        per, miou = mean_iou(np.array([0, 0]), np.array([0, 0]), [0, 7])
        assert 7 not in per
        assert miou == 1.0


class TestReportFormats:
    def test_kv_and_text(self):
        gt = np.array([0, 1, 0, 1])
        probs = np.eye(2)[gt]
        report = evaluate_salient(probs, gt, [0, 1],
                                  class_names={0: "sphere", 1: "box"})
        kv = report.as_kv_lines()
        assert any(line.startswith("amap 1") for line in kv)
        assert any(line.startswith("ap.sphere") for line in kv)
        text = report.as_text()
        assert "AmAP" in text and "sphere" in text
