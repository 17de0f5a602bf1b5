"""Ranking and segmentation metrics: AP / AmAP for salient detection,
IoU / mIoU for zero-shot segmentation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def average_precision(scores, labels) -> float:
    """Non-interpolated AP with tie grouping.

    Points are ranked by descending score; equal scores form one group and
    share the precision computed at the end of the group, so the result does
    not depend on how ties happen to be ordered.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-D arrays")
    n_pos = int(labels.sum())
    if n_pos == 0:
        raise ValueError("average precision needs at least one positive")

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order].astype(np.float64)
    starts = np.concatenate([[0], np.flatnonzero(np.diff(s)) + 1])
    group_pos = np.add.reduceat(y, starts)
    counts = np.diff(np.concatenate([starts, [len(s)]]))
    cum_pos = np.cumsum(group_pos)
    cum_n = np.cumsum(counts)
    precision_at = cum_pos / cum_n
    return float((group_pos * precision_at).sum() / n_pos)


@dataclass
class EvalReport:
    """Per-class APs and their mean, plus optional IoU numbers."""

    per_class_ap: dict = field(default_factory=dict)
    amap: float = float("nan")
    skipped_classes: list = field(default_factory=list)
    n_points: int = 0
    per_class_iou: dict | None = None
    miou: float | None = None
    class_names: dict | None = None

    def _name(self, class_id: int) -> str:
        if self.class_names and class_id in self.class_names:
            return self.class_names[class_id]
        return str(class_id)

    def as_kv_lines(self) -> list:
        lines = [f"amap {self.amap:.17g}", f"n_points {self.n_points}"]
        for c in sorted(self.per_class_ap):
            lines.append(f"ap.{self._name(c)} {self.per_class_ap[c]:.17g}")
        for c in self.skipped_classes:
            lines.append(f"skipped.{self._name(c)} absent_from_ground_truth")
        if self.miou is not None:
            lines.append(f"miou {self.miou:.17g}")
            for c in sorted(self.per_class_iou):
                lines.append(f"iou.{self._name(c)} {self.per_class_iou[c]:.17g}")
        return lines

    def as_text(self) -> str:
        rows = [f"{'class':<16} {'AP':>10}"]
        for c in sorted(self.per_class_ap):
            rows.append(f"{self._name(c):<16} {self.per_class_ap[c]:>10.4f}")
        for c in self.skipped_classes:
            rows.append(f"{self._name(c):<16} {'skipped':>10}")
        rows.append(f"{'AmAP':<16} {self.amap:>10.4f}")
        if self.miou is not None:
            rows.append(f"{'mIoU':<16} {self.miou:>10.4f}")
        rows.append(f"points evaluated: {self.n_points}")
        return "\n".join(rows) + "\n"


def evaluate_salient(
    probabilities: np.ndarray,
    gt_labels,
    foreground_classes,
    class_names: dict | None = None,
) -> EvalReport:
    """Per-class AP on the class-probability columns; AmAP is their mean.

    Classes absent from the ground truth are skipped and flagged instead of
    scored zero.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    gt_labels = np.asarray(gt_labels, dtype=np.int64)
    if probabilities.ndim != 2 or len(probabilities) != len(gt_labels):
        raise ValueError("probabilities must be (N, C) matching gt length")
    report = EvalReport(n_points=len(gt_labels), class_names=class_names)
    for c in foreground_classes:
        c = int(c)
        if not 0 <= c < probabilities.shape[1]:
            raise ValueError(f"no probability column for class {c}")
        positives = gt_labels == c
        if not positives.any():
            report.skipped_classes.append(c)
            continue
        report.per_class_ap[c] = average_precision(probabilities[:, c], positives)
    if not report.per_class_ap:
        raise ValueError("no foreground class present in the ground truth")
    report.amap = float(np.mean(list(report.per_class_ap.values())))
    return report


def mean_iou(pred_labels, gt_labels, classes) -> tuple[dict, float]:
    """Intersection over union per class; mIoU over classes present in
    either prediction or ground truth."""
    pred = np.asarray(pred_labels, dtype=np.int64)
    gt = np.asarray(gt_labels, dtype=np.int64)
    if pred.shape != gt.shape or pred.ndim != 1:
        raise ValueError("pred and gt must be equal-length 1-D arrays")
    per_class = {}
    for c in classes:
        c = int(c)
        p = pred == c
        g = gt == c
        union = int((p | g).sum())
        if union == 0:
            continue
        per_class[c] = float((p & g).sum() / union)
    miou = float(np.mean(list(per_class.values()))) if per_class else float("nan")
    return per_class, miou
