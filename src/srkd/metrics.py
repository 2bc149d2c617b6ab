"""Confusion-matrix segmentation metrics: per-class IoU, mIoU, mAcc, allAcc.

mIoU and mAcc average only over classes present in the ground truth;
IGNORE points never enter the confusion matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cloud import IGNORE_LABEL
from .errors import DataError


@dataclass(frozen=True)
class Metrics:
    confusion: np.ndarray   # (C, C); rows = ground truth, cols = prediction
    iou: np.ndarray         # (C,), NaN where the class is absent from GT
    miou: float
    macc: float
    allacc: float

    def as_row(self) -> dict:
        return {"miou": self.miou, "macc": self.macc, "allacc": self.allacc}


def confusion_matrix(labels: np.ndarray, preds: np.ndarray, n_classes: int,
                     mask: np.ndarray | None = None) -> np.ndarray:
    labels = np.asarray(labels)
    preds = np.asarray(preds)
    if labels.shape != preds.shape:
        raise DataError("labels and predictions must have the same shape")
    valid = labels != IGNORE_LABEL
    if mask is not None:
        valid &= np.asarray(mask, dtype=bool)
    lab = labels[valid]
    pred = preds[valid]
    if any(np.any((a < 0) | (a >= n_classes)) for a in (lab, pred)):
        raise DataError("class index out of range for the confusion matrix")
    flat = lab * n_classes + pred
    return np.bincount(flat, minlength=n_classes * n_classes) \
        .reshape(n_classes, n_classes).astype(np.int64)


def metrics_from_confusion(confusion: np.ndarray) -> Metrics:
    confusion = np.asarray(confusion, dtype=np.int64)
    total = confusion.sum()
    if total == 0:
        raise DataError("empty confusion matrix")
    tp = np.diag(confusion).astype(np.float64)
    gt = confusion.sum(axis=1).astype(np.float64)      # TP + FN
    pred = confusion.sum(axis=0).astype(np.float64)    # TP + FP
    present = gt > 0
    union = gt + pred - tp
    iou = np.full(confusion.shape[0], np.nan)
    iou[present] = tp[present] / union[present]
    recall = tp[present] / gt[present]
    return Metrics(confusion=confusion, iou=iou,
                   miou=float(iou[present].mean()),
                   macc=float(recall.mean()),
                   allacc=float(tp.sum() / total))
