"""Per-layer spans for the SRKD benchmark, recorded from outside the package.

The tracer replaces a layer entry point *where its caller looks it up*
(a module global or a class attribute) with a wrapper that times the call,
counts it, and subtracts the spans of wrapped children to get self time.
Everything is restored when the `installed` block ends, so untraced calls
run the original functions with no wrapper in the way.

Besides spans, a few observers read call arguments and return values to
count work that can be wasted (repeated k-NN inputs, supervoxel candidates
built but never sampled) and the bytes the batch-GD kernel touches. The
first call of each loss term is captured with its student inputs rebuilt
as leaf Tensors, so each term's backward can be timed alone afterwards.
"""

from __future__ import annotations

import hashlib
import time
from contextlib import contextmanager
from dataclasses import replace

from srkd import autodiff, cloud, losses, models, optim, trainer
from srkd.autodiff import Tensor
from srkd.losses import SupervoxelFeatures

# (owner, attribute, span name). An entry point bound under two names is
# wrapped at both, under one span name.
SETUP_TARGETS = (
    (cloud, "generate_scene", "cloud.generate_scene"),
    (trainer, "train_teacher", "trainer.train_teacher"),
)
LAYER_TARGETS = (
    (trainer, "evaluate", "trainer.evaluate"),
    (trainer, "knn_indices", "models.knn_indices"),
    (models, "knn_indices", "models.knn_indices"),
    (models.SegModel, "forward", "models.SegModel.forward"),
    (autodiff.Tensor, "backward", "autodiff.Tensor.backward"),
    (trainer, "build_supervoxels", "voxelize.build_supervoxels"),
    (trainer, "sample_supervoxels", "voxelize.sample_supervoxels"),
    (losses, "loss_task", "losses.loss_task"),
    (losses, "loss_kd", "losses.loss_kd"),
    (losses, "supervoxel_features", "losses.supervoxel_features"),
    (losses, "loss_amra_point", "losses.loss_amra_point"),
    (losses, "loss_amra_voxel", "losses.loss_amra_voxel"),
    (losses, "loss_amra_channel", "losses.loss_amra_channel"),
    (losses, "loss_batch_gd", "losses.loss_batch_gd"),
    (losses, "gd_teacher_log_z", "losses.gd_teacher_log_z"),
    (optim.AdamW, "step", "optim.AdamW.step"),
    (trainer, "confusion_matrix", "metrics.confusion_matrix"),
    (trainer, "resample_fixed", "cloud.resample_fixed"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SETUP_TARGETS + LAYER_TARGETS))
# Loss terms whose backward is timed alone on one captured batch.
BACKWARD_TERMS = ("losses.loss_task", "losses.loss_kd", "losses.loss_amra_point",
                  "losses.loss_amra_voxel", "losses.loss_amra_channel",
                  "losses.loss_batch_gd")


def _leaf(x):
    """Copy of a loss argument with every grad-carrying Tensor made a leaf."""
    if isinstance(x, Tensor):
        return Tensor(x.data.copy(), requires_grad=x.requires_grad)
    if isinstance(x, SupervoxelFeatures):
        return replace(x, point_features=_leaf(x.point_features),
                       voxel_features=_leaf(x.voxel_features))
    if isinstance(x, (list, tuple)):
        return type(x)(_leaf(e) for e in x)
    return x


class Tracer:
    def __init__(self):
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self._stack: list[float] = []     # child time of each open span
        self._knn_inputs: set[bytes] = set()
        self._built: dict[int, object] = {}  # id -> candidate, kept alive
        self._sampled: set[int] = set()
        self._zero_weight = 0
        self._gram_bytes = 0
        self._captured: dict[str, tuple] = {}
        self._observers = {
            "models.knn_indices": self._observe_knn,
            "voxelize.build_supervoxels": self._observe_build,
            "voxelize.sample_supervoxels": self._observe_sample,
            "losses.loss_batch_gd": self._observe_batch_gd,
        }

    @contextmanager
    def installed(self, targets):
        saved = []
        try:
            for owner, attr, name in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def _wrap(self, name, fn):
        observe = self._observers.get(name)
        capture = name in BACKWARD_TERMS

        def traced(*args, **kwargs):
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._stack.pop()
                self.calls[name] += 1
                if self._stack:
                    self._stack[-1] += elapsed
            if observe or capture:
                # bookkeeping is charged to no span, only to the overhead
                start = time.perf_counter()
                if observe:
                    observe(args, out)
                if capture and name not in self._captured:
                    self._captured[name] = (fn, _leaf(args), _leaf(kwargs))
                if self._stack:
                    self._stack[-1] += time.perf_counter() - start
            return out

        return traced

    # -- observers -------------------------------------------------------------

    def _observe_knn(self, args, out):
        positions, mask, k = args
        key = hashlib.blake2b(positions.tobytes() + mask.tobytes()
                              + int(k).to_bytes(8, "little")).digest()
        self._knn_inputs.add(key)

    def _observe_build(self, args, out):
        for sv in out:
            self._built[id(sv)] = sv
            self._zero_weight += sv.weight == 0

    def _observe_sample(self, args, out):
        self._sampled.update(id(sv) for sv in out if id(sv) in self._built)

    def _observe_batch_gd(self, args, out):
        b, n = len(args[0]), args[0][0].shape[0]
        # four float64 (B*N, B*N) buffers: student and teacher grams, exp, scratch
        self._gram_bytes = max(self._gram_bytes, 4 * (b * n) ** 2 * 8)

    # -- results ---------------------------------------------------------------

    def backward_seconds(self) -> dict[str, float]:
        """Wall time of `.backward()` of each captured loss term, alone."""
        out = dict.fromkeys(BACKWARD_TERMS, 0.0)
        for name, (fn, args, kwargs) in self._captured.items():
            loss = fn(*args, **kwargs)
            start = time.perf_counter()
            loss.backward()
            out[name] = time.perf_counter() - start
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; call after the `installed` blocks have ended."""
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.s"] = self.self_s[name]
            out[f"{name}.calls"] = self.calls[name]
        for name, seconds in self.backward_seconds().items():
            out[f"{name}.bwd_s"] = seconds
        knn_calls = self.calls["models.knn_indices"]
        built = len(self._built)
        out["models.knn_indices.distinct_ratio"] = \
            len(self._knn_inputs) / knn_calls if knn_calls else 0.0
        out["voxelize.candidates"] = built
        out["voxelize.zero_weight_share"] = self._zero_weight / built if built else 0.0
        out["voxelize.sampled_ratio"] = len(self._sampled) / built if built else 0.0
        out["losses.loss_batch_gd.gram_bytes"] = self._gram_bytes
        return out
