"""The benchmark's tracer still fits the package.

`bench/tracer.py` wraps each layer entry point where its caller looks it up
(`owner.__dict__`) and rebuilds captured supervoxel views with leaf
Tensors. A refactor that moves or renames one of them breaks the traced
benchmark run; these tests make it fail the default test suite instead.
"""

import dataclasses
import importlib.util
from pathlib import Path

import numpy as np

from srkd.autodiff import Tensor
from srkd.losses import SupervoxelFeatures

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_through_its_owner():
    tracer = _load_tracer()
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in tracer.SETUP_TARGETS + tracer.LAYER_TARGETS
               if attr not in owner.__dict__]
    assert not missing, f"tracer targets not found: {missing}"


def test_leaf_rebuilds_supervoxel_views():
    fields = {f.name for f in dataclasses.fields(SupervoxelFeatures)}
    assert {"point_features", "voxel_features"} <= fields
    source = Tensor(np.arange(6.0).reshape(3, 2), requires_grad=True)
    pf, vf = source * 2.0, source * 3.0
    view = SupervoxelFeatures(pf, vf, np.ones(3, bool), np.ones(3, bool), 1.0)
    leaf = _load_tracer()._leaf([view])[0]
    for old, new in ((pf, leaf.point_features), (vf, leaf.voxel_features)):
        assert new is not old and not new._edges and new.requires_grad
        assert np.array_equal(new.data, old.data)
