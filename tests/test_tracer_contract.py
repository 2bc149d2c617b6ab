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

from srkd import trainer
from srkd.autodiff import Tensor, segment_mean
from srkd.cloud import SceneSpec, generate_scene, resample_fixed
from srkd.losses import LossWeights, SupervoxelFeatures
from srkd.models import knn_indices, make_student_from_teacher, make_teacher
from srkd.voxelize import (SamplerConfig, batch_label_histogram,
                           build_supervoxels, sample_supervoxels)
from tape_ops import tmul

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
    # two supervoxels of three point rows and one voxel row each, stacked
    source = Tensor(np.arange(12.0).reshape(6, 2), requires_grad=True)
    pf = tmul(source, 2.0)
    vf = segment_mean([source], [0, 1, 2, 3], [0, 2], [0, 1], 2)
    view = SupervoxelFeatures(pf, vf, np.ones((2, 3), bool), np.ones((2, 1), bool),
                              np.array([0.5, 1.0]))
    leaf = _load_tracer()._leaf([view])[0]
    for old, new in ((pf, leaf.point_features), (vf, leaf.voxel_features)):
        assert new is not old and not new._edges and new.requires_grad
        assert np.array_equal(new.data, old.data)
    assert leaf.point_mask is view.point_mask and leaf.weight is view.weight


def test_traced_objective_pools_once_per_map_list():
    """A traced step makes three pooling calls (student, teacher, projected
    student), and the captured AMRA inputs replay their backward alone."""
    tracer_module = _load_tracer()
    spec = SceneSpec(n_scenes=2, points_per_scene=192, seed=0)
    clouds = [generate_scene(spec, i) for i in range(2)]
    samples = [resample_fixed(c, 128, seed=i) for i, c in enumerate(clouds)]
    nbrs = [knn_indices(s.cloud.positions, s.mask, 4) for s in samples]
    sampler = SamplerConfig(k=2, n_point=16, n_voxel=4)
    hist = batch_label_histogram(samples, spec.n_classes)
    grid = trainer.grid_for_clouds(clouds)
    chosen = [sample_supervoxels(build_supervoxels(s, grid, sampler, hist, seed=i),
                                 sampler.k, seed=i) for i, s in enumerate(samples)]
    teacher = make_teacher(clouds[0].d_in, spec.n_classes, d_out=12, k=4,
                           seed=1).freeze()
    student = make_student_from_teacher(teacher, seed=2)
    w = LossWeights()
    tracer = tracer_module.Tracer()
    with tracer.installed(tracer_module.LAYER_TARGETS):
        comps = trainer.distill_objective(
            student, trainer.make_batch(samples, nbrs, teacher, w), chosen, w)
        comps["l_total"].backward()
    assert tracer.calls["losses.supervoxel_features"] == 3
    n_views = sum(len(svs) for svs in chosen)
    amra = {"losses.loss_amra_point": ("point_features",),
            "losses.loss_amra_voxel": ("voxel_features",),
            "losses.loss_amra_channel": ("point_features", "voxel_features")}
    for name in amra:
        _, (views_s, views_t), _ = tracer._captured[name]
        for views in (views_s, views_t):
            assert isinstance(views, SupervoxelFeatures)
            assert views.point_features.shape[0] == n_views * sampler.n_point
            assert views.voxel_features.shape[0] == n_views * sampler.n_voxel
        assert not views_s.point_features._edges
        assert views_s.point_features.requires_grad
    seconds = tracer.backward_seconds()
    assert set(seconds) == set(tracer_module.BACKWARD_TERMS)
    assert all(seconds[name] > 0 for name in amra)
    for name, fields in amra.items():     # the replay reached the leaves
        views_s = tracer._captured[name][1][0]
        for field in fields:
            grad = getattr(views_s, field).grad
            assert grad is not None and np.any(grad != 0.0), (name, field)
