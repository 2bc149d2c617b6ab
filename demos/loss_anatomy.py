"""Anatomy of the six distillation loss terms on a tiny hand-sized batch.

Builds a two-sample batch, runs a frozen teacher and a fresh student through
the training objective, and prints each loss term plus two sanity
properties: the teacher distilled against itself scores (near) zero on
every distillation term, and the analytic gradient of the total matches
finite differences.
Run with: python3 demos/loss_anatomy.py
"""

import numpy as np

from srkd import (LOSS_NAMES, LossWeights, SceneSpec, generate_scene,
                  make_student_from_teacher, make_teacher, resample_fixed,
                  weighted_total)
from srkd.autodiff import finite_diff_gradient
from srkd.models import knn_indices
from srkd.trainer import distill_objective, grid_for_clouds, make_batch
from srkd.voxelize import (SamplerConfig, batch_label_histogram,
                           build_supervoxels, sample_supervoxels)

spec = SceneSpec(n_classes=4, points_per_scene=96, n_scenes=2, seed=3)
clouds = [generate_scene(spec, i) for i in range(2)]
samples = [resample_fixed(c, 64, seed=10 + i) for i, c in enumerate(clouds)]

teacher = make_teacher(spec.d_in, spec.n_classes, d_out=16, k=4, seed=1)
teacher.freeze()
student = make_student_from_teacher(teacher, seed=2)
# distill_objective walks batch-GD in float64 unless asked for float32: the
# checks below (identity < 1e-10, central differences) are tighter than a
# float32 walk resolves.
w = LossWeights()

# Supervoxels: class-balanced regions of the cylindrical grid, shared between
# teacher and student so the affinity losses compare matched point sets.
grid = grid_for_clouds(clouds)
sampler = SamplerConfig(k=2, n_point=16, n_voxel=4)
hist = batch_label_histogram(samples, spec.n_classes)
chosen = [sample_supervoxels(build_supervoxels(s, grid, sampler, hist, seed=i),
                             sampler.k, seed=20 + i)
          for i, s in enumerate(samples)]

# The batch holds the frozen teacher's outputs; the objective runs the student.
nbrs = [knn_indices(s.cloud.positions, s.mask, teacher.k) for s in samples]
batch = make_batch(samples, nbrs, teacher, w)
comps = distill_objective(student, batch, chosen, w)
total = weighted_total(comps, w)
print("fresh student vs frozen teacher:")
for name in LOSS_NAMES:
    print(f"  {name:10s} = {comps[name].item():.6f}")
print(f"  l_total    = {total.item():.6f}")

# Property 1: a student whose features and logits equal the teacher's has
# zero distillation loss. The teacher itself is that student (it has no
# channel projection); only the task loss survives.
ident = distill_objective(teacher, batch, chosen, w)
print("\nidentity check (student outputs == teacher outputs):")
for name in LOSS_NAMES[1:]:
    print(f"  {name:10s} = {ident[name].item():.2e}")
    assert ident[name].item() < 1e-10

# Property 2: backpropagated gradient of l_total w.r.t. one weight matrix
# matches central finite differences.
student.zero_grads()
total.backward()
pname, p = next(iter(student.params.items()))
analytic = p.grad.copy()


def f(theta):
    p.data[...] = theta
    return weighted_total(distill_objective(student, batch, chosen, w), w).item()


orig = p.data.copy()
fd = finite_diff_gradient(f, orig.copy(), h=1e-5)
p.data[...] = orig
rel = np.max(np.abs(analytic - fd) / np.maximum(np.maximum(np.abs(analytic),
                                                           np.abs(fd)), 1.0))
print(f"\ngradient of l_total w.r.t. {pname}: max relative error {rel:.2e}")
assert rel < 1e-4
