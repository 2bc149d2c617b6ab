"""Self-test of the benchmark harness at a tiny config; runs in seconds.

    PYTHONPATH=src python3 -m pytest bench/tests -q
"""

import json
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import harness  # noqa: E402
from srkd import losses  # noqa: E402
from srkd.autodiff import Tensor  # noqa: E402

# the sizes of the CLI's byte-identical rerun test
TINY = {"scene.n_scenes": 5, "scene.points_per_scene": 192,
        "train.batch_size": 2, "train.n_fixed": 96, "train.knn_k": 4,
        "train.teacher_d_out": 12, "sampler.k": 2, "sampler.n_point": 16,
        "sampler.n_voxel": 4}
SEED = 3
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("models.knn_indices.distinct_ratio", "voxelize.candidates",
          "voxelize.zero_weight_share", "voxelize.sampled_ratio",
          "losses.loss_batch_gd.gram_bytes")


def _values(result):
    return {k: v["value"] for k, v in result["metrics"].items()}


@pytest.fixture(scope="module")
def traced():
    return {w: harness.run_workload(w, SEED, 0, True, TINY)[0]
            for w in harness.WORKLOADS}


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(harness.WORKLOADS)
    for key, table in (("end_to_end", harness.END_TO_END),
                       ("per_layer", harness.PER_LAYER)):
        assert {m["name"]: (m["unit"], m["better"]) for m in SPEC[key]} == table


@pytest.mark.parametrize("workload", list(harness.WORKLOADS))
def test_end_to_end_metrics(workload):
    result, report = harness.run_workload(workload, SEED, 0, False, TINY)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v > 0 and math.isfinite(v) for v in _values(result).values())
    assert report["seed"] == SEED and report["nproc"] >= 1
    assert report["config_hash"] and report["numpy"] and report["blas_name"]


def test_per_layer_metrics(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in traced.values():
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want


def test_zero_call_predictions(traced):
    full, nogd, noise = (_values(traced[w]) for w in harness.WORKLOADS)
    assert nogd["losses.loss_batch_gd.calls"] == 0
    assert noise["autodiff.Tensor.backward.calls"] == 0
    assert noise["optim.AdamW.step.calls"] == 0
    assert full["losses.loss_batch_gd.calls"] > 0
    assert full["losses.loss_batch_gd.gram_bytes"] == 4 * (2 * 96) ** 2 * 8
    # one validation scene, six noise variances, one trial each
    assert noise["models.knn_indices.distinct_ratio"] == 1 / 6


def test_counts_repeat_exactly(traced):
    again = _values(harness.run_workload("distill_full", SEED, 0, True, TINY)[0])
    first = _values(traced["distill_full"])
    for name in COUNTS + tuple(k for k in first if k.endswith(".calls")):
        assert again[name] == first[name], name


def test_failed_check_is_counted(monkeypatch):
    # a NaN inside the training loop, where the package raises NumericError
    monkeypatch.setattr(losses, "loss_kd", lambda *args, **kwargs: Tensor(math.nan))
    result, _ = harness.run_workload("distill_nogd", SEED, 0, False, TINY)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 2
