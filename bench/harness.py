"""The SRKD benchmark: workloads, set-up, timed calls, output checks and
provenance. `run.py` is the command; this module is what it runs.

Every workload starts from `config.DEFAULTS`, applies `COMMON` and its own
overrides, and builds its inputs from the workload seed through
`config.scene_spec` and `config.train_config`. Per-step sizes stay at the
defaults (B=8, N_fixed=1024, 2048 points per scene, every loss weight).
What is cut to fit a run of seconds is the amount of work per call: one
epoch, one noise trial per variance, the teacher trained on the first
`TEACHER_SCENES` training scenes, and `distill_full` distilled on those
same scenes; `distill_nogd` distills on all 64.
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import resource
import statistics
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from srkd import cloud, config, trainer
from srkd.errors import SRKDError
from srkd.losses import LOSS_NAMES
from srkd.models import SegModel, make_student_from_teacher

from tracer import BACKWARD_TERMS, LAYER_TARGETS, SETUP_TARGETS, SPAN_NAMES, Tracer

ROOT = Path(__file__).resolve().parent.parent

TEACHER_SCENES = 16    # two batches of B=8
SETUP_REPEATS = 3
EVAL_REPEATS = 9
COMMON = {"train.epochs": 1, "train.teacher_epochs": 1, "noise.trials": 1}
# name -> (kind, config overrides, training scenes of the timed call; None
# for all). One default epoch of distill_full takes about a minute on two
# cores, so it distills on the teacher's scenes only.
WORKLOADS = {
    "distill_full": ("distill", {}, TEACHER_SCENES),
    "distill_nogd": ("distill", {"loss.lambda_batch_gd": 0.0}, None),
    "eval_noise": ("eval", {}, None),
}

END_TO_END = {  # name -> (unit, better)
    "setup_s": ("s", "lower"),
    "train_scenes_per_s": ("scenes/s", "higher"),
    "eval_scenes_per_s": ("scenes/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {}
for _name in SPAN_NAMES:
    PER_LAYER[f"{_name}.s"] = ("s", "lower")
    PER_LAYER[f"{_name}.calls"] = ("count", "lower")
for _name in BACKWARD_TERMS:
    PER_LAYER[f"{_name}.bwd_s"] = ("s", "lower")
PER_LAYER.update({
    "models.knn_indices.distinct_ratio": ("ratio", "higher"),
    "voxelize.candidates": ("count", "lower"),
    "voxelize.zero_weight_share": ("ratio", "lower"),
    "voxelize.sampled_ratio": ("ratio", "higher"),
    "losses.loss_batch_gd.gram_bytes": ("computed-B", "lower"),
    "losses.batch_gd.wall_share": ("ratio", "lower"),
    "trace_overhead_s": ("s", "lower"),
})


def workload_config(name: str, base: dict | None = None) -> dict:
    """DEFAULTS, then COMMON, the workload's overrides and `base` (tests)."""
    cfg = dict(config.DEFAULTS)
    cfg.update(COMMON)
    cfg.update(WORKLOADS[name][1])
    cfg.update(base or {})
    return cfg


# -- set-up -------------------------------------------------------------------

class Setup(NamedTuple):
    data: trainer.Dataset    # every training and validation scene
    teacher: SegModel
    seconds: float           # scenes plus teacher
    teacher_seconds: float


def set_up(cfg: dict, seed: int) -> Setup:
    """Generate every scene and train the frozen teacher on the first
    `TEACHER_SCENES` training scenes: the same work on every workload."""
    start = time.perf_counter()
    spec = config.scene_spec(cfg, seed)
    clouds = [cloud.generate_scene(spec, i) for i in range(spec.n_scenes)]
    n_train = int(round(spec.n_scenes * cfg["train.train_fraction"]))
    data = trainer.Dataset(tuple(clouds[:n_train]), tuple(clouds[n_train:]))
    teacher_start = time.perf_counter()
    teacher, _ = trainer.train_teacher(config.train_config(cfg, seed),
                                       _with_train(data, TEACHER_SCENES))
    end = time.perf_counter()
    return Setup(data, teacher, end - start, end - teacher_start)


def _with_train(data: trainer.Dataset, n: int | None) -> trainer.Dataset:
    """`data` with only its first `n` training scenes (all when None)."""
    return trainer.Dataset(data.train[:n], data.val)


# -- timed calls and their checks ---------------------------------------------

def _distill_call(cfg, seed, teacher, data):
    tcfg = config.train_config(cfg, seed)
    scenes = tcfg.epochs * len(data.train)
    start = time.perf_counter()
    try:
        student, log = trainer.train_distill(tcfg, teacher, data)
    except SRKDError:  # a non-finite loss, among others
        return {"wall": time.perf_counter() - start, "ok": False, "outputs": None,
                "student": None, "scenes": scenes}
    wall = time.perf_counter() - start
    steps = [r for r in log if "step" in r]
    evals = [r for r in log if "val_miou" in r]
    expected = tcfg.epochs * math.ceil(len(data.train) / tcfg.batch_size)
    ok = (len(steps) == expected and bool(evals)
          and all(math.isfinite(r[k]) for r in steps for k in LOSS_NAMES + ("l_total",))
          and 0.0 <= evals[-1]["val_miou"] <= 1.0)
    outputs = {"l_total": steps[-1]["l_total"] if steps else None,
               "val_miou": evals[-1]["val_miou"] if evals else None}
    return {"wall": wall, "ok": ok, "outputs": outputs, "student": student,
            "scenes": scenes}


def _sweep_call(cfg, seed, student, data):
    ncfg = config.noise_config(cfg, seed)
    want = [(tau, ncfg.trials if tau > 0 else 1) for tau in ncfg.taus]
    scenes = len(data.val) * sum(t for _, t in want)
    start = time.perf_counter()
    try:
        rows = trainer.noise_sweep(student, data.val, ncfg, cfg["train.n_fixed"])
    except SRKDError:
        return {"wall": time.perf_counter() - start, "ok": False, "outputs": None,
                "scenes": scenes}
    wall = time.perf_counter() - start
    ok = ([(r["tau"], r["trials"]) for r in rows] == want
          and all(0.0 <= r["miou"] <= 1.0 for r in rows))
    return {"wall": wall, "ok": ok, "outputs": {"miou": [r["miou"] for r in rows]},
            "scenes": scenes}


def _eval_call(cfg, student, data, expected_miou):
    start = time.perf_counter()
    m = trainer.evaluate(student, data.val, cfg["train.n_fixed"])
    wall = time.perf_counter() - start
    return {"wall": wall, "ok": m.miou == expected_miou, "scenes": len(data.val)}


def _agree(results: list[dict]) -> int:
    """Failed checks: a call that failed its own check or disagrees with the
    first call (the same inputs must give the same outputs)."""
    first = results[0]["outputs"]
    return sum(not r["ok"] or r["outputs"] != first for r in results)


# -- provenance ---------------------------------------------------------------

def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, when it can be found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*.so*")):
        so = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(so, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, read without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(name: str, cfg: dict, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"workload": name, "seed": seed, "config_hash": config.config_hash(cfg),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            "blas_name": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(),
            "openblas_num_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "numpy": np.__version__, "python": platform.python_version(),
            "git_commit": _git_commit()}


# -- the two kinds of run -----------------------------------------------------

def _primary(name, cfg, seed, data, teacher):
    """The workload's timed call, as a zero-argument function."""
    kind, _, n_train = WORKLOADS[name]
    if kind == "distill":
        data = _with_train(data, n_train)
        return lambda: _distill_call(cfg, seed, teacher, data)
    student = make_student_from_teacher(teacher, seed=seed)
    return lambda: _sweep_call(cfg, seed, student, data)


def _warm_up(name, cfg, seed, data, teacher) -> dict:
    """One untimed call on a single batch and validation scene.

    Fresh memory is slow and uneven to touch on first use, a cost a real
    run pays once per process; one batch already allocates every buffer
    shape the timed call uses.
    """
    small = trainer.Dataset(data.train[:cfg["train.batch_size"]], data.val[:1])
    return _primary(name, cfg, seed, small, teacher)()


def _untraced(name, cfg, seed, seconds):
    setups = [set_up(cfg, seed) for _ in range(SETUP_REPEATS)]
    data, teacher = setups[-1].data, setups[-1].teacher
    teacher_rate = statistics.median(
        cfg["train.teacher_epochs"] * len(data.train[:TEACHER_SCENES])
        / s.teacher_seconds for s in setups)
    warm_up = _warm_up(name, cfg, seed, data, teacher)
    call = _primary(name, cfg, seed, data, teacher)
    end = time.perf_counter() + seconds
    results = [call()]
    # Taken after the first timed call: repeated calls grow the heap a
    # little each, so a later reading would depend on how many calls fit.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while time.perf_counter() < end:
        results.append(call())
    rate = statistics.median(r["scenes"] / r["wall"] for r in results)
    failed = (not warm_up["ok"]) + _agree(results)
    attempted = 1 + len(results)
    if WORKLOADS[name][0] == "distill":
        # the distilled student's own evaluation throughput
        last = results[-1]
        evals = [] if last["student"] is None else [
            _eval_call(cfg, last["student"], data, last["outputs"]["val_miou"])
            for _ in range(EVAL_REPEATS)]
        failed += sum(not e["ok"] for e in evals)
        attempted += len(evals)
        train_rate = rate
        eval_rate = statistics.median(e["scenes"] / e["wall"] for e in evals) \
            if evals else 0.0
    else:
        # nothing trains on this workload but the teacher during set-up
        train_rate = teacher_rate
        eval_rate = rate
    values = {
        "setup_s": statistics.median(s.seconds for s in setups),
        "train_scenes_per_s": train_rate,
        "eval_scenes_per_s": eval_rate,
        "peak_rss_mb": peak_rss_mb,
    }
    report = {"outputs": results[0]["outputs"],
              "walls_s": [r["wall"] for r in results],
              "warm_up_wall_s": warm_up["wall"],
              "setup_walls_s": [s.seconds for s in setups]}
    return values, attempted, failed, report


def _traced(name, cfg, seed):
    tracer = Tracer()
    with tracer.installed(SETUP_TARGETS):
        setup = set_up(cfg, seed)
    warm_up = _warm_up(name, cfg, seed, setup.data, setup.teacher)
    call = _primary(name, cfg, seed, setup.data, setup.teacher)
    with tracer.installed(LAYER_TARGETS):
        traced = call()
    untraced = call()
    values = tracer.metrics()
    gd_s = (values["losses.loss_batch_gd.s"] + values["losses.gd_teacher_log_z.s"]
            + values["losses.loss_batch_gd.bwd_s"] * values["losses.loss_batch_gd.calls"])
    values["losses.batch_gd.wall_share"] = gd_s / traced["wall"]
    values["trace_overhead_s"] = traced["wall"] - untraced["wall"]
    report = {"outputs": traced["outputs"], "walls_s": [traced["wall"], untraced["wall"]],
              "warm_up_wall_s": warm_up["wall"]}
    return values, 3, (not warm_up["ok"]) + _agree([traced, untraced]), report


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 base: dict | None = None) -> tuple[dict, dict]:
    """Run one workload; returns (result line, report with provenance)."""
    cfg = workload_config(name, base)
    if trace:
        values, attempted, failed, report = _traced(name, cfg, seed)
        spec = PER_LAYER
    else:
        values, attempted, failed, report = _untraced(name, cfg, seed, seconds)
        spec = END_TO_END
    metrics = {k: {"value": values[k], "unit": unit} for k, (unit, _) in spec.items()}
    report.update(provenance(name, cfg, seed))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, report
