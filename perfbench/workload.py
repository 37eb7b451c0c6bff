"""One benchmark workload, run in one process.

Usually started by ``run.py``, which pins the BLAS thread count in this
process's environment and puts ``src`` on ``PYTHONPATH``. Run directly:

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 \\
        python3 perfbench/workload.py --workload dense-w64 --seed 1 --seconds 25 --trace 0

The program is driven through its public functions only. Timings come
from spans recorded around those calls (see ``tracing.py``); with
``--trace 1`` the layer functions inside the package are wrapped too.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import aqvq.adaptive
import aqvq.experiments
import aqvq.model
import aqvq.tensor
import aqvq.vq
from aqvq import data, experiments, model, persist

from tracing import Tracer, self_times, step_totals

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

# name -> (encoder architecture, adaptive capacity W)
WORKLOADS = {
    "dense-w64": ("dense", 64),
    "dense-w65536": ("dense", 65536),
    "conv-w64": ("small_conv", 64),
}

# val_recon_sum is measured on the acceptance-suite model (data seed 11,
# model seed 0) so it is one exact number per program version; the
# timed work below uses the workload seed.
REFERENCE_DATA_SEED = 11
REFERENCE_MODEL_SEED = 0

STEPS = 64              # train_run budget; the temperature schedule spans it
MIN_STEP_SAMPLES = 110  # per CPU: at least ten step times beyond each CPU's p90
UNIT_TARGET_S = 0.25    # duration of one batch of set-ups, evaluations or round trips
MIN_SETUP_BATCHES = 3   # batches of set-ups, per CPU
MIN_EVAL_BATCHES = 8    # batches of evaluations, per CPU
MIN_ROUND_TRIPS = 2     # batches of round trips, per CPU
ORACLE_ROWS = 64
# nearest_indices may pick a codeword whose distance exceeds the minimum
# by this share of |z|^2 + |e|^2: it sums in another order than the oracle
TIE_RTOL = 1e-9
PINNED_CPUS = 2         # CPUs the timed units take turns on; minimums scale with it
OVERHEAD_PAIRS_S = 5.0  # --trace 1: time for alternating untraced/traced reference runs
# shares of the timed part of a run (--seconds) per unit; the reference
# run before it is the warm-up and is not timed
UNIT_SHARES = {"setup": 0.05, "train": 0.5, "evaluate": 0.2, "round_trip": 0.25}

END_TO_END = [
    ("setup_s", "s"),
    ("train_step_ms.p50", "ms"),
    ("train_step_ms.p90", "ms"),
    ("train_rows_per_s", "rows/s"),
    ("eval_rows_per_s", "rows/s"),
    ("checkpoint_save_s", "s"),
    ("checkpoint_load_s", "s"),
    ("peak_rss_mb", "MB"),
    ("val_recon_sum", "sum_mse"),
]

PER_LAYER = [
    ("tensor.backward.self_ms_per_step", "ms"),
    ("tensor.graph_nodes_per_step", "count"),
    ("tensor.conv2d_3x3.fwd_ms_per_step", "ms"),
    ("tensor.conv2d_3x3.bwd_ms_per_step", "ms"),
    ("tensor.conv2d_3x3.calls_per_step", "count"),
    ("vq.nearest_indices.ms_per_step", "ms"),
    ("vq.nearest_indices.distance_evals_per_step", "count"),
    ("vq.nearest_indices.calls_per_step", "count"),
    ("vq.quantize.self_ms_per_step", "ms"),
    ("vq.ema_update.ms_per_step", "ms"),
    ("adaptive.adaptive_forward.self_ms_per_step", "ms"),
    ("adaptive.attention_logits.ms_per_step", "ms"),
    ("adaptive.gumbel_softmax.ms_per_step", "ms"),
    ("model.encode.self_ms_per_step", "ms"),
    ("model.decode.self_ms_per_step", "ms"),
    ("model.train_step.self_ms_per_step", "ms"),
    ("model.evaluate.ms_per_batch", "ms"),
    ("experiments.train_run.self_ms_per_step", "ms"),
    ("persist.save_checkpoint.ms", "ms"),
    ("persist.load_checkpoint.ms", "ms"),
    ("persist.checkpoint_bytes", "bytes"),
    ("persist.payload_ratio", "ratio"),
    ("data.synth_dataset.ms", "ms"),
    ("share.nearest_indices", "ratio"),
    ("share.conv2d_3x3", "ratio"),
    ("share.backward_and_train_step_self", "ratio"),
    ("trace.train_step_ms.p50", "ms"),
    ("trace.untraced_train_step_ms.p50", "ms"),
    ("trace.overhead_ms_per_step", "ms"),
]


def make_inputs(workload: str, data_seed: int, model_seed: int):
    """Dataset recipe and model config of ``workload`` for the given seeds."""
    arch, capacity = WORKLOADS[workload]
    if arch == "dense":
        source = data.DatasetSource(kind="synthetic_gaussian_mixture", clusters=4, dims=8,
                                    samples=1024, noise_sigma=0.05, spread=1.0,
                                    seed=data_seed)
        shape = (8,)
    else:
        source = data.DatasetSource(kind="synthetic_patterns", samples=1024, seed=data_seed)
        shape = (1, 8, 8)
    config = model.ModelConfig(encoder_arch=arch, input_shape=shape, num_hiddens=16,
                               quantizer="adaptive", capacity=capacity, batch_size=64,
                               seed=model_seed)
    return source, config


class Ops:
    """Attempted and failed operations, with one message per failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def call(self, what: str, fn, *args):
        """Run one operation; a raised error counts as its failure."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as err:  # the run goes on and reports the failure
            self.failures.append(f"{what}: {type(err).__name__}: {err}")
            return None


def exact(result: dict) -> dict:
    """An evaluate() result with floats as hex, for bit-for-bit comparison."""
    return {k: float(v).hex() if isinstance(v, float) else v for k, v in result.items()}


def brute_force_nearest(rows: np.ndarray, embeddings: np.ndarray) -> np.ndarray:
    """Exhaustive squared-distance scan per row; the lowest index wins ties."""
    out = np.empty(rows.shape[0], dtype=np.int64)
    for t, row in enumerate(rows):
        diff = embeddings - row
        out[t] = np.argmin(np.einsum("nd,nd->n", diff, diff))
    return out


def nearest_mismatches(rows: np.ndarray, embeddings: np.ndarray, got: np.ndarray) -> int:
    """Rows where ``got`` is not a nearest codeword by exhaustive scan.

    A pick that is not the oracle's passes if its distance is within
    TIE_RTOL of the minimum, as rounding in another summation order can
    make it, but not if it exactly ties the minimum: then the lowest
    index must win.
    """
    norms = np.einsum("nd,nd->n", embeddings, embeddings)
    bad = 0
    for t, row in enumerate(rows):
        diff = embeddings - row
        dist = np.einsum("nd,nd->n", diff, diff)
        best, pick = int(np.argmin(dist)), int(got[t])
        tol = TIE_RTOL * (row @ row + norms[pick])
        if pick != best and (dist[pick] == dist[best] or dist[pick] - dist[best] > tol):
            bad += 1
    return bad


def train_once(ops: Ops, tracer: Tracer, config, dataset):
    """One closed-loop train_run from a fresh state.

    Returns (state, final validation recon sum, step times, loop seconds)
    or None when it failed. Loop time runs from the train_run call to
    the end of its last train step, so it includes the run's own
    overhead but not its closing evaluate.
    """
    state = model.init_state(config)
    first = len(tracer.spans)
    failure = None
    try:
        with tracer.span("experiments.train_run") as run:
            state, report = experiments.train_run(config, dataset, STEPS, state=state)
    except Exception as err:  # counted below as the failing operation
        failure = f"train_run: {type(err).__name__}: {err}"
    steps = [s for s in tracer.spans[first:] if s.name == "model.train_step"]
    ops.attempted += len(steps) + (len(steps) == STEPS)  # steps plus the closing evaluate
    if failure is not None:
        ops.failures.append(failure)
        return None
    return (state, report.summary["final_val_recon_sum"], [s.duration for s in steps],
            steps[-1].end - run.start)


def check_nearest(ops: Ops, state, val: np.ndarray, seed: int) -> None:
    """nearest_indices against a brute-force scan, for every codebook."""
    rng = np.random.default_rng(seed)
    rows = val[rng.choice(val.shape[0], size=min(ORACLE_ROWS, val.shape[0]), replace=False)]
    z_e = ops.call("oracle encode", model.encode, rows, state)
    if z_e is None:
        return
    for i, layer in enumerate(state.quantizer.quantizers):
        z_d = layer.project_in(z_e).data
        got = aqvq.vq.nearest_indices(z_d, layer.codebook)
        bad = nearest_mismatches(z_d, layer.codebook.embeddings.data, got)
        ops.check(bad == 0, f"nearest_indices differs from brute force on codebook {i} "
                            f"{layer.spec.label} at {bad} rows")


def calls_per_unit(call_s: float) -> int:
    """Calls in one repeat so that it takes about UNIT_TARGET_S."""
    return max(1, round(UNIT_TARGET_S / max(call_s, 1e-9)))


def per_cpu(samples: dict, stat=statistics.median) -> float:
    """``stat`` of each CPU's samples, averaged over the CPUs."""
    return statistics.fmean(stat(values) for values in samples.values())


class Measurement:
    """The timed units of one workload and what they have recorded.

    A unit is one repeat: a 64-step train_run, or a batch of set-ups,
    evaluate calls or checkpoint round trips sized from one first call
    to take about UNIT_TARGET_S, so that short calls are not pinned one
    by one. Each call is a sample.

    A shared host can run one CPU markedly slower than another for
    longer than a run lasts, and the scheduler keeps a busy process on
    one CPU. So ``interleave`` pins the repeats of each unit to the
    first PINNED_CPUS usable CPUs in turn, samples are kept per CPU, and
    a metric is the mean over CPUs of each CPU's statistic. The units alternate, so
    every metric samples the whole run, not one stretch of it.
    """

    def __init__(self, ops: Ops, tracer: Tracer, source, config, checkpoint: Path):
        self.ops = ops
        self.tracer = tracer
        self.source = source
        self.config = config
        self.checkpoint = checkpoint
        self.cpus = (sorted(os.sched_getaffinity(0))[:PINNED_CPUS]
                     if hasattr(os, "sched_setaffinity") else [None])
        self.cpu = None  # the CPU the current unit is pinned to
        # kind -> CPU -> samples: seconds per step, rows per second of
        # one train_run, or seconds per call
        self.times: dict = {kind: {} for kind in
                            ("step", "rows_per_s", "setup", "synth", "evaluate", "save", "load")}
        self.finals: list[float] = []
        self.batch: dict = {}
        began = time.perf_counter()
        self.dataset = self._setup_once()[0]
        self.batch["setup"] = calls_per_unit(time.perf_counter() - began)
        self.state = None
        self.before = None  # first evaluate() result of the trained state

    def record(self, kind: str, values) -> None:
        self.times[kind].setdefault(self.cpu, []).extend(values)

    def pin(self, repeat: int) -> None:
        """Pin this process to the CPU whose turn ``repeat`` is."""
        self.cpu = self.cpus[repeat % len(self.cpus)]
        if self.cpu is not None:
            os.sched_setaffinity(0, {self.cpu})

    def first_calls(self) -> bool:
        """Train once, which is the first train sample, then size the
        evaluate and round-trip batches from one call each, which are
        not samples. False if one of them failed."""
        self.pin(0)
        self.train()
        if self.state is None:
            return False
        began = time.perf_counter()
        if self._evaluate_once() is None:
            return False
        self.batch["evaluate"] = calls_per_unit(time.perf_counter() - began)
        began = time.perf_counter()
        if self._round_trip_once() is None:
            return False
        self.batch["round_trip"] = calls_per_unit(time.perf_counter() - began)
        return True

    def _setup_once(self):
        """Dataset build plus init_state."""
        with self.tracer.span("setup") as whole:
            with self.tracer.span("data.synth_dataset") as build:
                dataset = data.synth_dataset(self.source)
            model.init_state(self.config)
        return dataset, whole.duration, build.duration

    def setup(self) -> None:
        runs = [self._setup_once()[1:] for _ in range(self.batch["setup"])]
        self.record("setup", [r[0] for r in runs])
        self.record("synth", [r[1] for r in runs])

    def train(self) -> None:
        run = train_once(self.ops, self.tracer, self.config, self.dataset)
        if run is None:
            return
        state, final, steps, loop_s = run
        if self.finals:
            self.ops.check(final == self.finals[0],
                           f"train_run repeat ended at recon {final!r}, "
                           f"first at {self.finals[0]!r}")
        self.finals.append(final)
        self.record("step", steps)
        self.record("rows_per_s", [len(steps) * self.config.batch_size / loop_s])
        self.state = state

    def _evaluate_once(self):
        """One evaluate call and its checks; returns its time or None."""
        with self.tracer.span("model.evaluate") as span:
            result = self.ops.call("evaluate", model.evaluate, self.dataset.val, self.state)
        if result is None:
            return None
        if self.before is None:
            self.before = result
            self.ops.check(all(np.isfinite(v) for v in result.values()),
                           f"evaluate returned non-finite values {result}")
        else:
            self.ops.check(exact(result) == exact(self.before),
                           f"evaluate repeat differs: {result} vs {self.before}")
        return span.duration

    def evaluate(self) -> None:
        times = [self._evaluate_once() for _ in range(self.batch["evaluate"])]
        times = [t for t in times if t is not None]
        if times:
            self.record("evaluate", times)

    def _round_trip_once(self):
        """Save, load and re-evaluate; the result must not change.
        Returns (save seconds, load seconds) or None."""
        self.ops.attempted += 1
        try:
            with self.tracer.span("persist.save_checkpoint") as save:
                persist.save_checkpoint(self.state, self.checkpoint)
            with self.tracer.span("persist.load_checkpoint") as load:
                loaded = persist.load_checkpoint(self.checkpoint)
            after = model.evaluate(self.dataset.val, loaded)
        except Exception as err:  # counted as a failed round trip
            self.ops.failures.append(f"checkpoint round trip: {type(err).__name__}: {err}")
            return None
        if exact(after) != exact(self.before):
            self.ops.failures.append(
                f"checkpoint round trip changed evaluate: {after} vs {self.before}")
        return save.duration, load.duration

    def round_trip(self) -> None:
        trips = [self._round_trip_once() for _ in range(self.batch["round_trip"])]
        trips = [t for t in trips if t is not None]
        if trips:
            self.record("save", [t[0] for t in trips])
            self.record("load", [t[1] for t in trips])

    def interleave(self, seconds: float) -> None:
        """Run the unit furthest below its share of the time spent so far
        until ``seconds`` have passed, then the units still short of their
        minimum. The repeats of each unit go to the CPUs in turn."""
        n_cpus = len(self.cpus)
        units = {  # name -> (unit, repeats at least, over all CPUs)
            "setup": (self.setup, MIN_SETUP_BATCHES * n_cpus),
            "train": (self.train, n_cpus * -(-MIN_STEP_SAMPLES // STEPS)),
            "evaluate": (self.evaluate, MIN_EVAL_BATCHES * n_cpus),
            "round_trip": (self.round_trip, MIN_ROUND_TRIPS * n_cpus),
        }
        spent = dict.fromkeys(units, 0.0)
        runs = dict.fromkeys(units, 0)
        runs["train"] = 1  # the train run of first_calls
        started = time.perf_counter()
        try:
            while True:
                over = time.perf_counter() - started >= seconds
                short = [name for name, (_, minimum) in units.items() if runs[name] < minimum]
                if over and not short:
                    return
                name = min(short if over else units, key=lambda n: spent[n] / UNIT_SHARES[n])
                self.pin(runs[name])
                began = time.perf_counter()
                units[name][0]()
                spent[name] += time.perf_counter() - began
                runs[name] += 1
        finally:
            if self.cpu is not None:
                os.sched_setaffinity(0, self.cpus)

    def complete(self) -> bool:
        """Whether every CPU has samples of every kind."""
        return all(len(by_cpu) == len(self.cpus) for by_cpu in self.times.values())

    def samples(self) -> dict:
        counts = {kind: sum(len(v) for v in by_cpu.values()) for kind, by_cpu in self.times.items()}
        return {"cpus": len(self.cpus), "train_runs": counts["rows_per_s"],
                "train_steps": counts["step"],
                "setup_calls": counts["setup"], "evaluate_calls": counts["evaluate"],
                "round_trip_calls": counts["save"]}


def stored_values(path: Path) -> int:
    """Number of float values stored in a checkpoint document."""
    def walk(node):
        if isinstance(node, dict):
            if "hex" in node:
                return len(node["hex"])
            return sum(walk(v) for v in node.values())
        if isinstance(node, list):
            return sum(walk(v) for v in node)
        return 0

    with open(path, encoding="utf-8") as fh:
        return walk(json.load(fh))


def install_step_timer(tracer: Tracer) -> None:
    """Wrap only train_step: the untraced runs time their steps this way."""
    exp = aqvq.experiments
    tracer.patch(exp, "train_step", tracer.stepped("model.train_step", exp.train_step))


def overhead_pairs(ops: Ops, timer: Tracer, config, dataset, val_recon_sum: float):
    """Alternate the reference run untraced and traced for OVERHEAD_PAIRS_S.

    Alternating keeps a change of host speed from landing on one side.
    Every rerun must end at ``val_recon_sum`` exactly. Returns the p50
    step times (ms) untraced and traced, and the layer tracer, left
    installed, whose spans hold every traced step.
    """
    traced_tracer = Tracer()
    untraced, traced = [], []
    started = time.perf_counter()
    while True:
        runs = [train_once(ops, timer, config, dataset)]
        timer.unpatch()
        install_layer_wrappers(traced_tracer)
        runs.append(train_once(ops, traced_tracer, config, dataset))
        if None in runs:
            raise RuntimeError("reference rerun failed: " + "; ".join(ops.failures))
        for rerun in runs:
            ops.check(rerun[1] == val_recon_sum,
                      f"reference rerun val_recon_sum {rerun[1]!r} != {val_recon_sum!r}")
        untraced += runs[0][2]
        traced += runs[1][2]
        if time.perf_counter() - started >= OVERHEAD_PAIRS_S:
            break
        traced_tracer.unpatch()
        install_step_timer(timer)
    return 1e3 * statistics.median(untraced), 1e3 * statistics.median(traced), traced_tracer


def install_layer_wrappers(tracer: Tracer) -> None:
    """Wrap each layer function under the name its caller looks it up by."""
    t = tracer
    mdl, adp, vq, ten, exp = aqvq.model, aqvq.adaptive, aqvq.vq, aqvq.tensor, aqvq.experiments
    install_step_timer(t)
    t.patch(exp, "evaluate", t.timed("model.evaluate", exp.evaluate))
    t.patch(mdl, "encode", t.timed("model.encode", mdl.encode))
    t.patch(mdl, "decode", t.timed("model.decode", mdl.decode))
    t.patch(mdl, "adaptive_forward", t.timed("adaptive.adaptive_forward", mdl.adaptive_forward))
    t.patch(mdl, "vq_quantize", t.timed("vq.quantize", mdl.vq_quantize))
    t.patch(mdl, "ema_update", t.timed("vq.ema_update", mdl.ema_update))
    t.patch(mdl, "backward", t.timed("tensor.backward", mdl.backward))
    t.patch(adp, "quantize", t.timed("vq.quantize", adp.quantize))
    t.patch(adp, "attention_logits", t.timed("adaptive.attention_logits", adp.attention_logits))
    t.patch(adp, "gumbel_softmax", t.timed("adaptive.gumbel_softmax", adp.gumbel_softmax))
    t.patch(vq, "nearest_indices", t.timed(
        "vq.nearest_indices", vq.nearest_indices,
        count=lambda rows, codebook: np.shape(getattr(rows, "data", rows))[0] * codebook.n))

    conv_forward = t.timed("tensor.conv2d_3x3", mdl.conv2d_3x3)

    def conv2d_3x3(*args, **kwargs):
        out = conv_forward(*args, **kwargs)
        if out._vjp is not None:
            out._vjp = t.timed("tensor.conv2d_3x3.bwd", out._vjp)
        return out

    t.patch(mdl, "conv2d_3x3", conv2d_3x3)

    class CountingGraph(ten.Graph):
        def __init__(self, root):
            super().__init__(root)
            t.count("tensor.graph_nodes", len(self.nodes))

    t.patch(ten, "Graph", CountingGraph)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-step layer figures from the traced train steps."""
    totals = step_totals(tracer.spans, tracer.counters)
    steps = max(1, tracer.steps_started)

    def get(name, field):
        return totals.get(name, {}).get(field, 0)

    step_s = get("model.train_step", "total") or 1.0
    run_self = sum(own for span, own in zip(tracer.spans, self_times(tracer.spans))
                   if span.name == "experiments.train_run")
    return {
        "tensor.backward.self_ms_per_step": 1e3 * get("tensor.backward", "self") / steps,
        "tensor.graph_nodes_per_step": get("tensor.graph_nodes", "count") / steps,
        "tensor.conv2d_3x3.fwd_ms_per_step": 1e3 * get("tensor.conv2d_3x3", "total") / steps,
        "tensor.conv2d_3x3.bwd_ms_per_step": 1e3 * get("tensor.conv2d_3x3.bwd", "total") / steps,
        "tensor.conv2d_3x3.calls_per_step": get("tensor.conv2d_3x3", "calls") / steps,
        "vq.nearest_indices.ms_per_step": 1e3 * get("vq.nearest_indices", "total") / steps,
        "vq.nearest_indices.distance_evals_per_step": get("vq.nearest_indices", "count") / steps,
        "vq.nearest_indices.calls_per_step": get("vq.nearest_indices", "calls") / steps,
        "vq.quantize.self_ms_per_step": 1e3 * get("vq.quantize", "self") / steps,
        "vq.ema_update.ms_per_step": 1e3 * get("vq.ema_update", "total") / steps,
        "adaptive.adaptive_forward.self_ms_per_step":
            1e3 * get("adaptive.adaptive_forward", "self") / steps,
        "adaptive.attention_logits.ms_per_step":
            1e3 * get("adaptive.attention_logits", "total") / steps,
        "adaptive.gumbel_softmax.ms_per_step":
            1e3 * get("adaptive.gumbel_softmax", "total") / steps,
        "model.encode.self_ms_per_step": 1e3 * get("model.encode", "self") / steps,
        "model.decode.self_ms_per_step": 1e3 * get("model.decode", "self") / steps,
        "model.train_step.self_ms_per_step": 1e3 * get("model.train_step", "self") / steps,
        "experiments.train_run.self_ms_per_step": 1e3 * run_self / steps,
        "share.nearest_indices": get("vq.nearest_indices", "total") / step_s,
        "share.conv2d_3x3":
            (get("tensor.conv2d_3x3", "total") + get("tensor.conv2d_3x3.bwd", "total")) / step_s,
        "share.backward_and_train_step_self":
            (get("tensor.backward", "self") + get("model.train_step", "self")) / step_s,
    }


def host_record() -> dict:
    """Cores, versions and the BLAS thread setting of this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = Ops()
    source, config = make_inputs(workload, seed, seed)
    ref_source, ref_config = make_inputs(workload, REFERENCE_DATA_SEED, REFERENCE_MODEL_SEED)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer()
    install_step_timer(tracer)
    try:
        ref_dataset = data.synth_dataset(ref_source)
        # the reference run is also the warm-up; its steps are not timed
        reference = train_once(ops, tracer, ref_config, ref_dataset)
        if reference is None:
            raise RuntimeError("reference run failed: " + "; ".join(ops.failures))
        val_recon_sum = reference[1]
        if trace:
            untraced_p50, traced_p50, tracer = overhead_pairs(
                ops, tracer, ref_config, ref_dataset, val_recon_sum)

        bench = Measurement(ops, tracer, source, config, workdir / "checkpoint.json")
        if not bench.first_calls():
            raise RuntimeError("first train_run, evaluate or round trip failed: "
                               + "; ".join(ops.failures))
        check_nearest(ops, bench.state, bench.dataset.val, seed)
        bench.interleave(seconds)
        if not bench.complete():
            raise RuntimeError("a unit recorded no sample on some CPU: " + "; ".join(ops.failures))

        times = bench.times
        if trace:
            size = bench.checkpoint.stat().st_size
            metrics = layer_metrics(tracer)
            metrics.update({
                "model.evaluate.ms_per_batch":
                    1e3 * per_cpu(times["evaluate"]) / bench.before["n_batches"],
                "persist.save_checkpoint.ms": 1e3 * per_cpu(times["save"]),
                "persist.load_checkpoint.ms": 1e3 * per_cpu(times["load"]),
                "persist.checkpoint_bytes": size,
                "persist.payload_ratio": 8 * stored_values(bench.checkpoint) / size,
                "data.synth_dataset.ms": 1e3 * per_cpu(times["synth"]),
                "trace.train_step_ms.p50": traced_p50,
                "trace.untraced_train_step_ms.p50": untraced_p50,
                "trace.overhead_ms_per_step": traced_p50 - untraced_p50,
            })
            tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.json")
            units = PER_LAYER
        else:
            metrics = {
                "setup_s": per_cpu(times["setup"]),
                "train_step_ms.p50": 1e3 * per_cpu(times["step"]),
                "train_step_ms.p90":
                    1e3 * per_cpu(times["step"], lambda v: statistics.quantiles(v, n=10)[-1]),
                "train_rows_per_s": per_cpu(times["rows_per_s"]),
                "eval_rows_per_s": bench.dataset.val.shape[0] / per_cpu(times["evaluate"]),
                "checkpoint_save_s": per_cpu(times["save"]),
                "checkpoint_load_s": per_cpu(times["load"]),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "val_recon_sum": val_recon_sum,
            }
            units = END_TO_END
    finally:
        tracer.unpatch()
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "host": host_record(),
        "samples": bench.samples(),
        "failures": ops.failures,
        "failed_ops_share": len(ops.failures) / ops.attempted,
        "result": {
            "correct": not ops.failures,
            "attempted": ops.attempted,
            "failed": len(ops.failures),
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = record["result"]["metrics"]
    for name, entry in metrics.items():
        print(f"{name:<46} {entry['value']:>16.6g} {entry['unit']}")
    print(f"{'failed_ops_share':<46} {record['failed_ops_share']:>16.6g} "
          f"({record['result']['failed']} of {record['result']['attempted']})")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    print("record " + json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
