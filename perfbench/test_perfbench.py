"""Tests of the benchmark itself: span arithmetic, the oracle, and that
every workload emits every metric with a unit.

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracing import Span, Tracer, self_times, step_totals  # noqa: E402
import workload  # noqa: E402

END_TO_END = [
    "setup_s", "train_step_ms.p50", "train_step_ms.p90", "train_rows_per_s",
    "eval_rows_per_s", "checkpoint_save_s", "checkpoint_load_s", "peak_rss_mb",
    "val_recon_sum",
]
PER_LAYER = [
    "tensor.backward.self_ms_per_step", "tensor.graph_nodes_per_step",
    "tensor.conv2d_3x3.fwd_ms_per_step", "tensor.conv2d_3x3.bwd_ms_per_step",
    "tensor.conv2d_3x3.calls_per_step", "vq.nearest_indices.ms_per_step",
    "vq.nearest_indices.distance_evals_per_step", "vq.nearest_indices.calls_per_step",
    "vq.quantize.self_ms_per_step", "vq.ema_update.ms_per_step",
    "adaptive.adaptive_forward.self_ms_per_step", "adaptive.attention_logits.ms_per_step",
    "adaptive.gumbel_softmax.ms_per_step", "model.encode.self_ms_per_step",
    "model.decode.self_ms_per_step", "model.train_step.self_ms_per_step",
    "model.evaluate.ms_per_batch", "experiments.train_run.self_ms_per_step",
    "persist.save_checkpoint.ms", "persist.load_checkpoint.ms", "persist.checkpoint_bytes",
    "persist.payload_ratio", "data.synth_dataset.ms",
]


def hand_built_tree():
    #  0 train_run [0, 20]
    #  1   train_step [1, 11]        step 0
    #  2     backward [2, 8]         step 0
    #  3       conv bwd [3, 4]       step 0
    #  4       conv bwd [5, 7]       step 0
    #  5     ema_update [9, 10]      step 0
    #  6   train_step [12, 18]       step 1
    #  7     backward [13, 17]       step 1
    #  8   evaluate [18.5, 19.5]
    return [
        Span("experiments.train_run", 0.0, 20.0),
        Span("model.train_step", 1.0, 11.0, parent=0, step=0),
        Span("tensor.backward", 2.0, 8.0, parent=1, step=0),
        Span("tensor.conv2d_3x3.bwd", 3.0, 4.0, parent=2, step=0),
        Span("tensor.conv2d_3x3.bwd", 5.0, 7.0, parent=2, step=0),
        Span("vq.ema_update", 9.0, 10.0, parent=1, step=0),
        Span("model.train_step", 12.0, 18.0, parent=0, step=1),
        Span("tensor.backward", 13.0, 17.0, parent=6, step=1),
        Span("model.evaluate", 18.5, 19.5, parent=0),
    ]


def test_self_times_subtract_direct_children_only():
    assert self_times(hand_built_tree()) == [3.0, 3.0, 3.0, 1.0, 2.0, 1.0, 2.0, 4.0, 1.0]


def test_step_totals_sum_spans_and_counters_inside_steps():
    counters = [("tensor.graph_nodes", 0, 100), ("tensor.graph_nodes", 1, 100),
                ("tensor.graph_nodes", None, 7)]
    totals = step_totals(hand_built_tree(), counters)
    assert totals["tensor.backward"] == {"calls": 2, "total": 10.0, "self": 7.0}
    assert totals["model.train_step"] == {"calls": 2, "total": 16.0, "self": 5.0}
    assert totals["tensor.conv2d_3x3.bwd"]["total"] == 3.0
    assert totals["tensor.graph_nodes"]["count"] == 200
    assert "experiments.train_run" not in totals  # outside any step
    assert "model.evaluate" not in totals


def test_tracer_records_parents_steps_and_restores_patches():
    class Module:
        @staticmethod
        def inner(x):
            return x + 1

    tracer = Tracer()
    original = Module.inner
    tracer.patch(Module, "inner", tracer.timed("inner", Module.inner, count=lambda x: x))
    step = tracer.stepped("step", lambda x: Module.inner(x))
    with tracer.span("outer"):
        assert step(41) == 42
    assert [(s.name, s.parent, s.step) for s in tracer.spans] == [
        ("outer", None, None), ("step", 0, 0), ("inner", 1, 0)]
    assert tracer.counters == [("inner", 0, 41)]
    assert all(s.end >= s.start for s in tracer.spans)
    tracer.unpatch()
    assert Module.inner is original


def test_brute_force_nearest_prefers_lowest_index_on_ties():
    embeddings = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [-1.0, 0.0]])
    rows = np.array([[0.1, 0.0], [0.5, 0.0], [-0.9, 0.0]])
    # row 1 is equidistant from codewords 0 and 1/2: index 0 wins
    assert workload.brute_force_nearest(rows, embeddings).tolist() == [1, 0, 3]


def test_oracle_accepts_rounding_near_ties_but_not_wrong_or_higher_tied_picks():
    embeddings = np.array([[1.0, 0.0], [1.0 + 1e-13, 0.0], [0.0, 0.0], [0.0, 0.0],
                           [5.0, 0.0]])
    rows = np.array([[1.0 + 4e-14, 0.0], [0.1, 0.0]])
    # row 0 is nearer to codeword 0 by less than rounding: 0 and 1 both pass
    for near in (0, 1):
        assert workload.nearest_mismatches(rows, embeddings, np.array([near, 2])) == 0
    # codewords 2 and 3 tie exactly for row 1: only the lower index passes
    assert workload.nearest_mismatches(rows, embeddings, np.array([0, 3])) == 1
    # a codeword that is clearly farther fails
    assert workload.nearest_mismatches(rows, embeddings, np.array([4, 0])) == 2


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in workload.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in workload.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(workload.WORKLOADS)
    units = dict(workload.END_TO_END + workload.PER_LAYER)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert metric["unit"] == units[metric["name"]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workload.WORKLOADS))
def test_every_metric_is_emitted_with_a_unit(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = END_TO_END if trace == 0 else PER_LAYER
    assert set(expected) <= set(result["metrics"])
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], (int, float)) and entry["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-w64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
