"""The benchmark's layer tracing (``perfbench/workload.py --trace 1``)
patches package functions under the names their callers look them up
by. A renamed or moved function would leave its span empty without any
error, so every wrapped name must record a span in a short run."""

import importlib
from dataclasses import replace
from pathlib import Path

import pytest

from aqvq import data, experiments

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def workload(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workload")


def test_every_layer_wrapper_records_a_span(workload):
    wrapped, recorded, counters = set(), set(), set()

    class Recorder(workload.Tracer):
        def timed(self, name, fn, count=None):
            wrapped.add(name)
            return super().timed(name, fn, count)

        def stepped(self, name, fn):
            wrapped.add(name)
            return super().stepped(name, fn)

    for name in ("dense-w64", "conv-w64"):
        source, config = workload.make_inputs(name, 11, 0)
        dataset = data.synth_dataset(source)
        tracer = Recorder()
        workload.install_layer_wrappers(tracer)
        try:
            experiments.train_run(config, dataset, 2)
        finally:
            tracer.unpatch()
        recorded |= {span.name for span in tracer.spans}
        counters |= {name for name, _, _ in tracer.counters}
    assert recorded == wrapped
    assert {"tensor.conv2d_3x3", "tensor.conv2d_3x3.bwd", "vq.nearest_indices"} <= recorded
    assert {"tensor.graph_nodes", "vq.nearest_indices"} <= counters


def test_fixed_quantizer_records_a_quantize_span(workload):
    source, config = workload.make_inputs("dense-w64", 11, 0)
    tracer = workload.Tracer()
    workload.install_layer_wrappers(tracer)
    try:
        experiments.train_run(replace(config, quantizer="fixed"), data.synth_dataset(source), 2)
    finally:
        tracer.unpatch()
    recorded = {span.name for span in tracer.spans}
    assert "vq.quantize" in recorded
    assert "adaptive.adaptive_forward" not in recorded


def test_every_conv_layer_records_a_conv_span(workload):
    # perfbench's per-layer conv figures come from the spans of the name
    # model.conv2d_3x3; a layer that called the op under another name
    # would drop out of them without failing
    source, config = workload.make_inputs("conv-w64", 11, 0)
    tracer = workload.Tracer()
    workload.install_layer_wrappers(tracer)
    try:
        experiments.train_run(config, data.synth_dataset(source), 2)
    finally:
        tracer.unpatch()
    steps = [span.step for span in tracer.spans
             if span.name == "tensor.conv2d_3x3" and span.step is not None]
    assert sorted(steps) == [0] * 4 + [1] * 4
