"""The tracer's attribution rules, and exact repetition of the counts."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from deskclip import tensor as T
from tracing import Tracer, graph_stats, layer_metrics

HERE = Path(__file__).resolve().parent


def test_backward_is_charged_to_the_creating_span():
    tracer = Tracer()
    tracer.install()
    try:
        root = tracer.begin("step")
        a = T.Tensor(np.arange(4.0).reshape(2, 2), requires_grad=True)
        term = tracer.begin("losses.clip")
        y = T.matmul(a, a)
        tracer.end(term)
        T.backward(T.sum_(y))
        tracer.end(root)
    finally:
        tracer.uninstall()
    assert not hasattr(T.matmul, "__wrapped__") and not hasattr(T.backward, "__wrapped__")
    matmul_bwd = tracer.names.index("tensor.matmul.backward")
    sum_bwd = tracer.names.index("tensor.sum.backward")
    assert tracer.names[tracer.parents[matmul_bwd]] == "losses.clip"
    assert tracer.names[tracer.parents[sum_bwd]] == "step"
    metrics, counts = layer_metrics(tracer, [root])
    assert counts["tensor.matmul.forward"] == [1] and counts["tensor.backward"] == [1]
    assert metrics["tensor.matmul.calls"] == 1
    assert metrics["losses.clip.backward_ms"] == (tracer.ends[matmul_bwd] - tracer.starts[matmul_bwd]) / 1e6
    # self times of everything under the root add up to the root's duration
    total_self = sum(tracer.selfs[i] for i in range(root, len(tracer.names)))
    assert total_self == tracer.ends[root] - tracer.starts[root]
    assert np.array_equal(a.grad, np.ones((2, 2)) @ a.data.T + a.data.T @ np.ones((2, 2)))


def test_graph_stats_counts_activations_once():
    w = T.Tensor(np.ones((3, 3)), requires_grad=True)
    x = T.Tensor(np.ones((5, 3)))
    h = T.matmul(x, w)           # keeps x (120 B) and w (a parameter, not counted)
    out = T.sum_(T.reshape(h, (15,)))  # the reshape is a view of h
    nodes, mb = graph_stats(out, [w])
    assert nodes == 4  # the parameter leaf and three ops
    assert mb * 2**20 == x.data.nbytes + h.data.nbytes + out.data.nbytes


def _traced_counts(seed: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "train-conv-clip", "--seed", str(seed),
           "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


def test_counts_repeat_exactly_across_traced_runs():
    first, second = _traced_counts(11), _traced_counts(11)
    assert first == second
    assert first["tensor.conv2d.calls"] == 3 and first["encoders.text.calls"] == 1
    assert all(float(v).is_integer() for v in first.values())
