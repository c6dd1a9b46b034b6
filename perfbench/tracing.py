"""Span tracing of deskclip from the outside.

``Tracer.install`` replaces the public functions of each layer, in every
deskclip module that refers to them, with wrappers that record a span
(name, start, end, parent) around the call. Tape ops also get their
backward closure wrapped; a backward span is charged to the span that was
innermost when the op was created, so ``encoders.image.backward`` is the
backward time of the ops the image encoder built. Spans stay in memory
and are written out when the run ends. ``uninstall`` puts every original
back, so untraced steps run the program exactly as shipped.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

import numpy as np

# tape ops whose forward and backward are reported one by one
REPORTED_OPS = (
    "conv2d", "matmul", "gelu", "layernorm", "softmax", "slice", "transpose", "reshape",
    "add", "mul", "mean", "max", "l2_normalize", "cross_entropy", "embedding_lookup", "concat",
)
# every differentiable function of deskclip.tensor; the span drops the trailing "_"
TAPE_OPS = (
    "add", "sub", "mul", "div", "neg", "power", "exp", "log", "gelu", "reshape", "transpose",
    "broadcast_to", "concat", "slice_", "select_positions", "sum_", "mean", "max_", "matmul",
    "softmax", "log_softmax", "l2_normalize", "layernorm", "embedding_lookup", "cross_entropy", "conv2d",
)
LOSS_TERMS = ("clip", "image_ssl", "text_mlm", "multiview", "neighbor", "token_align")
# (module, function) -> span name for the layer boundaries
LAYER_FUNCTIONS = {
    ("deskclip.trainer", "assemble_views"): "trainer.assemble_views",
    ("deskclip.trainer", "compute_step_loss"): "trainer.compute_step_loss",
    ("deskclip.trainer", "save_training_checkpoint"): "trainer.save_training_checkpoint",
    ("deskclip.trainer", "load_model_for_eval"): "trainer.load_model_for_eval",
    ("deskclip.data", "load_images"): "data.load_images",
    ("deskclip.data", "encode_batch"): "data.encode_batch",
    ("deskclip.augment", "augment_image"): "augment.image",
    ("deskclip.augment", "augment_text"): "augment.text",
    ("deskclip.tensor", "backward"): "tensor.backward",
    ("deskclip.losses", "clip_loss"): "losses.clip",
    ("deskclip.losses", "nt_xent_loss"): "losses.image_ssl",
    ("deskclip.losses", "masked_token_loss"): "losses.text_mlm",
    ("deskclip.losses", "multiview_loss"): "losses.multiview",
    ("deskclip.losses", "neighbor_supervision_loss"): "losses.neighbor",
    ("deskclip.losses", "tokenwise_alignment_loss"): "losses.token_align",
    ("deskclip.zeroshot", "evaluate"): "zeroshot.evaluate",
    ("deskclip.zeroshot", "build_classifier"): "zeroshot.build_classifier",
    ("deskclip.zeroshot", "classify"): "zeroshot.classify",
    ("deskclip.checkpoint", "save_checkpoint"): "checkpoint.save",
    ("deskclip.checkpoint", "load_checkpoint"): "checkpoint.load",
}
# (module, class, method) -> span name
LAYER_METHODS = {
    ("deskclip.encoders", "DualEncoder", "encode_image"): "encoders.image",
    ("deskclip.encoders", "DualEncoder", "encode_text"): "encoders.text",
    ("deskclip.encoders", "TextEncoder", "forward_hidden"): "encoders.text",
    ("deskclip.optim", "AdamW", "step"): "optim.step",
}


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []   # -1 for a root
        self.selfs: list[int] = []     # duration minus the spans that ran inside it
        self._stack: list[list[int]] = []  # [span index, ns spent in child spans]
        self._patches: list[tuple[object, str, object]] = []

    # spans ---------------------------------------------------------------------

    def begin(self, name: str, parent: int | None = None) -> int:
        idx = len(self.names)
        if parent is None:
            parent = self._stack[-1][0] if self._stack else -1
        self.names.append(name)
        self.parents.append(parent)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(0)
        self.selfs.append(0)
        self._stack.append([idx, 0])
        return idx

    def end(self, idx: int) -> None:
        now = time.perf_counter_ns()
        top, child_ns = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.names[idx]!r} closed out of order")
        duration = now - self.starts[idx]
        self.ends[idx] = now
        self.selfs[idx] = duration - child_ns
        if self._stack:
            self._stack[-1][1] += duration

    def open_span(self, name: str) -> bool:
        return any(self.names[i] == name for i, _ in self._stack)

    # patching ----------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer boundary and tape op; idempotent per uninstall."""
        if self._patches:
            return
        tensor = sys.modules["deskclip.tensor"]
        for attr in TAPE_OPS:
            self._replace_function(tensor, attr, self._wrap_op(getattr(tensor, attr), attr.rstrip("_")))
        for (mod_name, attr), span in LAYER_FUNCTIONS.items():
            module = sys.modules[mod_name]
            self._replace_function(module, attr, self._wrap_layer(getattr(module, attr), span))
        for (mod_name, cls_name, attr), span in LAYER_METHODS.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[attr]
            nested_pass = attr == "forward_hidden"
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap_layer(original, span, skip_if_open=nested_pass))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _replace_function(self, module, attr: str, wrapper) -> None:
        # the name is also bound by `from module import name` in sibling modules
        original = getattr(module, attr)
        for other in list(sys.modules.values()):
            name = getattr(other, "__name__", "")
            if name == "deskclip" or name.startswith("deskclip."):
                if other.__dict__.get(attr) is original:
                    self._patches.append((other, attr, original))
                    setattr(other, attr, wrapper)

    def _wrap_layer(self, fn, span: str, skip_if_open: bool = False):
        tracer = self

        def traced(*args, **kwargs):
            # a trunk pass called from inside encode_text is the same pass
            if skip_if_open and tracer.open_span(span):
                return fn(*args, **kwargs)
            idx = tracer.begin(span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)

        traced.__wrapped__ = fn
        return traced

    def _wrap_op(self, fn, op: str):
        tracer = self
        forward_name = f"tensor.{op}.forward"
        backward_name = f"tensor.{op}.backward"

        def traced(*args, **kwargs):
            idx = tracer.begin(forward_name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            closure = out._backward
            if closure is not None:
                charge = tracer.parents[idx]

                def traced_backward(grad):
                    j = tracer.begin(backward_name, parent=charge)
                    try:
                        closure(grad)
                    finally:
                        tracer.end(j)

                out._backward = traced_backward
            return out

        traced.__wrapped__ = fn
        return traced

    # output --------------------------------------------------------------------------

    def dump(self) -> dict:
        base = min(self.starts) if self.starts else 0
        return {
            "columns": ["name", "start_ns", "end_ns", "parent", "self_ns"],
            "spans": [
                [n, s - base, e - base, p, d]
                for n, s, e, p, d in zip(self.names, self.starts, self.ends, self.parents, self.selfs)
            ],
        }


def layer_metrics(tracer: Tracer, roots: list[int]) -> tuple[dict[str, float], dict[str, list[int]]]:
    """Per-root averages of the layer and op figures, plus per-root call counts.

    A root is one traced step (or eval round); every span created between a
    root's begin and end belongs to it. Returns (metrics, counts) where
    ``counts[name]`` lists that name's call count in each root, so callers
    can see whether the count repeats exactly.
    """
    names, parents = tracer.names, tracer.parents
    duration: dict[str, int] = defaultdict(int)  # inclusive time per span name
    charged: dict[str, int] = defaultdict(int)   # backward time per creating span name
    nested: dict[str, int] = defaultdict(int)    # layer spans run inside a layer span
    counts: dict[str, list[int]] = defaultdict(lambda: [0] * len(roots))
    walk_ns = root_ns = accounted_ns = 0
    for k, root in enumerate(roots):
        root_ns += tracer.ends[root] - tracer.starts[root]
        accounted_ns += tracer.ends[root] - tracer.starts[root] - tracer.selfs[root]
        for i in range(root + 1, _last_index_of(tracer, root) + 1):
            name = names[i]
            ns = tracer.ends[i] - tracer.starts[i]
            counts[name][k] += 1
            duration[name] += ns
            if name.startswith("tensor.") and name.endswith(".backward"):
                if parents[i] >= 0:
                    charged[names[parents[i]]] += ns
            elif not name.startswith("tensor.") or name == "tensor.backward":
                nested[names[parents[i]]] += ns
            if name == "tensor.backward":
                walk_ns += tracer.selfs[i]
    steps = max(1, len(roots))

    def ms(table: dict[str, int], key: str) -> float:
        return table.get(key, 0) / steps / 1e6

    metrics: dict[str, float] = {}
    for name in ("trainer.assemble_views", "data.load_images", "data.encode_batch",
                 "augment.image", "augment.text", "trainer.compute_step_loss", "tensor.backward",
                 "optim.step", "zeroshot.build_classifier", "zeroshot.classify"):
        metrics[f"{name}_ms"] = ms(duration, name)
    metrics["tensor.backward.walk_ms"] = walk_ns / steps / 1e6
    for name in ("augment.image", "augment.text"):
        metrics[f"{name}_calls"] = _per_root(counts, name, steps)
    for op in REPORTED_OPS:
        metrics[f"tensor.{op}.forward_ms"] = ms(duration, f"tensor.{op}.forward")
        metrics[f"tensor.{op}.backward_ms"] = ms(duration, f"tensor.{op}.backward")
        metrics[f"tensor.{op}.calls"] = _per_root(counts, f"tensor.{op}.forward", steps)
    other = sorted({attr.rstrip("_") for attr in TAPE_OPS} - set(REPORTED_OPS))
    metrics["tensor.other.forward_ms"] = sum(ms(duration, f"tensor.{op}.forward") for op in other)
    metrics["tensor.other.backward_ms"] = sum(ms(duration, f"tensor.{op}.backward") for op in other)
    # a layer's own time takes out the layers it called (the MLM trunk pass
    # inside losses.text_mlm counts under encoders.text) and keeps its ops
    for side in ("image", "text"):
        name = f"encoders.{side}"
        metrics[f"{name}.forward_ms"] = ms(duration, name) - ms(nested, name)
        metrics[f"{name}.backward_ms"] = ms(charged, name)
        metrics[f"{name}.calls"] = _per_root(counts, name, steps)
    for term in LOSS_TERMS:
        name = f"losses.{term}"
        metrics[f"{name}.forward_ms"] = ms(duration, name) - ms(nested, name)
        metrics[f"{name}.backward_ms"] = ms(charged, name)
    metrics["trace.accounted_pct"] = 100.0 * accounted_ns / root_ns if root_ns else 0.0
    return metrics, dict(counts)


def _last_index_of(tracer: Tracer, root: int) -> int:
    end = tracer.ends[root]
    i = root
    while i + 1 < len(tracer.names) and tracer.starts[i + 1] <= end:
        i += 1
    return i


def _per_root(counts: dict[str, list[int]], name: str, roots: int) -> float:
    total = sum(counts.get(name, [0]))
    return total // roots if total % roots == 0 else total / roots


def median_span_ms(tracer: Tracer, name: str, since: int = 0) -> float:
    durations = [
        (tracer.ends[i] - tracer.starts[i]) / 1e6
        for i in range(since, len(tracer.names))
        if tracer.names[i] == name
    ]
    return statistics.median(durations) if durations else 0.0


def graph_stats(root, params) -> tuple[int, float]:
    """(node count, MB of activations) held by the tape under ``root``.

    Activations are every array a node or its backward closure keeps
    alive, counted once per underlying buffer; parameter storage is not
    counted.
    """
    tensor = sys.modules["deskclip.tensor"]
    nodes = tensor.build_graph(root).nodes
    param_buffers = {id(_owner(p.data)) for p in params}
    seen: dict[int, int] = {}

    def add_array(arr) -> None:
        owner = _owner(arr)
        key = id(owner)
        if key not in param_buffers and key not in seen:
            seen[key] = owner.nbytes

    def add_value(value) -> None:
        if isinstance(value, np.ndarray):
            add_array(value)
        elif isinstance(value, tensor.Tensor):
            add_array(value.data)
        elif isinstance(value, (tuple, list)):
            for item in value:
                add_value(item)

    for node in nodes:
        add_array(node.data)
        closure = getattr(node._backward, "__closure__", None) or ()
        for cell in closure:
            try:
                add_value(cell.cell_contents)
            except ValueError:  # empty cell
                continue
    return len(nodes), sum(seen.values()) / 2**20


def _owner(arr: np.ndarray) -> np.ndarray:
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr
