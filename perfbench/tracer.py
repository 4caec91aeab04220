"""Span tracing from the benchmark's side of each bevis module boundary.

``Tracer.install`` replaces public bevis functions with timing wrappers in
every bevis module namespace that binds them, which is where their callers
look them up (``bevis.pipeline.mean_shift``, ``bevis.net3d.build_knn``,
``bevis.autodiff.conv3x3`` and so on). Methods are wrapped on their class.
For autodiff ops the backward closure stored on each output tensor is wrapped
as well, so forward and backward time are attributed separately. Nothing in
the program changes; ``uninstall`` puts every original back.

Spans are kept in memory as ``[name, start, end, parent]`` and written once,
when the traced run ends. A span's self time is its duration minus the time
covered by its direct children.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

# tape ops whose forward and backward are timed separately
TAPE_OPS = (
    "conv3x3",
    "batchnorm_train",
    "matmul",
    "gather_rows",
    "repeat_rows",
    "reduce_max",
    "concat",
    "pairwise_sqdist",
    "cross_entropy",
)

# (module, function, span name) for plain functions
FUNCTIONS = (
    ("bevis.pipeline", "generate_dataset", "pipeline.generate_dataset"),
    ("bevis.pipeline", "load_split", "pipeline.load_split"),
    ("bevis.pipeline", "train_stage_2d", "pipeline.train_stage_2d"),
    ("bevis.pipeline", "train_stage_3d", "pipeline.train_stage_3d"),
    ("bevis.pipeline", "run_infer", "pipeline.run_infer"),
    ("bevis.pipeline", "run_eval", "pipeline.run_eval"),
    ("bevis.pipeline", "save_prediction", "pipeline.save_prediction"),
    ("bevis.pipeline", "load_prediction", "pipeline.load_prediction"),
    ("bevis.bev", "augment", "bev.augment"),
    ("bevis.bev", "rasterize", "bev.rasterize"),
    ("bevis.bev", "unproject", "bev.unproject"),
    ("bevis.net2d", "instance_loss_2d", "net2d.instance_loss_2d"),
    ("bevis.net2d", "embed_view", "net2d.embed_view"),
    ("bevis.net3d", "build_knn", "net3d.build_knn"),
    ("bevis.net3d", "infer_full_scene", "net3d.infer_full_scene"),
    ("bevis.net3d", "compute_targets", "net3d.compute_targets"),
    ("bevis.grouping", "mean_shift", "grouping.mean_shift"),
    ("bevis.grouping", "assign_semantics", "grouping.assign_semantics"),
    ("bevis.grouping", "split_inconsistent", "grouping.split_inconsistent"),
    ("bevis.scene", "generate_scene", "scene.generate_scene"),
    ("bevis.cloudio", "save_cloud", "cloudio.save_cloud"),
    ("bevis.cloudio", "load_cloud", "cloudio.load_cloud"),
    ("bevis.checkpoint", "save_arrays", "checkpoint.save_arrays"),
    ("bevis.checkpoint", "load_arrays", "checkpoint.load_arrays"),
    ("bevis.metrics", "strict_ap", "metrics.strict_ap"),
    ("bevis.metrics", "instances_from_labels", "metrics.instances_from_labels"),
    ("bevis.metrics", "semantic_metrics", "metrics.semantic_metrics"),
)

# (module, class, method, span name)
METHODS = (
    ("bevis.autodiff", "Tensor", "backward", "autodiff.backward"),
    ("bevis.optim", "Adam", "step", "optim.adam_step"),
    ("bevis.net3d", "PropagationNet3D", "forward", "net3d.forward"),
    ("bevis.scene", "Labeling", "canonical", "scene.canonical"),
)

# the benchmark's own entry points into the pipeline; their self time is the
# orchestration and untraced op work no finer span covers
ROOT_SPANS = (
    "pipeline.generate_dataset",
    "pipeline.load_split",
    "pipeline.train_stage_2d",
    "pipeline.train_stage_3d",
    "pipeline.run_infer",
    "pipeline.run_eval",
)

# every other span is reported as its self time, named span name + "_s"
SELF_TIME_SPANS = tuple(
    name for *_, name in METHODS + FUNCTIONS if name not in ROOT_SPANS
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    def _inside(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _time_backward(self, name):
        def after(args, result):
            out = result[0] if isinstance(result, tuple) else result
            backward = out._backward
            if backward is not None:
                out._backward = lambda g: self.call(name, backward, g)

        return after

    # -- counters recorded at the same boundaries --------------------------

    def _after_hooks(self):
        counts = self.counts

        def forward(args, result):
            # args: (net, features, neighbors, training)
            if self._inside("net3d.infer_full_scene"):
                counts["net3d.blocks"] += 1
                counts["net3d.block_points"] += len(args[1])

        def full_scene(args, result):
            # args: (net, features, xyz, k, diameter)
            counts["net3d.scene_points"] += len(args[2])

        def clusters(args, result):
            counts["grouping.clusters"] += int(result.max()) + 1

        def splits(args, result):
            before = len(set(args[0].instance.tolist()))
            counts["grouping.splits"] += len(set(result.instance.tolist())) - before

        def file_bytes(prefix):
            def hook(args, result):
                counts[prefix + "_bytes"] += os.path.getsize(args[0])  # args: (path, ...)

            return hook

        return {
            "net3d.forward": forward,
            "net3d.infer_full_scene": full_scene,
            "grouping.mean_shift": clusters,
            "grouping.split_inconsistent": splits,
            "cloudio.save_cloud": file_bytes("cloudio.save_cloud"),
            "cloudio.load_cloud": file_bytes("cloudio.load_cloud"),
            "checkpoint.save_arrays": file_bytes("checkpoint.save_arrays"),
            "checkpoint.load_arrays": file_bytes("checkpoint.load_arrays"),
        }

    # -- patching ----------------------------------------------------------

    def _patch_everywhere(self, module_name, attr, replacement):
        original = getattr(sys.modules[module_name], attr)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "bevis" or mod_name.startswith("bevis.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)
                    self._undo.append((mod, key, original))

    def install(self):
        import bevis.pipeline  # noqa: F401  (imports every module patched below)

        hooks = self._after_hooks()
        ad = sys.modules["bevis.autodiff"]
        for op in TAPE_OPS:
            fn = getattr(ad, op)
            name = f"autodiff.{op}"
            self._patch_everywhere(
                "bevis.autodiff", op, self._wrap(f"{name}.fwd", fn, self._time_backward(f"{name}.bwd"))
            )
        node = ad._node
        counts = self.counts

        def counting_node(data, parents, backward):
            out = node(data, parents, backward)
            if out._backward is not None:
                counts["autodiff.nodes"] += 1
            return out

        self._patch_everywhere("bevis.autodiff", "_node", counting_node)
        for module_name, attr, name in FUNCTIONS:
            fn = getattr(sys.modules[module_name], attr)
            self._patch_everywhere(module_name, attr, self._wrap(name, fn, hooks.get(name)))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, original, hooks.get(name)))
            self._undo.append((cls, attr, original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results -----------------------------------------------------------

    def totals(self):
        """Per span name: (self seconds, inclusive seconds, calls)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        incl_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i, (name, start, end, parent) in enumerate(self.spans):
            self_s[name] += (end - start) - child[i]
            incl_s[name] += end - start
            calls[name] += 1
        return self_s, incl_s, calls

    def layer_metrics(self) -> dict[str, float]:
        self_s, incl_s, calls = self.totals()
        out: dict[str, float] = {}
        for op in TAPE_OPS:
            name = f"autodiff.{op}"
            out[f"{name}.fwd_s"] = self_s.get(f"{name}.fwd", 0.0)
            out[f"{name}.bwd_s"] = self_s.get(f"{name}.bwd", 0.0)
            out[f"{name}.calls"] = float(calls.get(f"{name}.fwd", 0))
        for name in SELF_TIME_SPANS:
            out[f"{name}_s"] = self_s.get(name, 0.0)
        out["net3d.infer_full_scene_incl_s"] = incl_s.get("net3d.infer_full_scene", 0.0)
        out["pipeline.other_s"] = sum(self_s.get(name, 0.0) for name in ROOT_SPANS)
        out["net3d.build_knn_calls"] = float(calls.get("net3d.build_knn", 0))
        for key in (
            "autodiff.nodes",
            "net3d.blocks",
            "grouping.clusters",
            "grouping.splits",
            "cloudio.save_cloud_bytes",
            "cloudio.load_cloud_bytes",
            "checkpoint.save_arrays_bytes",
            "checkpoint.load_arrays_bytes",
        ):
            out[key] = float(self.counts.get(key, 0.0))
        block_points = self.counts.get("net3d.block_points", 0.0)
        out["net3d.coverage_ratio"] = (
            self.counts["net3d.scene_points"] / block_points if block_points else 0.0
        )
        return out

    def write(self, path, env: dict):
        t0 = min((s[1] for s in self.spans), default=0.0)
        rows = [[name, start - t0, end - t0, parent] for name, start, end, parent in self.spans]
        tmp = f"{path}.tmp"
        with open(tmp, "w") as fh:
            json.dump({"env": env, "fields": ["name", "start_s", "end_s", "parent"], "spans": rows}, fh)
        os.replace(tmp, path)
