"""Layer spans recorded from outside the program.

The traced run replaces the names the callers actually look up (the
modules import each other by name, so ``alphaprivacy.sweep.train`` is
wrapped, not ``alphaprivacy.training.train``) with wrappers that append a
span ``[name, start, end, parent, extra]`` to an in-memory list.  Spans are
written out when the run ends and per-layer counts and self times are
computed from them.  Untraced runs never import this module's hooks.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import statistics
import time

from workloads import grid_candidates


def _forward_flop(args, kwargs, result):
    """Floating-point operations of the layer matmuls (two per
    multiply-add), computed from the input and weight shapes."""
    net, x = args[0], args[1]
    rows = x.shape[0] * x.shape[1]
    flop = 0
    for layer in net.layers:
        flop += 2 * rows * layer.w.shape[0] * layer.w.shape[1]
    return flop


# (module, class or None, attribute, span name, extra-from-call or None)
HOOKS = [
    ("alphaprivacy.datasets", "BatchStream", "draw", "datasets.draw", None),
    ("alphaprivacy.sweep", None, "train_eval_split", "datasets.split", None),
    ("alphaprivacy.nets", "Network", "forward", "nets.forward", _forward_flop),
    ("alphaprivacy.nets", "Network", "backward", "nets.backward", None),
    ("alphaprivacy.nets", "SgdMomentum", "step", "nets.sgd", None),
    ("alphaprivacy.training", None, "adversary_loss", "losses.adversary",
     lambda a, k, r: r.clamped),
    ("alphaprivacy.training", None, "releaser_loss", "losses.releaser", None),
    ("alphaprivacy.losses", None, "batch_sequence_arimoto_entropy_grad",
     "measures.seq_entropy_grad", None),
    ("alphaprivacy.measures", "JointPmf", "marginal", "measures.marginal", None),
    ("alphaprivacy.measures", None, "renyi_entropy", "measures.eval", None),
    ("alphaprivacy.measures", None, "arimoto_conditional_entropy", "measures.eval", None),
    ("alphaprivacy.measures", None, "alpha_mutual_information", "measures.eval", None),
    ("alphaprivacy.channel", None, "releaser_objective", "channel.objective", None),
    ("alphaprivacy.channel", None, "objective_gradient", "channel.gradient", None),
    ("alphaprivacy.channel", None, "optimize_channel", "channel.optimize",
     lambda a, k, r: a[1].restarts),
    ("alphaprivacy.channel", None, "grid_oracle", "channel.oracle",
     lambda a, k, r: grid_candidates(a[0], a[2])),
    ("alphaprivacy.sweep", None, "train", "training.train",
     lambda a, k, r: a[0].iterations),
    ("alphaprivacy.sweep", None, "train_attacker", "training.attacker", None),
    ("alphaprivacy.sweep", None, "evaluate_system", "training.eval", None),
    ("alphaprivacy.training", None, "normalized_error", "metrics", None),
    ("alphaprivacy.training", None, "balanced_accuracy", "metrics", None),
    ("alphaprivacy.sweep", None, "balanced_accuracy", "metrics", None),
    ("alphaprivacy.sweep", None, "run_point", "sweep.point", None),
]

SPAN_NAMES = list(dict.fromkeys(hook[3] for hook in HOOKS))

NAME, START, END, PARENT, EXTRA = range(5)


class Tracer:
    """In-memory span recorder for a single-threaded, single-process run."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, fn, name, extra):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, cls, attr, name, extra in HOOKS:
                owner = importlib.import_module(module_name)
                if cls is not None:
                    owner = getattr(owner, cls)
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, extra))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "extra"],
                       "spans": self.spans}, fh)


def layer_stats(spans):
    """Per span name: calls, inclusive seconds (outermost spans of that name
    only, so nested same-name calls are not counted twice), self seconds
    (duration minus direct children), and the sum of ``extra``."""
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += span[END] - span[START]
    stats = {}
    for i, span in enumerate(spans):
        entry = stats.setdefault(
            span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0, "extra": 0, "durations": []}
        )
        duration = span[END] - span[START]
        entry["calls"] += 1
        entry["self_s"] += duration - child_s[i]
        entry["extra"] += span[EXTRA]
        entry["durations"].append(duration)
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            entry["s"] += duration
    return stats


def root_seconds(spans):
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def optimize_trials(spans):
    """Backtracking trials: objective evaluations made inside optimize_channel,
    minus the one initial evaluation per restart."""
    inside = sum(
        1 for s in spans
        if s[NAME] == "channel.objective" and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "channel.optimize"
    )
    restarts = sum(s[EXTRA] for s in spans if s[NAME] == "channel.optimize")
    return inside - restarts


def per_layer_metrics(spans, traced_s, untraced_s, pool_wall_s=None, workers=1):
    """Every per-layer metric the benchmark declares; 0 where a layer is not
    on this workload's path."""
    stats = layer_stats(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "extra": 0, "durations": []}

    def get(name):
        return stats.get(name, empty)

    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (get(name)["calls"], "count")
        out[f"{name}.s"] = (get(name)["s"], "s")
    out["nets.forward.gflop"] = (get("nets.forward")["extra"] / 1e9, "GFLOP-computed")
    out["losses.clamped"] = (get("losses.adversary")["extra"], "count")
    trials = optimize_trials(spans)
    gradient_calls = get("channel.gradient")["calls"]
    out["channel.backtrack_accept_ratio"] = (
        gradient_calls / trials if trials > 0 else 0.0, "ratio"
    )
    out["channel.optimize.self_s"] = (get("channel.optimize")["self_s"], "s")
    out["channel.oracle.cands"] = (get("channel.oracle")["extra"], "count")
    out["training.train.self_s"] = (get("training.train")["self_s"], "s")
    out["training.game_iters"] = (get("training.train")["extra"], "count")
    points = get("sweep.point")["durations"]
    out["sweep.point.s_median"] = (statistics.median(points) if points else 0.0, "s")
    out["sweep.point.s_max"] = (max(points) if points else 0.0, "s")
    out["sweep.pool_efficiency"] = (
        sum(points) / (workers * pool_wall_s) if pool_wall_s else 0.0, "ratio"
    )
    out["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    out["trace.unattributed_s"] = (traced_s - root_seconds(spans), "s")
    out["trace.spans"] = (len(spans), "count")
    return out
