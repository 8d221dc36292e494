"""Outside-in layer tracing for the benchmark.

The tracer replaces the public entry points of each nbg layer with
wrappers that record a span per call: name, start, end, parent span and
instance id. `from .x import y` binds y in every consumer at import
time, so each function is replaced in every nbg module that holds it
(and `linprog` in `scipy.optimize`, where nbg looks it up on each call).
Methods are replaced on their class. `Tracer.restore` puts every
original back.

Spans live in flat arrays (32 bytes each) and are written out once, at
the end of the run. Per-name call counts and self time (a span's
duration minus its traced children) are summed as the spans close, as
is each layer's total time: the duration of its spans that have no
ancestor in the same layer.
"""

from __future__ import annotations

import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

#: (span name, module, attribute); the layer is the part before the dot
ENTRY_POINTS = (
    ("games.cost_vector", "nbg.games", "cost_vector"),
    ("numeric.all_exact", "nbg.numeric", "all_exact"),
    ("linalg.solve", "nbg.linalg", "solve_linear_system"),
    ("linalg.rref", "nbg.linalg", "rref"),
    ("equilibrium.solve", "nbg.equilibrium", "solve_affine_by_supports"),
    ("equilibrium.contains", "nbg.equilibrium", "EquilibriumFamily.contains"),
    ("equilibrium.sample_points", "nbg.equilibrium", "EquilibriumFamily.sample_points"),
    ("equilibrium.family_cost_range", "nbg.equilibrium", "family_cost_range"),
    ("lp.linprog", "scipy.optimize", "linprog"),
    ("simplexopt.multistart", "nbg.simplexopt", "multistart_minimize"),
    ("simplexopt.descend", "nbg.simplexopt", "descend"),
    ("simplexopt.project", "nbg.simplexopt", "project_to_simplex"),
    ("metrics.price_report", "nbg.metrics", "price_report"),
    ("metrics.min_social_cost", "nbg.metrics", "min_social_cost"),
    ("metrics.social_costs", "nbg.metrics", "social_costs"),
)

LAYERS = ("games", "numeric", "linalg", "equilibrium", "lp", "simplexopt", "metrics")


def _note_solve(counts, args, kwargs, result):
    counts["linalg.solve." + result.status] += 1


def _note_supports(counts, args, kwargs, result):
    from nbg import EquilibriumFamily

    counts["equilibrium.supports"] += (1 << args[0].n) - 1
    families = sum(isinstance(item, EquilibriumFamily) for item in result)
    counts["equilibrium.families"] += families
    counts["equilibrium.points"] += len(result) - families


def _note_lp(counts, args, kwargs, result):
    if result.status != 0:
        counts["lp.nonoptimal"] += 1


def _note_descent(counts, args, kwargs, result):
    counts["simplexopt.descend.iters"] += result.iterations


def _note_minima(counts, args, kwargs, result):
    counts["simplexopt.kept"] += len(result)


def _social_cost_kind(args, kwargs):
    return kwargs.get("which", args[1] if len(args) > 1 else "utilitarian")


#: extra counters read off a call's arguments and result
RESULT_HOOKS = {
    "linalg.solve": _note_solve,
    "equilibrium.solve": _note_supports,
    "lp.linprog": _note_lp,
    "simplexopt.descend": _note_descent,
    "simplexopt.multistart": _note_minima,
}


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self):
        self.names = [name for name, _, _ in ENTRY_POINTS]
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("i")
        self.instance = array("i")
        self.instance_id = -1
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.layer_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.social_cost_ns = defaultdict(int)
        self._stack = []  # [span index, ns spent in traced children]
        self._depth = defaultdict(int)  # open spans per layer
        self._originals = []  # (owner, attribute, original)

    # -- installation -----------------------------------------------------

    def install(self):
        for name_id, (name, module, attribute) in enumerate(ENTRY_POINTS):
            owner = importlib.import_module(module)
            if "." in attribute:
                cls_name, method = attribute.split(".")
                cls = getattr(owner, cls_name)
                self._replace(cls, method, name_id)
                continue
            original = getattr(owner, attribute)
            wrapper = self._wrap(original, name_id)
            for consumer in self._consumers(module):
                for attr, value in list(vars(consumer).items()):
                    if value is original:
                        self._originals.append((consumer, attr, original))
                        setattr(consumer, attr, wrapper)

    def _replace(self, owner, attribute, name_id):
        original = owner.__dict__[attribute]
        self._originals.append((owner, attribute, original))
        setattr(owner, attribute, self._wrap(original, name_id))

    @staticmethod
    def _consumers(module):
        if not module.startswith("nbg"):
            return [importlib.import_module(module)]
        return [mod for key, mod in sorted(sys.modules.items())
                if mod is not None and (key == "nbg" or key.startswith("nbg."))]

    def restore(self):
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name_id):
        name = self.names[name_id]
        layer = name.split(".")[0]
        hook = RESULT_HOOKS.get(name)
        social = name == "metrics.min_social_cost"
        stack, depth = self._stack, self._depth
        start, end, parent = self.start, self.end, self.parent
        names, instances = self.name, self.instance

        def traced(*args, **kwargs):
            index = len(start)
            parent.append(stack[-1][0] if stack else -1)
            names.append(name_id)
            instances.append(self.instance_id)
            end.append(0)
            frame = [index, 0]
            stack.append(frame)
            outermost = depth[layer] == 0
            depth[layer] += 1
            t0 = perf_counter_ns()
            start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                end[index] = t1
                depth[layer] -= 1
                stack.pop()
                span = t1 - t0
                if stack:
                    stack[-1][1] += span
                self.calls[name] += 1
                self.self_ns[name] += span - frame[1]
                if outermost:
                    self.layer_ns[layer] += span
                if social:
                    self.social_cost_ns[_social_cost_kind(args, kwargs)] += span
            if hook is not None:
                hook(self.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- reporting --------------------------------------------------------

    def snapshot(self):
        """Counters so far, to be differenced by `metrics`."""
        return (dict(self.calls), dict(self.self_ns), dict(self.layer_ns),
                dict(self.counts), dict(self.social_cost_ns))

    def metrics(self, before, wall_s):
        """Per-layer metrics for the spans recorded since `before`."""
        calls, self_ns, layer_ns, counts, social_ns = (
            {k: now.get(k, 0) - then.get(k, 0) for k in now.keys() | then.keys()}
            for now, then in zip(self.snapshot(), before))

        def c(name):
            return calls.get(name, 0)

        def s(name):
            return self_ns.get(name, 0) / 1e9

        supports = counts.get("equilibrium.supports", 0)
        found = counts.get("equilibrium.points", 0) + counts.get("equilibrium.families", 0)
        out = {
            "linalg.solve.calls": c("linalg.solve"),
            "linalg.solve.s": s("linalg.solve"),
            "linalg.solve.unique": counts.get("linalg.solve.unique", 0),
            "linalg.solve.family": counts.get("linalg.solve.family", 0),
            "linalg.solve.none": counts.get("linalg.solve.none", 0),
            "linalg.rref.calls": c("linalg.rref"),
            "linalg.rref.s": s("linalg.rref"),
            "numeric.all_exact.calls": c("numeric.all_exact"),
            "numeric.all_exact.s": s("numeric.all_exact"),
            "lp.calls": c("lp.linprog"),
            "lp.s": s("lp.linprog"),
            "lp.nonoptimal": counts.get("lp.nonoptimal", 0),
            "equilibrium.contains.calls": c("equilibrium.contains"),
            "equilibrium.contains.s": s("equilibrium.contains"),
            "equilibrium.solve.calls": c("equilibrium.solve"),
            "equilibrium.solve.s": s("equilibrium.solve"),
            "equilibrium.supports": supports,
            "equilibrium.points": counts.get("equilibrium.points", 0),
            "equilibrium.families": counts.get("equilibrium.families", 0),
            "equilibrium.yield": found / supports if supports else 0.0,
            "equilibrium.family_cost_range.calls": c("equilibrium.family_cost_range"),
            "equilibrium.family_cost_range.s": s("equilibrium.family_cost_range"),
            "equilibrium.sample_points.calls": c("equilibrium.sample_points"),
            "equilibrium.sample_points.s": s("equilibrium.sample_points"),
            "metrics.price_report.calls": c("metrics.price_report"),
            "metrics.min_social_cost.utilitarian_s": social_ns.get("utilitarian", 0) / 1e9,
            "metrics.min_social_cost.egalitarian_s": social_ns.get("egalitarian", 0) / 1e9,
            "metrics.social_costs.calls": c("metrics.social_costs"),
            "simplexopt.descend.calls": c("simplexopt.descend"),
            "simplexopt.descend.iters": counts.get("simplexopt.descend.iters", 0),
            "simplexopt.descend.s": s("simplexopt.descend"),
            "simplexopt.project.calls": c("simplexopt.project"),
            "simplexopt.project.s": s("simplexopt.project"),
            "simplexopt.kept_ratio": (counts.get("simplexopt.kept", 0) / c("simplexopt.descend")
                                      if c("simplexopt.descend") else 0.0),
            "games.cost_vector.calls": c("games.cost_vector"),
            "games.cost_vector.s": s("games.cost_vector"),
        }
        for layer in LAYERS:
            out[f"{layer}.share"] = layer_ns.get(layer, 0) / 1e9 / wall_s
        return out

    def write(self, path):
        """Write every span as columns of one compressed .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names),
                            name=np.frombuffer(self.name, dtype=np.int32),
                            start_ns=np.frombuffer(self.start, dtype=np.int64),
                            end_ns=np.frombuffer(self.end, dtype=np.int64),
                            parent=np.frombuffer(self.parent, dtype=np.int64),
                            instance=np.frombuffer(self.instance, dtype=np.int32))
