"""In-memory span recorder that wraps rangesa's public functions from outside.

Every public function and method of every module is replaced by a wrapper
that times the call, counts it, and charges its duration to the enclosing
wrapped call, so each name ends with (calls, inclusive seconds, self
seconds, extra count). Per-step spans are aggregated at once rather than
stored, which keeps memory flat over hundreds of thousands of chain steps.

Inclusive seconds count only calls with no enclosing call of the same group,
so adding up the inclusive times of a group never counts a nested call twice
(a writer that calls another writer, an objective call that goes through
evaluate_many).
"""
from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time

# Private helpers that the per-layer metrics need as their own boundary.
EXTRA = {"cli": ("_write_json",)}


def _one(args, result):
    return 1


def _row_count(args, result):
    return len(result)  # one value per row of the batch


def _oracle_points(args, result):
    return int(getattr(result, "n_points", 0))


EVAL_FNS = ("objectives.Objective.__call__", "objectives.Objective.evaluate_many")
WRITER_SUFFIXES = (".save", ".to_csv", ".save_loss_history", "._write_json")


def group_of(name: str) -> str:
    if name in EVAL_FNS:
        return "objective evaluation"
    if name.endswith(WRITER_SUFFIXES):
        return "artifact writer"
    return name


# Extra counts taken from a call's arguments or result, by qualified name;
# like inclusive time, they are taken from outermost calls of a group only.
COUNTERS = {
    "objectives.Objective.__call__": _one,
    "objectives.Objective.evaluate_many": _row_count,
    "resnet.ResNet.forward_batch": _row_count,
    "range_analysis.grid_oracle": _oracle_points,
}


class Recorder:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, count]
        self._stack: list[float] = []     # child time of each open span
        self._open: dict[str, int] = {}   # group -> number of open spans

    def wrap(self, name, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack, open_spans = self._stack, self._open
        clock = time.perf_counter
        counter = COUNTERS.get(name)
        group = group_of(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            outermost = not open_spans.get(group)
            open_spans[group] = open_spans.get(group, 0) + 1
            stack.append(0.0)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                child = stack.pop()
                open_spans[group] -= 1
                if stack:
                    stack[-1] += dt
                stats[0] += 1
                stats[2] += dt - child
                if outermost:
                    stats[1] += dt
                    if counter is not None and result is not None:
                        stats[3] += counter(args, result)

        return wrapper

    def install(self, package="rangesa"):
        """Wrap every public function and method; rebind imported aliases."""
        root = importlib.import_module(package)
        modules = {info.name: importlib.import_module(f"{package}.{info.name}")
                   for info in pkgutil.iter_modules(root.__path__)}
        replaced = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj) and (not attr.startswith("_")
                                                or attr in EXTRA.get(short, ())):
                    wrapped = self.wrap(f"{short}.{attr}", obj)
                    setattr(mod, attr, wrapped)
                    replaced[id(obj)] = wrapped
                elif inspect.isclass(obj):
                    self._wrap_class(f"{short}.{attr}", obj)
        # `from .anneal import run` and the package namespace hold their own
        # references; point them at the wrappers too.
        namespaces = list(modules.values()) + [root]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_class(self, prefix, cls):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                kind = type(raw)
                setattr(cls, attr, kind(self.wrap(f"{prefix}.{attr}", raw.__func__)))
            elif inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(f"{prefix}.{attr}", raw))

    def snapshot(self) -> dict:
        return {name: list(v) for name, v in self.stats.items() if v[0]}

    def names(self) -> list[str]:
        return sorted(self.stats)
