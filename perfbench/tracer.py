"""Per-layer tracing of fluxsym from outside the package.

`Tracer.install()` replaces each function in `TRACED` with a wrapper, in its
defining module and in every fluxsym module that bound the same function
object at import (`from .numerics import solve_pde`, the package
`__init__` re-exports).  A wrapper opens a span (name, start, end, parent)
on the outermost call only, so a recursive function is one span, and
updates the function's extra counter from its arguments and result.
`GridSpec.r_nodes`/`t_nodes` are counted, not spanned.  `uninstall()`
restores every binding.

Spans stay in memory until the run writes them out.  A span's self time is
its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time

PACKAGE = "fluxsym"

# (layer, function): the public functions whose calls and self time are
# reported as <layer>.<function>.calls / .self_s.
TRACED = (
    ("kernel", "normalize"), ("kernel", "differentiate"),
    ("kernel", "substitute"), ("kernel", "is_zero"), ("kernel", "evaluate"),
    ("parser", "parse"),
    ("forms", "wedge"), ("forms", "exterior_d"), ("forms", "section"),
    ("isovector", "lie_form"), ("isovector", "ideal_reduce"),
    ("isovector", "check_self_consistency"),
    ("isovector", "extract_determining"),
    ("isovector", "audit_against_published"), ("isovector", "closure_check"),
    ("characteristics", "solve_characteristics"),
    ("characteristics", "enumerate_cases"),
    ("characteristics", "back_substitute"),
    ("numerics", "solve_pde"), ("numerics", "transform_field"),
    ("numerics", "material_residual"), ("numerics", "invariance_residual"),
    ("numerics", "discrete_residual"), ("numerics", "export_csv"),
    ("numerics", "compile_numeric"),
    ("reports", "write_report"),
    ("cli", "main"),
)


def _export_bytes(fn):
    signature = inspect.signature(fn)
    return lambda args, kwargs, result: os.path.getsize(
        signature.bind(*args, **kwargs).arguments["path"])


# function -> (counter name, fn(original) -> count(args, kwargs, result))
COUNTERS = {
    "kernel.is_zero": ("unknown", lambda fn: lambda a, k, r: int(r == "unknown")),
    "characteristics.back_substitute":
        ("numeric_only", lambda fn: lambda a, k, r: int(r.verdict == "numeric-only")),
    "numerics.solve_pde": ("steps", lambda fn: lambda a, k, r: r.phi.shape[0] - 1),
    "numerics.discrete_residual":
        ("nodes", lambda fn: lambda a, k, r: (r.shape[0] - 2) * (r.shape[1] - 2)),
    "numerics.export_csv": ("bytes", _export_bytes),
    "reports.write_report": ("bytes", lambda fn: lambda a, k, r: len(r.encode("utf-8"))),
}

GRID_NODES = "numerics.grid_nodes.calls"

# The per-op metrics a traced op yields, in report order.
METRICS = tuple(
    [f"{layer}.{fn}.{part}" for layer, fn in TRACED if (layer, fn) != ("cli", "main")
     for part in ("calls", "self_s")]
    + [f"{key}.{name}" for key, (name, _) in COUNTERS.items()]
    + [GRID_NODES, "cli.main.self_s"])


def unit(metric: str) -> str:
    if metric.endswith(".self_s"):
        return "s"
    return "B" if metric.endswith(".bytes") else "count"


class CoverageError(RuntimeError):
    """A traced function could not be wrapped everywhere it is bound."""


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    def __init__(self):
        self.names = [f"{layer}.{fn}" for layer, fn in TRACED]
        self.spans = []       # [name index, start, end, parent span index or -1]
        self.counters = dict.fromkeys(
            [f"{key}.{name}" for key, (name, _) in COUNTERS.items()] + [GRID_NODES], 0)
        self._stack = []
        self._restore = []    # (owner, attribute, original value)

    def install(self):
        """Wrap every traced function wherever a fluxsym module binds it."""
        modules = _package_modules()
        for index, (layer, fn) in enumerate(TRACED):
            home = sys.modules.get(f"{PACKAGE}.{layer}")
            original = getattr(home, fn, None)
            if not callable(original):
                raise CoverageError(f"{PACKAGE}.{layer}.{fn} does not exist")
            wrapper = self._wrap(index, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapper)
            # the guard: no module may still hold the unwrapped function
            for module in modules:
                held = [a for a, v in vars(module).items() if v is original]
                if held:
                    raise CoverageError(f"{module.__name__}.{held} still unwrapped")
        grid = sys.modules[f"{PACKAGE}.numerics"].GridSpec
        for attr in ("r_nodes", "t_nodes"):
            prop = grid.__dict__[attr]
            self._restore.append((grid, attr, prop))
            setattr(grid, attr, property(self._count_nodes(prop.fget)))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _count_nodes(self, fget):
        counters = self.counters

        def counted(grid):
            counters[GRID_NODES] += 1
            return fget(grid)
        return counted

    def _wrap(self, index, original):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counters, counter = self.counters, None
        if self.names[index] in COUNTERS:
            name, make = COUNTERS[self.names[index]]
            counter = (f"{self.names[index]}.{name}", make(original))
        active = [False]

        def wrapper(*args, **kwargs):
            if active[0]:   # a recursive call: the outer span covers it
                return original(*args, **kwargs)
            active[0] = True
            span = [index, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                active[0] = False
            if counter is not None:
                counters[counter[0]] += counter[1](args, kwargs, result)
            return result
        wrapper.__name__ = original.__name__
        wrapper.__qualname__ = original.__qualname__
        wrapper.__doc__ = original.__doc__
        return wrapper

    def op_metrics(self, first_span: int, counters_before: dict) -> dict:
        """Per-layer metrics of the spans from `first_span` on (one op)."""
        spans = self.spans[first_span:]
        child = [0.0] * len(spans)
        for span in spans:
            if span[3] >= first_span:
                child[span[3] - first_span] += span[2] - span[1]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, span in enumerate(spans):
            calls[span[0]] += 1
            self_s[span[0]] += span[2] - span[1] - child[i]
        out = {}
        for index, name in enumerate(self.names):
            if name != "cli.main":
                out[f"{name}.calls"] = calls[index]
            out[f"{name}.self_s"] = self_s[index]
        for key, value in self.counters.items():
            out[key] = value - counters_before[key]
        return out

    def write(self, path: str, op_starts: list):
        """Write every span as JSON: names, op start indices and spans."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "op_first_span": op_starts,
                       "spans": self.spans}, fh, separators=(",", ":"))
