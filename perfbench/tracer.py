"""In-process span tracing of the library's public functions, from outside the package.

``Tracer`` wraps each function named in ``TRACED`` in every ``sspbounds``
module that binds it: ``from .dp import bellman_backup`` copies the
binding into ``bounds`` and ``cli``, so patching only the defining module
would miss those calls. Every call records a span (name, start, end,
parent) in memory and bumps a counter; the wrappers are removed on exit.
A name the package no longer defines is reported in ``missing``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter
from dataclasses import dataclass

# Public functions per layer. ``cli.main`` is the root span of a run.
TRACED = {
    "core": ("load_problem", "validate", "save_problem",
             "policy_transition_matrix", "policy_cost_vector"),
    "properness": ("is_proper", "all_policies_proper"),
    "dp": ("action_values", "bellman_backup", "bellman_residual", "greedy_policy",
           "is_uniformly_improvable", "evaluate_policy", "value_iteration",
           "policy_iteration"),
    "bounds": ("compute_bounds_report", "resolve_method", "require_uniformly_improvable",
               "immediate_termination_states", "steps_bound_positive_costs",
               "steps_bound_all_proper", "termination_horizon",
               "steps_bound_from_horizon"),
    "cli": ("main",),
}
LAYERS = ("core", "properness", "dp", "bounds", "cli")


@dataclass(frozen=True)
class Span:
    ident: int
    parent: int | None
    name: str
    start: float
    end: float


class Tracer:
    """Context manager that traces calls while active."""

    def __init__(self, package: str = "sspbounds"):
        self.package = package
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, counts, stack = self.spans, self.counts, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ident = len(spans) + len(stack)
            parent = stack[-1] if stack else None
            counts[name] += 1
            stack.append(ident)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append(Span(ident, parent, name, start, end))

        return traced

    def __enter__(self) -> Tracer:
        homes = {}
        for layer in TRACED:
            try:
                homes[layer] = importlib.import_module(f"{self.package}.{layer}")
            except ModuleNotFoundError:
                homes[layer] = None
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == self.package or key.startswith(self.package + "."))]
        for layer, names in TRACED.items():
            home = homes[layer]
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    self.missing.append(f"{layer}.{name}")
                    continue
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._patched.append((module, name, original))
                        setattr(module, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched.clear()


def inclusive(spans: list[Span]) -> dict[str, float]:
    """Total duration per span name (no traced function calls itself)."""
    totals: dict[str, float] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0.0) + (s.end - s.start)
    return totals


def self_times(spans: list[Span]) -> dict[str, float]:
    """Span duration minus the time its direct children cover, summed per name."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    totals: dict[str, float] = {}
    for s in spans:
        own = (s.end - s.start) - child_time.get(s.ident, 0.0)
        totals[s.name] = totals.get(s.name, 0.0) + own
    return totals


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    out = dict.fromkeys(LAYERS, 0.0)
    for name, t in self_times(spans).items():
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out
