"""In-memory span tracer that wraps bpsim's public functions from outside.

The bpsim modules import each other by name (``from .phy import
link_metrics``), so a wrapper must replace the name where the caller looks it
up: ``bpsim.solver.link_metrics`` for the solver's calls,
``bpsim.policy.solve_max_weight`` for the schemes' solves, and so on.
Wrapping ``bpsim.phy.link_metrics`` alone would miss every solver call.
Methods are wrapped on their class, so calls through ``self`` see them too.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("model", "phy", "solver", "policy", "sim", "stability", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1            # index of the enclosing span, -1 at top level
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _resolve(owner: str):
    """Module or class named by a dotted path such as ``bpsim.stability.RateRegionOracle``."""
    parts = owner.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(owner)


@contextlib.contextmanager
def patched(owner: str, attr: str, make_wrapper):
    """Replace ``owner.attr`` by ``make_wrapper(current)`` for the duration."""
    target = _resolve(owner)
    original = getattr(target, attr)
    setattr(target, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(target, attr, original)


def _note_solve(attrs, args, kwargs, result):
    diag = result[1]
    attrs.update(iterations=diag.iterations, converged=bool(diag.converged),
                 line_search_evals=diag.line_search_evals,
                 messages=diag.broadcasts + diag.feedbacks)


def _note_step(attrs, args, kwargs, result):
    attrs["scheme"] = args[0].name


def _note_weights(attrs, args, kwargs, result):
    attrs["idle"] = not bool(np.any(result.weight > 0))


def _note_drift(attrs, args, kwargs, result):
    attrs["checked"] = len(result.checked)


# (owner, attribute, span name, attribute recorder).  Every caller's lookup
# of a traced function is listed; one span name may have several entries.
TRACE_POINTS = (
    ("bpsim.model", "generate_scenario", "model.generate_scenario", None),
    ("bpsim.cli", "generate_scenario", "model.generate_scenario", None),
    ("bpsim.model", "load_scenario", "model.load_scenario", None),
    ("bpsim.cli", "load_scenario", "model.load_scenario", None),
    ("bpsim.solver", "link_metrics", "phy.link_metrics", None),
    ("bpsim.policy", "link_metrics", "phy.link_metrics", None),
    ("bpsim.stability", "link_metrics", "phy.link_metrics", None),
    # The power step's line search evaluates raw powers.
    ("bpsim.solver", "link_metrics_from_powers", "phy.link_metrics_from_powers", None),
    ("bpsim.solver", "alloc_marginal_gain", "phy.alloc_marginal_gain", None),
    # kkt_check calls it as ``phy.power_marginal_parts``, power_marginal_gain
    # through the phy module's own globals.
    ("bpsim.phy", "power_marginal_parts", "phy.power_marginal_parts", None),
    ("bpsim.solver", "alloc_sweep", "solver.alloc_sweep", None),
    ("bpsim.solver", "power_step", "solver.power_step", None),
    ("bpsim.solver", "kkt_check", "solver.kkt_check", None),
    ("bpsim.policy", "solve_max_weight", "solver.solve_max_weight", _note_solve),
    ("bpsim.stability", "solve_max_weight", "solver.solve_max_weight", _note_solve),
    ("bpsim.policy.InstantScheme", "step", "policy.step", _note_step),
    ("bpsim.policy.IterativeScheme", "step", "policy.step", _note_step),
    ("bpsim.policy", "compute_weights", "policy.compute_weights", _note_weights),
    ("bpsim.stability", "compute_weights", "policy.compute_weights", _note_weights),
    ("bpsim.sim", "run_simulation", "sim.run_simulation", None),
    ("bpsim.cli", "run_simulation", "sim.run_simulation", None),
    ("bpsim.sim", "step_queues", "sim.step_queues", None),
    ("bpsim.sim", "virtual_rates", "sim.virtual_rates", None),
    ("bpsim.stability", "virtual_rates", "sim.virtual_rates", None),
    ("bpsim.sim", "arrival_tensor", "sim.arrival_tensor", None),
    ("bpsim.stability.RateRegionOracle", "support", "stability.support", None),
    ("bpsim.stability.RateRegionOracle", "directional_excess",
     "stability.directional_excess", None),
    ("bpsim.cli", "estimate_epsilon", "stability.estimate_epsilon", None),
    ("bpsim.cli", "check_drift_condition", "stability.check_drift_condition",
     _note_drift),
    ("bpsim.cli", "trace_to_csv", "cli.trace_to_csv", None),
    ("bpsim.cli", "main", "cli.main", None),
)


class Tracer:
    """Records one span per call of every traced function, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=tracer._stack[-1] if tracer._stack else -1)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if note is not None:
                note(span.attrs, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every trace point; the originals come back on exit."""
        with contextlib.ExitStack() as stack:
            for owner, attr, name, note in TRACE_POINTS:
                stack.enter_context(patched(
                    owner, attr, lambda fn, name=name, note=note: self.wrap(name, fn, note)))
            yield self

    def children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for i, s in enumerate(self.spans):
            if s.parent >= 0:
                kids[s.parent].append(i)
        return kids

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its (sequential) children cover."""
        kids = self.children()
        return [s.duration - sum(self.spans[c].duration for c in kids[i])
                for i, s in enumerate(self.spans)]

    def layers(self) -> set[str]:
        return {s.name.split(".", 1)[0] for s in self.spans}

    def dump(self, path) -> None:
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "parent": s.parent,
                                     "start_us": (s.start - t0) * 1e6,
                                     "end_us": (s.end - t0) * 1e6,
                                     **s.attrs}) + "\n")
