"""Per-layer tracing from outside the program.

The tracer replaces module attributes of pmdpdl with wrappers, at the names
each caller actually looks up (network's `apply_pmd`, optimizer's
`run_exact`, cli's `parse_network`, ...), and restores them afterwards; no
source file is touched. A wrapper either records a span (name, start, end,
parent span, op id) or, for the 2x2 primitives that run thousands of times
per op, only counts calls. Spans stay in memory and are written out when the
run ends.

A target that does not exist (a refactor removed or renamed it) is listed in
`absent` and skipped; a counter whose input no longer has the expected shape
is listed in `broken_counters`. Neither stops the run.

All work is single-threaded, so no layer ever waits for another: wait time
is 0 for every layer and is not recorded.
"""
from __future__ import annotations

import importlib
import json
import math
import statistics
import time
from collections import Counter, defaultdict

_ELEMENT_APPLICATIONS = ("apply_pmd", "apply_pdl", "project_pure")
_PAIRWISE_MOMENTS = ("mean_time", "transmission")


def _count_pulse(tracer, name, args, result):
    if name in _ELEMENT_APPLICATIONS or name == "initial_state":
        terms = len(result.terms)
        if name != "initial_state":
            tracer.counts["pulse.terms_out"] += terms
        tracer.peak("pulse.terms_peak", terms)
    elif name == "prune":
        tracer.counts["pulse.prune_removed"] += len(args[0].terms) - len(result.terms)
        tracer.peak("pulse.terms_peak", len(args[0].terms))
    elif name in _PAIRWISE_MOMENTS:
        tracer.counts["pulse.overlap_pairs"] += len(args[0].terms) ** 2


def _count_network(tracer, name, args, result):
    if name == "run_exact":
        tracer.counts["network.run_exact_calls"] += 1
    elif name == "run_weak":
        tracer.counts["network.run_weak_calls"] += 1
    elif name == "parse_network":
        tracer.counts["network.parse_calls"] += 1


def _count_forms(tracer, name, args, result):
    """Weak quadratic forms of an n-element chain with p delays take
    2n prefix/suffix products, 1 for the norm form and 3 per delay form."""
    elements = args[0]
    delays = sum(1 for el in elements if type(el).__name__ == "Pmd")
    tracer.counts["weak.forms_calls"] += 1
    tracer.counts["weak.matmuls_2x2"] += 2 * len(elements) + 1 + 3 * delays


def _count_optimizer_forms(tracer, name, args, result):
    tracer.counts["optimizer.engine_calls"] += 1
    _count_forms(tracer, name, args, result)


def _count_optimizer_exact(tracer, name, args, result):
    """One exact evaluation scores one polarization state."""
    tracer.counts["optimizer.engine_calls"] += 1
    tracer.counts["optimizer.states_scored"] += 1
    _count_network(tracer, name, args, result)


def _count_optimizer_blocked(tracer, name, exc):
    """The optimizer treats a state without transmitted light as blocked."""
    tracer.counts["optimizer.engine_calls"] += 1
    tracer.counts["optimizer.states_scored"] += 1
    if type(exc).__name__ == "NearZeroTransmissionError":
        tracer.counts["optimizer.blocked_states"] += 1


def _count_states(tracer, name, args, result):
    _, blocked = result
    tracer.counts["optimizer.states_scored"] += len(blocked)
    tracer.counts["optimizer.blocked_states"] += int(blocked.sum())


def _count_orderings(tracer, name, args, result):
    """Distinct orderings of the bag: n! over each multiplicity's factorial."""
    elements = tuple(args[0])
    count = math.factorial(len(elements))
    for multiplicity in Counter(elements).values():
        count //= math.factorial(multiplicity)
    tracer.counts["optimizer.orderings_scored"] += count


def _count_calls(key):
    def count(tracer, name, args, result):
        tracer.counts[key] += 1
    return count


# (module, attribute, layer, span?, counter on return, counter on raise).
# Every module-level name a caller resolves at call time is wrapped where
# that caller resolves it.
TARGETS = (
    ("pmdpdl.network", "parse_network", "network", True, _count_network, None),
    ("pmdpdl.cli", "parse_network", "network", True, _count_network, None),
    ("pmdpdl.network", "run_exact", "network", True, _count_network, None),
    ("pmdpdl.optimizer", "run_exact", "network", True,
     _count_optimizer_exact, _count_optimizer_blocked),
    ("pmdpdl.cli", "run_exact", "network", True, _count_network, None),
    ("pmdpdl.network", "run_weak", "network", True, _count_network, None),
    ("pmdpdl.cli", "run_weak", "network", True, _count_network, None),
    ("pmdpdl.network", "initial_state", "pulse", True, _count_pulse, None),
    ("pmdpdl.network", "apply_pmd", "pulse", True, _count_pulse, None),
    ("pmdpdl.network", "apply_pdl", "pulse", True, _count_pulse, None),
    ("pmdpdl.network", "project_pure", "pulse", True, _count_pulse, None),
    ("pmdpdl.network", "prune", "pulse", True, _count_pulse, None),
    ("pmdpdl.network", "mean_time", "pulse", True, _count_pulse, None),
    ("pmdpdl.network", "transmission", "pulse", True, _count_pulse, None),
    ("pmdpdl.pulse", "transmission", "pulse", True, _count_pulse, None),
    ("pmdpdl.network", "network_mean_time", "weak", True, None, None),
    ("pmdpdl.weak", "shift_quadratic_forms", "weak", True, _count_forms, None),
    ("pmdpdl.optimizer", "shift_quadratic_forms", "weak", True, _count_optimizer_forms, None),
    ("pmdpdl.weak", "element_operator", "elements", False,
     _count_calls("elements.operator_calls"), None),
    ("pmdpdl.pulse", "apply_operator", "polarization", False,
     _count_calls("polarization.calls"), None),
    ("pmdpdl.pulse", "pauli_on_axis", "polarization", False,
     _count_calls("polarization.calls"), None),
    ("pmdpdl.pulse", "pdl_operator", "polarization", False,
     _count_calls("polarization.calls"), None),
    ("pmdpdl.weak", "apply_operator", "polarization", False,
     _count_calls("polarization.calls"), None),
    ("pmdpdl.weak", "pauli_on_axis", "polarization", False,
     _count_calls("polarization.calls"), None),
    ("pmdpdl.elements", "pdl_operator", "polarization", False,
     _count_calls("polarization.calls"), None),
    ("pmdpdl.elements", "projector", "polarization", False,
     _count_calls("polarization.calls"), None),
    ("pmdpdl.optimizer", "extremal_polarization", "optimizer", True, None, None),
    ("pmdpdl.optimizer", "optimize_arrangement", "optimizer", True, _count_orderings, None),
    ("pmdpdl.cli", "optimize_arrangement", "optimizer", True, _count_orderings, None),
    ("pmdpdl.cli", "sweep_sphere", "optimizer", True, None, None),
    ("pmdpdl.cli", "sweep_polarization", "optimizer", True, None, None),
    ("pmdpdl.optimizer", "_weak_values_on_states", "optimizer", False, _count_states, None),
    ("pmdpdl.cli", "main", "cli", True, None, None),
)

COUNTERS = (
    "pulse.calls", "pulse.terms_out", "pulse.terms_peak", "pulse.overlap_pairs",
    "pulse.prune_removed", "network.run_exact_calls", "network.run_weak_calls",
    "network.parse_calls", "weak.forms_calls", "weak.matmuls_2x2",
    "elements.operator_calls", "polarization.calls", "optimizer.engine_calls",
    "optimizer.orderings_scored", "optimizer.states_scored",
    "optimizer.blocked_states", "cli.stdout_bytes",
)


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self):
        self.spans: list[tuple] = []      # (id, parent, op, name, start, end)
        self.self_s: dict[str, float] = defaultdict(float)
        self.parse_s = 0.0
        self.counts: Counter = Counter()
        self.broken_counters: set[str] = set()
        self.op_id: int | None = None
        self._stack: list[list] = []      # [id, layer, start, child time]
        self._next_id = 0

    def peak(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts[key], value)

    def enter(self, layer: str) -> None:
        self._stack.append([self._next_id, layer, time.perf_counter(), 0.0])
        self._next_id += 1

    def leave(self, name: str) -> float:
        end = time.perf_counter()
        span_id, layer, start, child = self._stack.pop()
        duration = end - start
        self.self_s[layer] += duration - child
        parent = None
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        self.spans.append((span_id, parent, self.op_id, name, start, end))
        if layer == "pulse":
            self.counts["pulse.calls"] += 1
        return duration

    def run_op(self, op_id: int, fn, *args):
        """Run one benchmark op as the root span of its op id."""
        self.op_id = op_id
        self.enter("bench")
        try:
            return fn(*args)
        finally:
            self.leave("op")
            self.op_id = None

    def apply(self, key: str, counter, *args) -> None:
        if counter is None or key in self.broken_counters:
            return
        try:
            counter(self, key.rsplit(".", 1)[1], *args)
        except (AttributeError, TypeError, ValueError, IndexError):
            self.broken_counters.add(key)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, op_id, name, start, end in self.spans:
                handle.write(json.dumps(
                    {"id": span_id, "parent": parent, "op": op_id, "name": name,
                     "start": start, "end": end}) + "\n")


class Instrumentation:
    """Installs wrappers that report to whichever Tracer is current."""

    def __init__(self):
        self.tracer: Tracer | None = None
        self.absent: list[str] = []
        self._originals: list[tuple] = []

    def install(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.absent = []
        # Import every module before wrapping anything, so that no module
        # binds a wrapper at its own import time via `from .x import y`.
        modules = {}
        for module_name in dict.fromkeys(target[0] for target in TARGETS):
            try:
                modules[module_name] = importlib.import_module(module_name)
            except ImportError:
                pass
        for module_name, attr, layer, span, on_return, on_raise in TARGETS:
            key = f"{module_name}.{attr}"
            module = modules.get(module_name)
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(key)
                continue
            wrapper = self._wrap(original, key, layer, span, on_return, on_raise)
            setattr(module, attr, wrapper)
            self._originals.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals = []
        self.tracer = None

    def _wrap(self, fn, key, layer, span, on_return, on_raise):
        owner = self
        name = key.rsplit(".", 1)[1]

        def traced(*args, **kwargs):
            tracer = owner.tracer
            if span:
                tracer.enter(layer)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if span:
                    tracer.leave(key)
                if on_raise is not None:
                    on_raise(tracer, name, exc)
                raise
            if span:
                duration = tracer.leave(key)
                if name == "parse_network":
                    tracer.parse_s += duration
            tracer.apply(key, on_return, args, result)
            return result

        return traced


def layer_metrics(setup: Tracer, passes: list[Tracer], overhead_s: float) -> dict:
    """Per-layer metrics of one traced run: its set-up (parsing every input
    text) plus one traced pass.

    Pass counts come from the first pass (every pass runs the same ops, so
    they repeat exactly); pass times are medians over the passes.
    """
    counts = setup.counts + passes[0].counts
    metrics = {key: (counts[key], "count") for key in COUNTERS}
    for layer in ("pulse", "weak", "network", "optimizer", "cli"):
        pass_s = statistics.median(t.self_s[layer] for t in passes)
        metrics[f"{layer}.self_s"] = (setup.self_s[layer] + pass_s, "s")
    pass_parse_s = statistics.median(t.parse_s for t in passes)
    metrics["network.parse_s"] = (setup.parse_s + pass_parse_s, "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics
