"""Span tracing of the package's layers from outside the package.

Every public function of each layer module is wrapped where its callers look
it up: in every ``lunephase`` module namespace that binds it, and in
module-level dicts that hold it (the CLI's handler table). The state and
path classes get their validation and conversion methods wrapped on the
class. Only layers that have been imported are wrapped.
Spans (name, start, end, parent, request) are kept in flat arrays in memory
and written out when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import tracemalloc
from array import array
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "experiment", "pulse", "pulseprog", "qcore", "geometry", "phases")
PATH_METHODS = (
    ("StatePath", "__post_init__"),
    ("BlochPath", "__post_init__"),
    ("StatePath", "to_bloch_path"),
)
CLASS_METHODS = tuple(("geometry", cls, method) for cls, method in PATH_METHODS) + (
    ("qcore", "DensityOperator", "__post_init__"),
)
PEAK_MEMORY = {"geometry.check_geodesic"}


def _run_sequence_events(bound) -> int:
    return len(bound.arguments["prog"].events)


def _preparation_input(bound):
    conv = bound.arguments["conventions"]
    rho = bound.arguments["rho_thermal"]
    return (rho.matrix.tobytes(), conv.pulse_sense, conv.active_branch_up)


# Argument facts recorded per call, for ratios measured where the work happens.
NOTES = {
    "pulse.run_sequence": _run_sequence_events,
    "experiment.prepare_effective_pure": _preparation_input,
}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.requests = array("l")
        self.notes: dict[int, object] = {}
        self.peaks: dict[int, int] = {}
        self.request = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)
        note = NOTES.get(name)
        signature = inspect.signature(fn) if note else None
        peak = name in PEAK_MEMORY

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.name_ids)
            self.name_ids.append(name_id)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.requests.append(self.request)
            self.starts.append(0.0)
            self.ends.append(0.0)
            if note:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.notes[idx] = note(bound)
            self._stack.append(idx)
            if peak:
                tracemalloc.start()
            self.starts[idx] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                if peak:
                    self.peaks[idx] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()

        return traced

    def write(self, path) -> None:
        """One JSON header line with the span names, then one line per span:
        [name, start_s, end_s, parent, request]; start is relative to the
        first span, parent is a line index (or -1)."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"names": self.names}) + "\n")
            for i in range(len(self.starts)):
                handle.write(
                    f"[{self.name_ids[i]},{self.starts[i] - t0:.9f},"
                    f"{self.ends[i] - t0:.9f},{self.parents[i]},{self.requests[i]}]\n"
                )


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every layer function for the duration of the block."""
    modules = {layer: sys.modules[f"lunephase.{layer}"] for layer in LAYERS
               if f"lunephase.{layer}" in sys.modules}
    namespaces = [
        mod for name, mod in sorted(sys.modules.items())
        if name == "lunephase" or name.startswith("lunephase.")
    ]
    undo = []

    def replace_everywhere(original, wrapper):
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    undo.append((setattr, ns, attr, value))
                    setattr(ns, attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            undo.append((dict.__setitem__, value, key, item))
                            value[key] = wrapper

    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            replace_everywhere(obj, tracer.wrap(f"{layer}.{name}", obj))
    for layer, cls_name, method in CLASS_METHODS:
        if layer not in modules:
            continue
        cls = getattr(modules[layer], cls_name)
        original = cls.__dict__[method]
        undo.append((setattr, cls, method, original))
        setattr(cls, method, tracer.wrap(f"{layer}.{cls_name}.{method}", original))
    try:
        yield tracer
    finally:
        for restore, target, key, value in reversed(undo):
            restore(target, key, value)


def layer_metrics(tracer: Tracer, units: int) -> dict[str, float]:
    """Per-layer metrics per work unit of the traced pass.

    ``*_ms`` is inclusive span time (children included) except cli.main_ms
    and ``<layer>.self_ms``, which are self time: span duration minus the
    time covered by its child spans.
    """
    names = [tracer.names[i] for i in tracer.name_ids]
    n = len(names)
    parents = tracer.parents
    dur = [tracer.ends[i] - tracer.starts[i] for i in range(n)]
    self_time = dur[:]
    for i in range(n):
        if parents[i] >= 0:
            self_time[parents[i]] -= dur[i]
    parent_name = [names[p] if p >= 0 else "" for p in parents]

    calls = defaultdict(int)
    for name in names:
        calls[name] += 1

    def per_unit(x: float) -> float:
        return x / units if units else 0.0

    def ms(selected) -> float:
        return per_unit(1e3 * sum(dur[i] for i in range(n) if selected(i)))

    def named(*wanted):
        return lambda i: names[i] in wanted

    def outermost(*wanted):
        return lambda i: names[i] in wanted and parent_name[i] not in wanted

    def under(parent, *wanted):
        return lambda i: names[i] in wanted and parent_name[i] == parent

    prep = [tracer.notes[i] for i in range(n) if names[i] == "experiment.prepare_effective_pure"]
    events = sum(tracer.notes[i] for i in range(n) if names[i] == "pulse.run_sequence")
    points = calls["experiment.run_single"]
    peaks = list(tracer.peaks.values())
    metrics = {
        "pulseprog.parse_calls": per_unit(calls["pulseprog.parse_sequence"]),
        "pulseprog.parse_ms": ms(named("pulseprog.parse_sequence")),
        "experiment.prepare_pure_calls": per_unit(len(prep)),
        "experiment.prepare_pure_ms": ms(named("experiment.prepare_effective_pure")),
        "experiment.prepare_mixed_calls": per_unit(calls["experiment.prepare_mixed"]),
        "experiment.prepare_mixed_ms": ms(named("experiment.prepare_mixed")),
        "experiment.prepare_reuse_ratio": len(set(prep)) / len(prep) if prep else 0.0,
        "experiment.cycle_literal_ms": ms(under(
            "experiment.run_single", "experiment.cycle_program", "pulse.run_sequence")),
        "experiment.cycle_idealized_ms": ms(named("experiment.idealized_controlled_cycle")),
        "experiment.readout_ms": ms(under(
            "experiment.run_single", "experiment.readout_phase", "experiment.spin_a_coherence")),
        "phases.theory_ms": ms(lambda i: names[i].startswith("phases.")
                               and not parent_name[i].startswith("phases.")),
        "pulse.run_sequence_calls": per_unit(calls["pulse.run_sequence"]),
        "pulse.run_sequence_ms": ms(named("pulse.run_sequence")),
        "pulse.events_per_point": events / points if points else 0.0,
        "qcore.evolve_calls": per_unit(calls["qcore.evolve"]),
        "qcore.evolve_ms": ms(named("qcore.evolve")),
        "qcore.rotation_unitary_calls": per_unit(calls["qcore.rotation_unitary"]),
        "qcore.is_unitary_ms": ms(named("qcore.is_unitary")),
        "qcore.state_validate_calls": per_unit(calls["qcore.DensityOperator.__post_init__"]),
        "qcore.state_validate_ms": ms(named("qcore.DensityOperator.__post_init__")),
        "qcore.partial_trace_ms": ms(named("qcore.partial_trace")),
        "pulse.pulse_unitary_calls": per_unit(calls["pulse.pulse_unitary"]),
        "pulse.pulse_unitary_ms": ms(named("pulse.pulse_unitary")),
        "pulse.free_evolution_ms": ms(named("pulse.free_evolution_unitary")),
        "pulse.gradient_crusher_ms": ms(named("pulse.gradient_crusher")),
        "pulse.branch_propagators_ms": ms(named("pulse.branch_propagators")),
        "pulse.make_program_ms": ms(named("pulse.make_program")),
        "experiment.eigenvector_path_ms": ms(named("experiment.idealized_eigenvector_path")),
        "geometry.path_validate_ms": ms(outermost(
            *(f"geometry.{cls}.{method}" for cls, method in PATH_METHODS))),
        "geometry.lune_path_ms": ms(named("geometry.lune_path")),
        "geometry.solid_angle_ms": ms(named("geometry.solid_angle")),
        "geometry.pancharatnam_ms": ms(named("geometry.pancharatnam_phase")),
        "geometry.dynamical_ms": ms(named("geometry.dynamical_phase")),
        "geometry.check_geodesic_ms": ms(named("geometry.check_geodesic")),
        "geometry.check_geodesic_peak_mib": max(peaks, default=0) / 2**20,
        "experiment.render_ms": ms(outermost(
            "experiment.records_to_csv", "experiment.records_to_json")),
        "cli.main_ms": per_unit(1e3 * sum(self_time[i] for i in range(n)
                                          if names[i] == "cli.main")),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = per_unit(1e3 * sum(
            self_time[i] for i in range(n) if names[i].startswith(layer + ".")))
    return metrics
