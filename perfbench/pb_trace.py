"""Outside-in span tracing: wrappers around repro's public calls.

The traced run installs a timing wrapper around each public function or
method listed in :data:`TARGETS`, from the outside, by rebinding the
name wherever repro bound it (the defining class, or every ``repro.*``
module global that holds the very same function object).  No span lives
in ``src/``.  :meth:`Tracer.uninstall` rebinds the originals, so the
patched names are identical objects again after the run.

A span is ``(name, start, end, parent, request id, counters)``; spans are
kept in memory and written once, at the end of the run.  A span's self
time is its duration minus the time its child spans cover (the traced
code is single-threaded, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field


def _anneal_many_work(args, kwargs, result):
    machine, schedule = args[0], args[1]
    replicas = args[2] if len(args) > 2 else kwargs["num_replicas"]
    return {"spin_updates": len(schedule) * replicas * machine.num_spins}


def _anneal_fleet_work(args, kwargs, result):
    machine, schedule = args[0], args[1]
    replicas = args[2] if len(args) > 2 else kwargs.get("num_replicas", 1)
    active = args[3] if len(args) > 3 else kwargs.get("active")
    sizes = machine.instance_sizes
    indices = range(len(sizes)) if active is None else list(active)
    return {
        "spin_updates": len(schedule) * replicas
        * sum(sizes[b] for b in indices),
        "active_share": len(indices) / len(sizes),
    }


def _encode_work(args, kwargs, result):
    return {"slack_spins": result.num_slack}


#: ``(module, attribute path, span name, counter function or None)``.
#: Counter functions see ``(args, kwargs, result)`` of the wrapped call.
TARGETS = (
    ("repro.api", "solve", "api.solve", None),
    ("repro.api", "solve_fleet", "api.solve_fleet", None),
    ("repro.runtime.executor", "solve_many", "runtime.executor", None),
    ("repro.core.engine", "SaimEngine.solve", "core.engine", None),
    ("repro.core.engine", "SaimEngine.solve_encoded", "core.engine", None),
    ("repro.core.fleet_engine", "FleetEngine.solve_fleet",
     "core.fleet_engine", None),
    ("repro.core.encoding", "encode_with_slacks", "core.encoding",
     _encode_work),
    ("repro.core.encoding", "normalize_problem", "core.encoding", None),
    ("repro.core.penalty", "density_heuristic_penalty", "core.penalty", None),
    ("repro.core.lagrangian", "LagrangianIsing.__init__",
     "core.lagrangian.build", None),
    ("repro.core.lagrangian", "LagrangianIsing.program_for",
     "core.lagrangian.program_for", None),
    ("repro.core.lagrangian", "LagrangianIsing.residuals",
     "core.lagrangian.residuals", None),
    ("repro.ising.pbit", "PBitMachine.__init__", "ising.pbit.build", None),
    ("repro.ising.pbit", "PBitMachine.adopt_program", "ising.pbit.build",
     None),
    ("repro.ising.pbit", "PBitMachine.set_fields", "ising.pbit.set_fields",
     None),
    ("repro.ising.pbit", "PBitMachine.anneal_many", "ising.pbit.anneal",
     _anneal_many_work),
    ("repro.ising._lockstep", "AnnealProgram.__init__",
     "ising.program.build", None),
    ("repro.ising.fleet", "FleetMachine.__init__", "ising.fleet.build", None),
    ("repro.ising.fleet", "FleetMachine.set_fields", "ising.fleet.set_fields",
     None),
    ("repro.ising.fleet", "FleetMachine.anneal_fleet", "ising.fleet.anneal",
     _anneal_fleet_work),
)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    request: str = ""
    counters: dict = field(default_factory=dict)
    children: float = 0.0  # summed duration of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children


class Tracer:
    """Span recorder plus the wrapper installer for :data:`TARGETS`."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.request = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, clock(), parent=stack[-1] if stack else None,
                        request=self.request)
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span.counters = counter(args, kwargs, result)
                return result
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].children += span.duration

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every target (installing twice is refused; a failure
        part-way restores what was already wrapped)."""
        if self._restore:
            raise RuntimeError("tracer is already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        for module_name, path, span_name, counter in self.targets:
            module = importlib.import_module(module_name)
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[attr]
                self._bind(owner, attr, self._wrap(span_name, original, counter))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(span_name, original, counter)
            # Rebind the function wherever repro imported it by name.
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == "repro"
                                       or name.startswith("repro.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._bind(mod, key, wrapper)

    def _bind(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Rebind every original object, last patch first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as one JSON document (once, at the end)."""
        records = [
            {"name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "request": s.request,
             "counters": s.counters}
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": records}))


def _has_ancestor(spans, span, prefix) -> bool:
    parent = span.parent
    while parent is not None:
        if spans[parent].name.startswith(prefix):
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans, num_ops: int) -> dict:
    """Per-layer figures from a span list, per traced front-door op.

    Returns ``{metric name: (value, unit)}`` with every per-layer metric
    the solve layers define; a layer the workload never entered reads 0.
    """
    ops = max(1, num_ops)
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, float] = {}
    pbit_build = 0.0
    active = []
    for span in spans:
        self_s[span.name] = self_s.get(span.name, 0.0) + span.self_time
        total_s[span.name] = total_s.get(span.name, 0.0) + span.duration
        calls[span.name] = calls.get(span.name, 0) + 1
        for key, value in span.counters.items():
            if key == "active_share":
                active.append(value)
                continue
            slot = f"{span.name}.{key}"
            counters[slot] = counters.get(slot, 0.0) + value
        # A p-bit machine builds its program lazily, inside its first
        # anneal; a fleet machine's constructor builds all of them (and
        # is timed whole as ising.fleet.build).
        if (span.name == "ising.program.build"
                and not _has_ancestor(spans, span, "ising.fleet")):
            pbit_build += span.duration

    def per_op(value):
        return value / ops

    def ns_per_update(name):
        updates = counters.get(f"{name}.spin_updates", 0.0)
        return 1e9 * self_s.get(name, 0.0) / updates if updates else 0.0

    fleet_build = total_s.get("ising.fleet.build", 0.0)
    pbit_build += total_s.get("ising.pbit.build", 0.0)
    return {
        "ising.pbit.anneal_s": (per_op(self_s.get("ising.pbit.anneal", 0.0)),
                                "s"),
        "ising.pbit.anneal_calls": (per_op(calls.get("ising.pbit.anneal", 0)),
                                    "count"),
        "ising.pbit.ns_per_spin_update": (ns_per_update("ising.pbit.anneal"),
                                          "ns"),
        "ising.pbit.set_fields_s": (
            per_op(total_s.get("ising.pbit.set_fields", 0.0)), "s"),
        "ising.pbit.build_s": (per_op(pbit_build), "s"),
        "ising.fleet.anneal_s": (
            per_op(total_s.get("ising.fleet.anneal", 0.0)), "s"),
        "ising.fleet.ns_per_spin_update": (
            ns_per_update("ising.fleet.anneal"), "ns"),
        "ising.fleet.active_share": (
            sum(active) / len(active) if active else 0.0, "ratio"),
        "ising.fleet.build_s": (per_op(fleet_build), "s"),
        "core.engine.self_s": (per_op(self_s.get("core.engine", 0.0)), "s"),
        "core.fleet_engine.self_s": (
            per_op(self_s.get("core.fleet_engine", 0.0)), "s"),
        "core.encoding.s": (per_op(total_s.get("core.encoding", 0.0)), "s"),
        "core.encoding.slack_spins": (
            per_op(counters.get("core.encoding.slack_spins", 0.0)), "count"),
        "core.penalty.s": (per_op(total_s.get("core.penalty", 0.0)), "s"),
        "core.lagrangian.build_s": (
            per_op(total_s.get("core.lagrangian.build", 0.0)), "s"),
        "core.lagrangian.program_for_s": (
            per_op(total_s.get("core.lagrangian.program_for", 0.0)), "s"),
        "core.lagrangian.program_for_calls": (
            per_op(calls.get("core.lagrangian.program_for", 0)), "count"),
        "core.lagrangian.residuals_s": (
            per_op(total_s.get("core.lagrangian.residuals", 0.0)), "s"),
        "api.solve.self_s": (
            per_op(self_s.get("api.solve", 0.0)
                   + self_s.get("api.solve_fleet", 0.0)), "s"),
        "runtime.executor.self_s": (
            per_op(self_s.get("runtime.executor", 0.0)), "s"),
    }


def coverage(spans) -> float:
    """Share of root-span wall that the span tree's self times account
    for (1.0 by construction; a check that no time is double counted)."""
    root_wall = sum(s.duration for s in spans if s.parent is None)
    accounted = sum(s.self_time for s in spans)
    return accounted / root_wall if root_wall else 1.0
