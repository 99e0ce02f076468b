"""Span tracing around malakit's layer boundaries, from outside the package.

The tracer replaces public functions of malakit's modules with wrappers
that open a span on entry and close it on return.  A function is replaced
in every malakit module that binds it under its own name (``harness`` holds
its own reference to ``chains.run_mala``, for example), so the wrapper sees
each call that crosses a module boundary.  The target's ``potential`` and
``gradient`` callables are wrapped on the ``BuiltTarget`` that
``harness.build_target`` returns.  Every replacement is undone when the
``traced`` context exits, so untraced executions run the original code.

Spans are aggregated as they close, keyed by (span name, parent span name):
call count, total time and self time (total minus the time of direct child
spans).  Keeping aggregates instead of a list of spans keeps the tracing
cost per call small and its memory constant; the oracle alone is called
hundreds of thousands of times per execution.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import sys
import time
from pathlib import Path

# (module, attribute, span name).  The span name's prefix is the layer.
FUNCTION_SPANS = (
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "scaling_study", "harness.scaling_study"),
    ("harness", "resolve_etas", "harness.resolve_etas"),
    ("targets", "sample_sphere_dataset", "targets.dataset"),
    ("chains", "run_mala", "chains.run_mala"),
    ("chains", "run_rwm", "chains.run_rwm"),
    ("chains", "run_constrained_mala", "chains.run_constrained_mala"),
    ("chains", "run_ensemble", "chains.run_ensemble"),
    ("grids", "grid_truth", "grids.grid_truth"),
    ("grids", "histogram", "grids.histogram"),
    ("grids", "tv_distance", "grids.tv_distance"),
    ("diagnostics", "transition_matrix_1d", "diagnostics.transition_matrix_1d"),
    ("diagnostics", "conductance", "diagnostics.conductance"),
    ("diagnostics", "mixing_time_estimate", "diagnostics.mixing_time_estimate"),
    ("diagnostics", "acceptance_stats", "diagnostics.acceptance_stats"),
    ("regularity", "estimate_c3", "regularity.estimate_c3"),
    ("regularity", "estimate_c4", "regularity.estimate_c4"),
    ("regularity", "estimate_gradient_bound", "regularity.estimate_gradient_bound"),
    ("regularity", "build_regularity_report", "regularity.build_regularity_report"),
)
SCALAR_CHAINS = ("chains.run_mala", "chains.run_rwm", "chains.run_constrained_mala")
ORACLE = ("targets.potential", "targets.gradient")
PROBES = ("regularity.estimate_c3", "regularity.estimate_c4", "regularity.estimate_gradient_bound")
LAYERS = ("targets", "chains", "grids", "diagnostics", "regularity", "harness")

# Per-layer metric name -> unit; run.py reports these in this order.
LAYER_METRICS = {
    "targets.potential_calls": "count",
    "targets.gradient_calls": "count",
    "targets.calls_per_step": "calls/step",
    "targets.potential_s": "s",
    "targets.gradient_s": "s",
    "targets.dataset_s": "s",
    "chains.steps": "count",
    "chains.self_s": "s",
    "chains.self_us_per_step": "us",
    "chains.accept_ratio": "ratio",
    "chains.to_csv_s": "s",
    "chains.rows_written": "count",
    "chains.bytes_written": "bytes",
    "chains.ensemble_replica_steps": "count",
    "chains.ensemble_self_s": "s",
    "chains.ensemble_ns_per_replica_step": "ns",
    "grids.truth_s": "s",
    "grids.histogram_calls": "count",
    "grids.histogram_s": "s",
    "grids.tv_s": "s",
    "diagnostics.kernel_s": "s",
    "diagnostics.conductance_s": "s",
    "diagnostics.mixing_self_s": "s",
    "diagnostics.acceptance_stats_s": "s",
    "regularity.probe_calls": "count",
    "regularity.probe_s": "s",
    "regularity.report_s": "s",
    "harness.build_target_s": "s",
    "harness.resolve_etas_s": "s",
    "harness.self_s": "s",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
    "trace.overhead_s": "s",
}
# Work counts: an execution repeated with the same inputs must reproduce them exactly.
COUNT_METRICS = tuple(name for name, unit in LAYER_METRICS.items() if unit in ("count", "bytes"))


class Tracer:
    """Aggregated spans and counters of one traced execution."""

    def __init__(self):
        self.spans: dict[tuple[str, str], list] = {}  # (name, parent) -> [calls, total_s, self_s]
        self.counters: dict[str, int] = {}
        self._stack = [[None, 0.0, 0.0]]  # frames: [name, start, child_time]

    def add(self, counter: str, amount: int) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + int(amount)

    def wrap(self, name: str, fn, on_return=None):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            frame = [name, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[1]
                stack.pop()
                parent = stack[-1]
                parent[2] += duration
                entry = spans.get((name, parent[0]))
                if entry is None:
                    spans[(name, parent[0])] = [1, duration, duration - frame[2]]
                else:
                    entry[0] += 1
                    entry[1] += duration
                    entry[2] += duration - frame[2]
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return spanned

    # -- aggregate queries -------------------------------------------------

    def calls(self, *names: str, parents=None) -> int:
        return sum(v[0] for (n, p), v in self.spans.items()
                   if n in names and (parents is None or p in parents))

    def total(self, *names: str) -> float:
        return sum(v[1] for (n, _), v in self.spans.items() if n in names)

    def self_time(self, *names: str) -> float:
        return sum(v[2] for (n, _), v in self.spans.items() if n in names)

    def layer_self(self, layer: str) -> float:
        return sum(v[2] for (n, _), v in self.spans.items() if n.split(".", 1)[0] == layer)

    def table(self) -> list[dict]:
        return [{"span": n, "parent": p, "calls": v[0], "total_s": v[1], "self_s": v[2]}
                for (n, p), v in sorted(self.spans.items(), key=lambda kv: -kv[1][1])]


def _malakit_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "malakit" or name.startswith("malakit."))]


def _replace_everywhere(patches: list, original, replacement, name: str) -> None:
    for module in _malakit_modules():
        if getattr(module, name, None) is original:
            patches.append((module, name, original))
            setattr(module, name, replacement)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers on every malakit binding; undo them on exit."""
    import malakit.chains
    import malakit.harness

    patches: list = []

    def count_steps(args, kwargs, trace):
        config = args[1] if len(args) > 1 else kwargs["config"]
        tracer.add("chains.steps", config.iterations)
        # Rows written by a lazy coin repeat the state without a proposal.
        lazy = (trace.energy_errors == 0.0) & (trace.log_accepts == 0.0) & ~trace.accepted
        tracer.add("chains.accepted_rows", int(trace.accepted.sum()))
        tracer.add("chains.proposal_rows", int((~lazy).sum()))

    def count_ensemble(args, kwargs, result):
        init = args[4] if len(args) > 4 else kwargs["init_positions"]
        replicas = len(init)
        tracer.add("chains.ensemble_replica_steps", result.function_evals - replicas)

    def count_rows(args, kwargs, path):
        tracer.add("chains.rows_written", len(args[0]))
        tracer.add("chains.bytes_written", Path(path).stat().st_size)

    hooks = {"chains.run_ensemble": count_ensemble, **{n: count_steps for n in SCALAR_CHAINS}}
    try:
        for module_name, attr, span in FUNCTION_SPANS:
            original = getattr(importlib.import_module(f"malakit.{module_name}"), attr)
            _replace_everywhere(patches, original, tracer.wrap(span, original, hooks.get(span)), attr)

        original_build = malakit.harness.build_target

        def build_and_wrap(spec):
            built = original_build(spec)
            target = dataclasses.replace(
                built.target,
                potential=tracer.wrap("targets.potential", built.target.potential),
                gradient=tracer.wrap("targets.gradient", built.target.gradient))
            return dataclasses.replace(built, target=target)

        _replace_everywhere(patches, original_build,
                            tracer.wrap("harness.build_target", build_and_wrap), "build_target")

        trace_cls = malakit.chains.ChainTrace
        original_to_csv = trace_cls.to_csv
        patches.append((trace_cls, "to_csv", original_to_csv))
        trace_cls.to_csv = tracer.wrap("chains.to_csv", original_to_csv, count_rows)
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, float]:
    """The per-layer figures of one traced execution of ``wall`` seconds."""
    c = tracer.counters
    steps = c.get("chains.steps", 0)
    replica_steps = c.get("chains.ensemble_replica_steps", 0)
    chain_self = tracer.self_time(*SCALAR_CHAINS)
    ensemble_self = tracer.self_time("chains.run_ensemble")
    oracle_in_chains = tracer.calls(*ORACLE, parents=SCALAR_CHAINS)
    proposals = c.get("chains.proposal_rows", 0)
    out = {
        "targets.potential_calls": tracer.calls("targets.potential"),
        "targets.gradient_calls": tracer.calls("targets.gradient"),
        "targets.calls_per_step": oracle_in_chains / steps if steps else 0.0,
        "targets.potential_s": tracer.total("targets.potential"),
        "targets.gradient_s": tracer.total("targets.gradient"),
        "targets.dataset_s": tracer.total("targets.dataset"),
        "chains.steps": steps,
        "chains.self_s": chain_self,
        "chains.self_us_per_step": 1e6 * chain_self / steps if steps else 0.0,
        "chains.accept_ratio": c.get("chains.accepted_rows", 0) / proposals if proposals else 0.0,
        "chains.to_csv_s": tracer.total("chains.to_csv"),
        "chains.rows_written": c.get("chains.rows_written", 0),
        "chains.bytes_written": c.get("chains.bytes_written", 0),
        "chains.ensemble_replica_steps": replica_steps,
        "chains.ensemble_self_s": ensemble_self,
        "chains.ensemble_ns_per_replica_step": 1e9 * ensemble_self / replica_steps if replica_steps else 0.0,
        "grids.truth_s": tracer.total("grids.grid_truth"),
        "grids.histogram_calls": tracer.calls("grids.histogram"),
        "grids.histogram_s": tracer.total("grids.histogram"),
        "grids.tv_s": tracer.total("grids.tv_distance"),
        "diagnostics.kernel_s": tracer.total("diagnostics.transition_matrix_1d"),
        "diagnostics.conductance_s": tracer.total("diagnostics.conductance"),
        "diagnostics.mixing_self_s": tracer.self_time("diagnostics.mixing_time_estimate"),
        "diagnostics.acceptance_stats_s": tracer.total("diagnostics.acceptance_stats"),
        "regularity.probe_calls": tracer.calls(*PROBES),
        "regularity.probe_s": tracer.total(*PROBES),
        "regularity.report_s": tracer.total("regularity.build_regularity_report"),
        "harness.build_target_s": tracer.total("harness.build_target"),
        "harness.resolve_etas_s": tracer.total("harness.resolve_etas"),
        "harness.self_s": tracer.self_time("harness.run_experiment", "harness.scaling_study"),
    }
    for layer in LAYERS:
        out[f"{layer}.share"] = tracer.layer_self(layer) / wall
    return out
