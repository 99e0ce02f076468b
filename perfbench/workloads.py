"""The benchmark's workloads: inputs made from a seed, and checks on the outputs.

Each workload is a list of ``malakit`` command lines, entered through
``malakit.cli.cli_entry`` in this process exactly as a user would type
them.  Specs are generated from the workload seed (which sets the spec's
``seed``, its ``data_seed`` and the ``--seed`` option) and use only keys
the spec parser documents.  ``check`` reads what the commands wrote and
printed and returns an ``Outcome``: operations attempted and failed, named
checks, sha256 digests of the outputs and exact work counts.  A changed
random stream therefore shows up as changed digests, not silently.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

SPEC_HEADER = "malakit-spec v1\n"


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    checks: dict = field(default_factory=dict)  # name -> bool
    digests: dict = field(default_factory=dict)  # output -> sha256
    counts: dict = field(default_factory=dict)  # work count -> int
    notes: dict = field(default_factory=dict)  # figures shown next to the checks

    def check(self, name: str, ok: bool) -> bool:
        self.checks[name] = bool(ok)
        return bool(ok)

    def fail(self, operations: int = 1) -> None:
        self.failed = min(self.attempted, self.failed + operations)


@dataclass(frozen=True)
class Execution:
    argv: list
    code: int
    stdout: str
    stderr: str


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.out = workdir / "out"
        self.spec_path = workdir / "workload.spec"  # setup_s builds this spec's target and schedule
        self.spec_path.write_text(self.spec())

    def spec(self) -> str:
        raise NotImplementedError

    def commands(self) -> list:
        raise NotImplementedError

    def check(self, executions: list) -> Outcome:
        raise NotImplementedError


class RunWorkload(Workload):
    """``malakit run`` on one generated spec; an operation is a replica cell."""

    etas: tuple
    replicas: int
    iterations: int
    record_every: int
    acceptance_band: tuple  # bounds on every cell's accepted fraction

    def commands(self):
        return [["run", str(self.spec_path), "--out", str(self.out),
                 "--seed", str(self.seed)]]

    def check(self, executions):
        (run,) = executions
        cells = len(self.etas) * self.replicas
        outcome = Outcome(attempted=cells)
        if not outcome.check("exit_code_0", run.code == 0):
            outcome.fail(cells)
            return outcome
        report = json.loads((self.out / "report.json").read_text())
        errors = report["replica_errors"]
        outcome.check("no_replica_errors", not errors)
        outcome.fail(len(errors))

        summary_text = (self.out / "summary.csv").read_text()
        diagnostics_text = (self.out / "diagnostics.csv").read_text()
        outcome.digests["summary.csv"] = _sha256(summary_text)
        outcome.digests["diagnostics.csv"] = _sha256(diagnostics_text)
        rows = list(csv.DictReader(io.StringIO(summary_text)))
        if not outcome.check("summary_rows", len(rows) == cells - len(errors)):
            outcome.fail()
        outcome.notes["resolved_etas"] = report["resolved_etas"]
        if not outcome.check("etas_resolved", len(report["resolved_etas"]) == len(self.etas)):
            outcome.fail()

        per_trace = -(-self.iterations // self.record_every)  # the final step is always recorded
        trace_rows, trace_bytes, bad_traces = 0, 0, 0
        traces_digest = hashlib.sha256()
        for path in map(Path, report["trace_paths"]):
            data = path.read_bytes()
            traces_digest.update(data)
            n = data.count(b"\n") - 1
            trace_rows += n
            trace_bytes += len(data)
            bad_traces += n != per_trace
        outcome.digests["traces"] = traces_digest.hexdigest()
        if not outcome.check("trace_rows", bad_traces == 0 and len(report["trace_paths"]) == len(rows)):
            outcome.fail(max(1, bad_traces))

        lo, hi = self.acceptance_band
        fractions = [float(row["accepted_fraction"]) for row in rows]
        outside = sum(not (lo <= f <= hi) for f in fractions)
        outcome.notes["accepted_fraction"] = [min(fractions, default=math.nan),
                                              max(fractions, default=math.nan)]
        if not outcome.check("acceptance_in_band", outside == 0):
            outcome.fail(outside)

        diagnostics = {(row["diagnostic"], row["key"]): row["value"]
                       for row in csv.DictReader(io.StringIO(diagnostics_text))}
        self.check_diagnostics(outcome, diagnostics, report, rows)
        outcome.counts.update(
            gradient_evals=int(report["gradient_evals"]),
            function_evals=int(report["function_evals"]),
            trace_rows=trace_rows,
            trace_bytes=trace_bytes,
        )
        return outcome

    def check_diagnostics(self, outcome, diagnostics, report, rows):
        pass

    def run_section(self) -> str:
        return (f"[run]\niterations = {self.iterations}\nreplicas = {self.replicas}\n"
                f"seed = {self.seed}\nrecord_every = {self.record_every}\n")


class GaussSweep(RunWorkload):
    name = "gauss-sweep"
    why = ("cheap 1D Gaussian oracle with a trace row per step: per-step Python overhead "
           "of the scalar chain and per-row CSV writing dominate")
    etas = (0.5, 1.0)
    replicas = 8
    iterations = 2000
    record_every = 1
    # 1D standard Gaussian MALA accepts about 0.99 at eta 0.5 and 0.93 at eta 1.0.
    acceptance_band = (0.85, 1.0)

    def spec(self):
        return (
            SPEC_HEADER + f"name = {self.name}\n\n"
            "[target]\nkind = gaussian\nd = 1\nprecision = 1.0\n\n"
            "[sampler]\nkind = mala\nlazy = false\n\n"
            f"[schedule]\nkind = sweep\netas = {','.join(map(str, self.etas))}\n\n"
            + self.run_section() +
            "\n[diagnostics]\nacceptance_stats\ntv_vs_truth lo=-6 hi=6 bins=60\n")

    def check_diagnostics(self, outcome, diagnostics, report, rows):
        raw = float(diagnostics.get(("tv_vs_truth", "raw"), "nan"))
        outcome.notes["tv_raw"] = raw
        if not outcome.check("tv_in_unit_interval", 0.0 <= raw <= 1.0):
            outcome.fail()


class ZeroOneOptimize(RunWorkload):
    name = "zero-one-optimize"
    why = ("the paper's zero-one pipeline under lazy constrained MALA: two gradients and "
           "a potential over r=2000 columns per step, plus the constraint test")
    etas = (0.05,)
    replicas = 4
    iterations = 4000
    record_every = 1
    # The lazy coin holds half of the steps, so a cell accepts at most about 1/2.
    acceptance_band = (0.3, 0.55)
    angle_max = 0.35

    def spec(self):
        return (
            SPEC_HEADER + f"name = {self.name}\n\n"
            "[target]\nkind = zero_one\nd = 3\nr = 2000\nq0 = 0.7\n"
            f"data_seed = {self.seed}\nepsilon = 0.1\nc1 = 0.05\n\n"
            "[sampler]\nkind = constrained-mala\n\n"
            f"[schedule]\nkind = explicit\neta = {self.etas[0]}\n\n"
            + self.run_section() +
            f"\n[diagnostics]\nacceptance_stats\nzero_one_summary angle_max={self.angle_max}\n"
            "regularity\n")

    def check_diagnostics(self, outcome, diagnostics, report, rows):
        angle = float(diagnostics.get(("zero_one_summary", "median_angle"), "nan"))
        outcome.notes["median_angle"] = angle
        ok = angle <= self.angle_max
        if not ok and rows:
            # About 3% of data seeds put the data's own best direction beyond angle_max
            # (9 of 300 seeds, by a grid search of the smoothed objective).  The optimizer
            # is then right when its best point beats the planted direction's best point.
            best = min(float(row["min_potential"]) for row in rows)
            planted = self.planted_potential()
            outcome.notes["min_potential_vs_planted"] = [best, planted]
            ok = best <= planted
        if not outcome.check("median_angle_within_max_or_beats_planted", ok):
            outcome.fail()
        estimates = [float(diagnostics.get(("regularity", key), "nan"))
                     for key in ("incoherence", "c3_estimate", "c4_estimate")]
        if not outcome.check("regularity_finite", all(math.isfinite(v) and v >= 0 for v in estimates)):
            outcome.fail()

    def planted_potential(self) -> float:
        """Lowest potential along the planted direction inside the annulus."""
        import numpy as np
        from malakit.harness import build_target, parse_spec

        built = build_target(parse_spec(self.spec_path.read_text()))
        inner, outer = built.notes["constraint"]
        radii = np.linspace(inner, outer, 51)[:, None]
        return float(np.min(built.target.potential(radii * built.theta_star)))


class LogisticRwm(RunWorkload):
    name = "logistic-rwm"
    why = ("potential-only random walk on r=5000 logistic data with the theorem1 schedule: "
           "oracle-bound, little trace I/O, probes and data generation in setup")
    etas = (None,)  # resolved by the theorem1 schedule
    replicas = 2
    iterations = 3000
    record_every = 10
    acceptance_band = (0.5, 0.95)

    def spec(self):
        return (
            SPEC_HEADER + f"name = {self.name}\n\n"
            "[target]\nkind = logistic\nd = 10\nr = 5000\nq0 = 0.7\n"
            f"data_seed = {self.seed}\nprior = 1.0\n\n"
            "[sampler]\nkind = rwm\nlazy = false\n\n"
            "[schedule]\nkind = theorem1\n\n"
            + self.run_section() +
            "\n[diagnostics]\nacceptance_stats\n")

    def check_diagnostics(self, outcome, diagnostics, report, rows):
        (eta,) = report["resolved_etas"]
        outcome.notes["eta"] = eta
        if not outcome.check("theorem1_eta_positive", math.isfinite(eta) and eta > 0):
            outcome.fail()


class EnsembleDiagnostics(Workload):
    name = "ensemble-diagnostics"
    why = ("batched replica ensembles, grids and kernel diagnostics only: "
           "no scalar chain and no trace I/O")
    axis_values = (0.015, 0.02, 0.04, 0.08)
    bins = 400  # the acceptance gate's grid
    eta = 0.1
    slope_band = (-3.0, -1.0)  # mixing time ~ eta^-2 predicted
    max_violation = 1e-8
    min_ratio_to_eta_cheeger = 0.01

    def spec(self):
        # The bundled specs/gaussian_demo.spec with the workload seed.
        return (
            SPEC_HEADER + "name = gaussian-demo\n\n"
            "[target]\nkind = gaussian\nd = 1\nprecision = 1.0\n\n"
            "[sampler]\nkind = mala\nlazy = false\n\n"
            "[schedule]\nkind = explicit\neta = 0.5\n\n"
            f"[run]\niterations = 1000\nreplicas = 4\nseed = {self.seed}\nrecord_every = 1\n\n"
            "[diagnostics]\nacceptance_stats\ntv_vs_truth lo=-6 hi=6 bins=60\n\n"
            "[output]\ndir = runs/gaussian-demo\n")

    def commands(self):
        common = ["--bins", str(self.bins), "--eta", str(self.eta), "--seed", str(self.seed)]
        return [
            ["scaling", str(self.spec_path), "--axis", "eta",
             "--values", ",".join(map(str, self.axis_values))],
            ["diagnose", "conductance", *common],
            ["diagnose", "detailed-balance", *common],
        ]

    def check(self, executions):
        scaling, cond, balance = executions
        outcome = Outcome(attempted=len(self.axis_values) + 2)
        for key, run in zip(("scaling", "diagnose conductance", "diagnose detailed-balance"), executions):
            outcome.digests[key] = _sha256(run.stdout)

        if outcome.check("scaling_exit_code_0", scaling.code == 0):
            lines = scaling.stdout.splitlines()
            rows = list(csv.DictReader(io.StringIO("\n".join(lines[:-1]))))
            unresolved = sum(not row["mixing_estimate"] for row in rows)
            unresolved += len(self.axis_values) - len(rows)
            if not outcome.check("mixing_resolved", unresolved == 0):
                outcome.fail(unresolved)
            slope_text = lines[-1].rsplit(":", 1)[-1].strip()
            slope = float(slope_text) if slope_text else math.nan
            outcome.notes["slope"] = slope
            lo, hi = self.slope_band
            if not outcome.check("scaling_slope_in_band", lo <= slope <= hi):
                outcome.fail()
            outcome.counts["scaling_gradient_evals"] = sum(int(row["gradient_evals"]) for row in rows)
            outcome.counts["mixing_iterations"] = sum(int(row["mixing_estimate"] or 0) for row in rows)
        else:
            outcome.fail(len(self.axis_values))

        ok = cond.code == 0
        if ok:
            result = json.loads(cond.stdout)
            outcome.notes["ratio_to_eta_cheeger"] = result["ratio_to_eta_cheeger"]
            ok = result["ratio_to_eta_cheeger"] >= self.min_ratio_to_eta_cheeger
        if not outcome.check("conductance_at_least_0.01_eta_cheeger", ok):
            outcome.fail()

        ok = balance.code == 0
        if ok:
            violations = json.loads(balance.stdout)["max_relative_violation"]
            outcome.notes["max_relative_violation"] = max(violations.values())
            ok = all(v <= self.max_violation for v in violations.values())
        if not outcome.check("detailed_balance_within_1e-8", ok):
            outcome.fail()
        return outcome


WORKLOADS = {w.name: w for w in (GaussSweep, ZeroOneOptimize, LogisticRwm, EnsembleDiagnostics)}
