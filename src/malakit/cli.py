"""Command-line entry points.

Subcommands: ``run`` (declarative experiment), ``sample``, ``optimize``,
``diagnose``, ``scaling``, ``regularity``, ``dataset``.  Progress and
errors go to standard error; machine-readable output goes to files or
standard output.  Exit codes: 0 success, 1 validation/usage error,
2 runtime failure (including a ``run`` in which some cells failed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise _UsageError(message)


def _progress(msg: str) -> None:
    print(msg, file=sys.stderr)


def _build_parser() -> _Parser:
    parser = _Parser(prog="malakit", description=__doc__)
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run a declarative experiment spec")
    p_run.add_argument("spec", help="path to a spec file")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_run.add_argument("--seed", type=int, default=None, help="master seed override")

    p_sample = sub.add_parser("sample", help="run one sampling chain on a Gaussian target")
    p_sample.add_argument("--kind", choices=["mala", "rwm"], default="mala")
    p_sample.add_argument("--dim", type=int, default=1)
    p_sample.add_argument("--precision", default="1.0", help="scalar or comma list")
    p_sample.add_argument("--eta", type=float, default=None, help="explicit step size (default: theorem1 schedule)")
    p_sample.add_argument("--safety", type=float, default=1.0, help="theorem1 safety constant")
    p_sample.add_argument("--iterations", type=int, default=1000)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument("--lazy", action="store_true")
    p_sample.add_argument("--out", default="runs/sample")

    p_opt = sub.add_parser("optimize", help="zero-one loss pipeline via constrained MALA")
    p_opt.add_argument("--dim", type=int, default=3)
    p_opt.add_argument("--count", type=int, default=2000, help="dataset size r")
    p_opt.add_argument("--q0", type=float, default=0.7)
    p_opt.add_argument("--epsilon", type=float, default=0.1)
    p_opt.add_argument("--c1", type=float, default=0.05)
    p_opt.add_argument("--eta", type=float, default=0.05)
    p_opt.add_argument("--iterations", type=int, default=6000)
    p_opt.add_argument("--eager", action="store_true", help="disable the lazy coin (default: lazy on)")
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--out", default=None)

    p_diag = sub.add_parser("diagnose", help="run a named diagnostic")
    p_diag.add_argument("check", choices=["hanson-wright", "detailed-balance", "energy-scaling",
                                          "conductance", "exit-probability"])
    p_diag.add_argument("--dim", type=int, default=10)
    p_diag.add_argument("--xi", type=float, default=None)
    p_diag.add_argument("--draws", type=int, default=10**6)
    p_diag.add_argument("--eta", type=float, default=0.1)
    p_diag.add_argument("--bins", type=int, default=400)
    p_diag.add_argument("--seed", type=int, default=0,
                        help="seed of hanson-wright, energy-scaling and exit-probability")

    p_scal = sub.add_parser("scaling", help="scaling study: mixing time against the step size eta")
    p_scal.add_argument("spec", help="template spec file (eager mala or rwm, 1D or 2D target)")
    p_scal.add_argument("--axis", choices=["eta"], required=True, help="the study's axis: eta")
    p_scal.add_argument("--values", required=True, help="comma-separated eta values (>= 3)")
    p_scal.add_argument("--out", default=None, help="write the table CSV here")

    p_reg = sub.add_parser("regularity", help="regularity report for a dataset CSV")
    p_reg.add_argument("dataset", help="dataset CSV (with JSON sidecar)")
    p_reg.add_argument("--loss", choices=["logistic", "sigmoid"], default="logistic")
    p_reg.add_argument("--prior", type=float, default=0.0)
    p_reg.add_argument("--probe-points", type=int, default=16)
    p_reg.add_argument("--probe-dirs", type=int, default=16)
    p_reg.add_argument("--seed", type=int, default=0)
    p_reg.add_argument("--json", action="store_true", help="emit JSON instead of a table")

    p_data = sub.add_parser("dataset", help="generate a synthetic sphere dataset")
    p_data.add_argument("--dim", type=int, required=True)
    p_data.add_argument("--count", type=int, required=True)
    p_data.add_argument("--q0", type=float, default=1.0)
    p_data.add_argument("--seed", type=int, default=0)
    p_data.add_argument("--out", required=True, help="CSV path (JSON sidecar written next to it)")
    return parser


def cli_entry(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", None) is not None and args.seed < 0:  # every command, before any output
            parser.error(f"argument --seed: must be >= 0, got {args.seed}")
        if getattr(args, "dim", None) is not None and args.dim < 1:
            parser.error(f"argument --dim: the dimension must be >= 1, got {args.dim}")
        if getattr(args, "count", None) is not None and args.count < 0:
            parser.error(f"argument --count: must be >= 0, got {args.count}")
        if any(c in getattr(args, "precision", "") for c in "#\n"):  # it is written into a spec's text
            parser.error(f"argument --precision: must be a number or a comma list, got {args.precision!r}")
    except _UsageError as exc:
        _progress(f"error: {exc}")
        parser.print_usage(sys.stderr)
        return 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    handler = {
        "run": _cmd_run,
        "sample": _cmd_sample,
        "optimize": _cmd_optimize,
        "diagnose": _cmd_diagnose,
        "scaling": _cmd_scaling,
        "regularity": _cmd_regularity,
        "dataset": _cmd_dataset,
    }[args.command]
    try:
        return handler(args)
    except (_UsageError, ValueError) as exc:
        _progress(f"error: {exc}")
        return 1
    except Exception as exc:  # noqa: BLE001 - surfaced as runtime failure
        _progress(f"runtime failure: {exc}")
        return 2


def _cmd_run(args) -> int:
    from .harness import parse_spec, run_experiment

    text = Path(args.spec).read_text()
    spec = parse_spec(text)
    if args.seed is not None:
        from dataclasses import replace

        spec = replace(spec, seed=args.seed)
    _progress(f"running experiment {spec.name!r} ({spec.replicas} replicas)")
    report = run_experiment(spec, output_dir=args.out)
    _progress(f"summary: {report.summary_path}")
    for err in report.replica_errors:
        _progress(f"replica failure: {err}")
    for name, block in report.diagnostics.items():
        if "error" in block:
            _progress(f"diagnostic failure: {name}: {block['error']}")
    print(report.summary_path)
    return 0 if report.status == "ok" else 2


def _run_one_cell(out, name, diagnostics, iterations, seed, **sections):
    """Run a spec of one step size and one replica through ``run_experiment``,
    as ``malakit run`` runs the ``spec`` that its ``report.json`` records.
    ``sections`` maps a section to its keys; the spec is written as text and
    read by ``parse_spec``, as a spec file is, so a bad value is refused,
    naming its key and section, before any output is written."""
    from .harness import HEADER, parse_spec, run_experiment

    sections["run"] = {"iterations": iterations, "replicas": 1, "seed": seed}
    lines = [HEADER, f"name = {name}"]
    for section, keys in sections.items():
        lines += [f"[{section}]", *(f"{k} = {v}" for k, v in keys.items())]
    report = run_experiment(parse_spec("\n".join(lines + ["[diagnostics]", *diagnostics])), output_dir=out)
    _progress(f"outputs in {Path(report.summary_path).parent}")
    return report


def _cmd_sample(args) -> int:
    schedule = ({"kind": "theorem1", "safety": args.safety} if args.eta is None
                else {"kind": "explicit", "eta": args.eta})
    report = _run_one_cell(
        args.out, "sample", ["acceptance_stats"], args.iterations, args.seed,
        target={"kind": "gaussian", "d": args.dim, "precision": args.precision},
        sampler={"kind": args.kind, "lazy": args.lazy}, schedule=schedule)
    acceptance = report.diagnostics["acceptance_stats"]["accepted_fraction_mean"]
    _progress(f"eta {report.resolved_etas[0]:g} ({schedule['kind']}), acceptance {acceptance:.3f}")
    print(report.trace_paths[0])
    return 0


def _cmd_optimize(args) -> int:
    report = _run_one_cell(
        args.out, "optimize", ["acceptance_stats", "zero_one_summary"], args.iterations, args.seed,
        target={"kind": "zero_one", "d": args.dim, "r": args.count, "q0": args.q0, "epsilon": args.epsilon,
                "c1": args.c1, "data_seed": args.seed},
        sampler={"kind": "constrained-mala", "lazy": not args.eager}, schedule={"kind": "explicit", "eta": args.eta})
    notes = report.target_notes
    _progress(f"inverse temperature {notes['inverse_temperature']:g}, annulus scale {notes['lam']:g}")
    summary = report.diagnostics["zero_one_summary"]
    result = {
        "minimizer": summary["minimizers"][0],
        "potential": summary["potentials"][0],
        "angle_to_truth": summary["angles"][0],
        "accepted_fraction": report.diagnostics["acceptance_stats"]["accepted_fraction_mean"],
        "gradient_evals": report.gradient_evals,
    }
    print(json.dumps(result, sort_keys=True))
    return 0


def _cmd_diagnose(args) -> int:
    from .diagnostics import (cheeger_1d, conductance, detailed_balance_violation, energy_error_scaling,
                              hanson_wright_check, transition_matrix_1d)
    from .grids import grid_truth
    from .regularity import constraint_exit_estimate
    from .targets import annulus, make_gaussian

    if args.check == "hanson-wright":
        xi = args.xi if args.xi is not None else 1.5 * math.sqrt(2.0 * args.dim)
        result = hanson_wright_check(args.dim, xi, args.draws, args.seed).__dict__
    elif args.check in ("detailed-balance", "conductance"):
        target = make_gaussian(1, 1.0)
        truth = grid_truth(target, (-8.0, 8.0), args.bins)
        if args.check == "detailed-balance":
            rows = {kind: detailed_balance_violation(transition_matrix_1d(target, kind, args.eta, truth), truth.mass)
                    for kind in ("mala", "rwm")}  # one kernel alive at a time
            result = {"eta": args.eta, "bins": args.bins, "max_relative_violation": rows}
        else:
            kernel = transition_matrix_1d(target, "mala", args.eta, truth)
            psi = cheeger_1d(truth, lambda t: math.exp(-t * t / 2.0) / math.sqrt(2.0 * math.pi))
            cond = conductance(kernel, truth)
            result = {"eta": args.eta, "cheeger": psi, "conductance_upper_bound": cond,
                      "ratio_to_eta_cheeger": cond / (args.eta * psi)}
    elif args.check == "energy-scaling":
        fit = energy_error_scaling(make_gaussian(args.dim, 1.0), [0.4, 0.2, 0.1, 0.05, 0.025], 4000, args.seed)
        result = {"slope": fit.slope, "r_squared": fit.r_squared}
    else:  # exit-probability
        z = np.zeros(args.dim)
        z[0] = 0.75
        result = constraint_exit_estimate(make_gaussian(args.dim, 1.0), annulus(0.5, 1.0), args.eta, z,
                                          args.draws, args.seed).__dict__
    try:  # strict JSON: a non-finite value exits 1 with no output, never prints NaN or Infinity
        text = json.dumps(result, sort_keys=True, allow_nan=False)
    except ValueError:
        raise ValueError(f"the result holds a non-finite value: {result}") from None
    print(text)
    return 0


def _cmd_scaling(args) -> int:
    from .harness import MAX_ITERATIONS, MIN_SLOPE_POINTS, parse_spec, scaling_study

    template = parse_spec(Path(args.spec).read_text())
    try:
        values = [float(v) for v in args.values.split(",") if v.strip()]
    except ValueError:
        raise ValueError(f"argument --values: must be a comma list of numbers, got {args.values!r}") from None
    result = scaling_study(template, values)
    if result.slope is None:
        _progress(f"no log-log slope: {len(result.resolved)} of {len(values)} mixing estimates resolved "
                  f"within {MAX_ITERATIONS} steps, and a slope needs {MIN_SLOPE_POINTS}")
    table = result.table()
    if args.out:
        Path(args.out).write_text(table)
        _progress(f"table written to {args.out}")
    print(table, end="")
    return 0


def _cmd_regularity(args) -> int:
    from .regularity import build_regularity_report
    from .targets import load_dataset, make_logistic_regression, make_sigmoid_regression

    data = load_dataset(args.dataset)
    maker = make_logistic_regression if args.loss == "logistic" else make_sigmoid_regression
    target = maker(data, args.prior)
    report = build_regularity_report(target, data, args.probe_points, args.probe_dirs, args.seed)
    if args.json:
        print(report.to_json())
        return 0
    print(f"{'quantity':<16}{'bound':>14}{'estimate':>14}  status")
    for quantity, bound, estimate, status in report.rows():
        print(f"{quantity:<16}{bound:>14}{estimate:>14}  {status}")
    return 0


def _cmd_dataset(args) -> int:
    from .targets import sample_sphere_dataset, save_dataset

    data = sample_sphere_dataset(args.dim, args.count, args.q0, args.seed)
    csv_path, sidecar = save_dataset(data, args.out)
    _progress(f"wrote {csv_path} and {sidecar}")
    print(csv_path)
    return 0


def main() -> None:
    sys.exit(cli_entry())


if __name__ == "__main__":
    main()
