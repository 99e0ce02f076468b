"""Declarative experiment runner.

Experiments are described by a small line-oriented text format (versioned
header, ``[section]`` blocks, ``key = value`` lines) so studies can be
archived and re-run byte-identically.  Each (eta, replica) cell draws from
its own RNG substream keyed by the cell index, and results are reduced in
index order, so every summary CSV is independent of how cells are batched.

Format sketch::

    malakit-spec v1
    name = gaussian-demo

    [target]
    kind = gaussian          # gaussian | logistic | sigmoid | zero_one
    d = 1
    precision = 1.0

    [sampler]
    kind = mala              # mala | rwm | constrained-mala
    lazy = false

    [schedule]
    kind = explicit          # explicit | theorem1 | sweep
    eta = 0.5

    [run]
    iterations = 2000
    replicas = 4
    seed = 7
    record_every = 1

    [diagnostics]
    acceptance_stats
    tv_vs_truth lo=-6 hi=6 bins=60

    [output]
    dir = runs/demo

Comments start with ``#``.  :data:`SCHEMA` declares every key once, with
its type, bounds and default; unknown, missing and ill-typed keys are
validation errors, and all errors are reported together rather than
first-only.
"""

from __future__ import annotations

import json
import math
import os
import platform
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from . import __version__
from .chains import ChainConfig, ChainTrace, extract_minimizer, run_chains, theorem1_step_size
from .diagnostics import (FitFailed, ScalingFit, acceptance_stats, energy_error_scaling, hitting_time,
                          mixing_time_estimate)
from .grids import EmptySupportError, grid_truth
from .integrator import NumericFailure
from .regularity import (build_regularity_report, estimate_c3, estimate_c4, estimate_gradient_bound,
                         gradient_cloud)
from .rng import chain_rng, subseed
from .targets import (ConstraintSet, Dataset, TargetModel, annulus, load_dataset,
                      make_gaussian, make_logistic_regression, make_sigmoid_regression,
                      make_smoothed_zero_one, recommended_schedule, sample_sphere_dataset)

__all__ = [
    "SpecValidationError",
    "ExperimentSpec",
    "RunReport",
    "parse_spec",
    "build_target",
    "resolve_etas",
    "warm_annulus_init",
    "run_experiment",
    "scaling_study",
    "ScalingStudyResult",
]

HEADER = "malakit-spec v1"

_REQUIRED = object()  # the default of a key that must be given


@dataclass(frozen=True)
class _Key:
    """One spec key: its type, bounds and default.

    ``type`` is ``int``, ``number``, ``numbers`` (a number or a comma list of
    numbers), ``word`` or ``bool``; numbers must be finite.  The bounds apply
    to every number; ``choices`` restricts a word.  A key whose default is
    ``_REQUIRED`` must be given, and one with ``same_as`` takes that key's
    value when it is absent.
    """

    type: str
    low: float | None = None
    high: float | None = None
    low_open: bool = False
    default: object = _REQUIRED
    choices: tuple = ()
    same_as: str | None = None

    @property
    def required(self) -> bool:
        return self.default is _REQUIRED and self.same_as is None


def _sizes(**kw) -> dict:
    return {"d": _Key("int", 1, **kw), "r": _Key("int", 1, **kw),
            "q0": _Key("number", 0.0, 1.0, low_open=True, **kw), "data_seed": _Key("int", 0, **kw)}


_POSITIVE = {"low": 0.0, "low_open": True}
_PROBES = {"probe_points": _Key("int", 1, default=8), "probe_dirs": _Key("int", 1, default=8)}
_DATA = {"dataset": _Key("word", default=None), **_sizes(default=None), "prior": _Key("number", 0.0)}


@dataclass(frozen=True)
class _Diagnostic:
    """A spec diagnostic, declared once; parse_spec and run_experiment loop over these."""

    keys: dict  # its table of SCHEMA
    csv: tuple  # the keys of its report.json block that diagnostics.csv carries, in order
    run: Callable  # (params, *, prepared, spec, built, traces, stats) -> that block; traces and stats in cell order
    check: Callable = lambda p, kind: []  # (params, target kind) -> its errors on the spec, listed by parse_spec
    prepare: Callable = lambda p, built: None  # before any output: refuses a built target, or returns what run reads


def _tv_truth(p, built):
    d = built.target.dimension
    if d > 2:
        raise SpecValidationError([f"tv_vs_truth needs a 1D or 2D target, got d = {d}"])
    bounds = [(p["lo"], p["hi"]), (p["lo2"], p["hi2"])][:d]
    try:
        with np.errstate(all="ignore"):  # a density that overflows on a cell gives it no mass
            return grid_truth(built.target, bounds, [p["bins"], p["bins2"]][:d], built.constraint)
    except EmptySupportError:
        raise SpecValidationError([f"tv_vs_truth finds no mass on its grid {bounds} (lo to hi"
                                   f"{', lo2 to hi2' if d == 2 else ''}): each cell's density is 0, not finite "
                                   "or outside the constraint"]) from None


def _tv_block(p, prepared, spec, traces, **_):
    finals = np.stack([tr.states[-1] for tr in traces])
    raw = prepared.tv_to_samples(finals)
    floor = prepared.binning_floor(finals.shape[0], chain_rng(spec.seed, 10**6 + 1))
    return {"raw": raw, "binning_floor": floor, "corrected": raw - floor, "replicas": finals.shape[0]}


def _energy_stable(p, built):  # on a Gaussian the leapfrog is stable for eta^2 M < 2, M its largest precision
    m = None if built.target.quadratic_precision is None else float(np.max(built.target.quadratic_precision))
    if m is not None and any(e * e * m >= 2.0 for e in p["etas"]):
        raise SpecValidationError([f"energy_error_scaling needs eta^2 M < 2 for each of its etas, with M = {m:g} "
                                   f"the target's largest precision, got etas = {p['etas']}"])


def _zero_one_block(p, built, traces, **_):
    theta, angle_max = built.theta_star, p["angle_max"]
    cone = _direction_cone(theta, angle_max)
    minimizers = [extract_minimizer(tr) for tr in traces]
    angles = [_angle_to(x, theta) for x, _ in minimizers]
    hits = [hitting_time(tr, cone) for tr in traces]
    return {
        "angles": angles,
        "minimizers": [x.tolist() for x, _ in minimizers],
        "potentials": [value for _, value in minimizers],
        "hitting_iterations": [-1 if hit is None else hit for hit in hits],
        "median_angle": float(np.median(angles)),
        "within_fraction": float(np.mean([a <= angle_max for a in angles])),
        "angle_max": angle_max,
    }


_DIAGNOSTICS = {
    "acceptance_stats": _Diagnostic({}, ("accepted_fraction_mean", "mean_accept_prob"), lambda p, stats, **_: {
        "accepted_fraction_mean": float(np.mean([s.accepted_fraction for s in stats])),
        "mean_accept_prob": float(np.mean([s.mean for s in stats]))}),
    "tv_vs_truth": _Diagnostic(
        {"lo": _Key("number"), "hi": _Key("number"), "bins": _Key("int", 2), "lo2": _Key("number", same_as="lo"),
         "hi2": _Key("number", same_as="hi"), "bins2": _Key("int", 2, same_as="bins")},
        ("raw", "binning_floor", "corrected"), _tv_block, prepare=_tv_truth,
        check=lambda p, kind: [] if p["lo"] < p["hi"] and p["lo2"] < p["hi2"]
        else ["tv_vs_truth needs lo < hi and lo2 < hi2"]),
    "energy_error_scaling": _Diagnostic(
        {"etas": _Key("numbers", **_POSITIVE, default="0.4,0.2,0.1,0.05,0.025"),
         "samples": _Key("int", 1, default=2000)},
        ("slope", "r_squared"), lambda p, spec, built, **_: asdict(
            energy_error_scaling(built.target, p["etas"], p["samples"], spec.seed)), prepare=_energy_stable,
        check=lambda p, kind: [] if len(p["etas"]) >= 3 and max(p["etas"]) / min(p["etas"]) >= 10.0 * (1 - 1e-9)
        else [f"energy_error_scaling needs 3 or more etas spanning a decade, got etas = {p['etas']}"]),
    "regularity": _Diagnostic(
        _PROBES, ("incoherence", "c3_estimate", "c4_estimate"), lambda p, spec, built, **_: asdict(
            build_regularity_report(built.target, built.dataset, p["probe_points"], p["probe_dirs"], spec.seed)),
        check=lambda p, kind: ["regularity diagnostic needs a dataset-backed target"] if kind == "gaussian" else []),
    "zero_one_summary": _Diagnostic(
        {"angle_max": _Key("number", **_POSITIVE, default=0.35)}, ("median_angle", "within_fraction"),
        _zero_one_block, check=lambda p, kind: [] if kind == "zero_one"
        else ["zero_one_summary only applies to zero_one targets"]),
}

# Every key of the format, declared once.  ``[target]`` and ``[schedule]``
# are keyed by their ``kind``, ``diagnostics`` by the diagnostic's name, and
# "" is the top level.  parse_spec checks a spec against this table once and
# keeps the typed values, defaults filled in, that the builders read.
SCHEMA = {
    "": {"name": _Key("word")},
    "target": {
        "gaussian": {"d": _Key("int", 1), "precision": _Key("numbers", **_POSITIVE, default=1.0)},
        "logistic": _DATA,
        "sigmoid": _DATA,
        "zero_one": {**_sizes(), "epsilon": _Key("number", 0.0, 0.1, low_open=True),
                     "c1": _Key("number", **_POSITIVE, default=1.0)},
    },
    "sampler": {"kind": _Key("word", choices=("mala", "rwm", "constrained-mala")),
                "lazy": _Key("bool", default=None)},
    "constraint": {"inner": _Key("number", **_POSITIVE), "outer": _Key("number", **_POSITIVE)},
    "schedule": {
        "explicit": {"eta": _Key("number", **_POSITIVE)},
        "theorem1": {"safety": _Key("number", **_POSITIVE, default=1.0), **_PROBES},
        "sweep": {"etas": _Key("numbers", **_POSITIVE)},
    },
    "run": {"iterations": _Key("int", 1), "replicas": _Key("int", 1), "seed": _Key("int", 0),
            "record_every": _Key("int", 1, default=1)},
    "diagnostics": {name: entry.keys for name, entry in _DIAGNOSTICS.items()},
    "output": {"dir": _Key("word", default=None)},
}
_TYPE_NAMES = {"int": "an integer", "number": "a finite number",
               "numbers": "a number or comma-separated numbers", "word": "a word", "bool": "true or false"}


class SpecValidationError(ValueError):
    """Carries the full list of validation problems."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("invalid experiment spec:\n  " + "\n  ".join(self.errors))


@dataclass(frozen=True)
class ExperimentSpec:
    """A checked spec, made by :func:`parse_spec`.  ``diagnostics`` maps each
    diagnostic's name to its params, in the spec's order.  Each params dict
    holds every key of its :data:`SCHEMA` table, typed, with defaults filled in
    (None for an optional key not given); a constrained-mala spec has its annulus."""

    name: str
    target_kind: str
    target_params: dict
    sampler: str
    lazy: bool
    schedule_kind: str
    schedule_params: dict
    iterations: int
    replicas: int
    seed: int
    record_every: int
    diagnostics: dict
    output: str | None
    constraint_radii: tuple[float, float] | None


# ---------------------------------------------------------------------------
# parsing

def _parse_scalar(text: str):
    text = text.strip()
    low = text.lower()
    if low in ("true", "false"):
        return low == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def _parse_sections(text: str, errors: list[str]):
    lines = [line for line in (raw.split("#", 1)[0].strip() for raw in text.splitlines()) if line]
    if not lines or lines[0] != HEADER:
        errors.append(f"first line must be {HEADER!r}")
        return {}, []
    sections: dict[str, dict] = {"": {}}  # "" is the top level
    diag_lines: list[str] = []
    current = ""
    for line in lines[1:]:
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if current in sections:
                errors.append(f"duplicate section [{current}]")
            sections.setdefault(current, {})
        elif current == "diagnostics":
            diag_lines.append(line)
        elif "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            if key in sections[current]:
                errors.append(f"duplicate key {key!r} in " + (f"[{current}]" if current else "the top level"))
            sections[current][key] = _parse_scalar(value)
        else:
            errors.append(f"cannot parse line {line!r}")
    return sections, diag_lines


def _convert(name: str, key: _Key, raw):
    """``raw`` as the type ``key`` declares; raises ValueError naming ``name``."""
    if key.type in ("word", "bool"):
        if not isinstance(raw, str if key.type == "word" else bool) or raw == "":
            raise ValueError(f"{name} must be {_TYPE_NAMES[key.type]}, got {raw!r}")
        if key.choices and raw not in key.choices:
            raise ValueError(f"{name} must be one of {key.choices}, got {raw!r}")
        return raw
    numeric = int if key.type == "int" else (int, float)
    try:
        values = [float(p) for p in raw.split(",")] if isinstance(raw, str) and key.type == "numbers" else [raw]
    except ValueError:
        values = []
    if not values or not all(isinstance(v, numeric) and not isinstance(v, bool)
                             and (isinstance(v, int) or math.isfinite(v)) for v in values):
        raise ValueError(f"{name} must be {_TYPE_NAMES[key.type]}, got {raw!r}")
    for v in values:
        if key.low is not None and (v <= key.low if key.low_open else v < key.low):
            raise ValueError(f"{name} must be {'>' if key.low_open else '>='} {key.low}, got {v}")
        if key.high is not None and v > key.high:
            raise ValueError(f"{name} must be <= {key.high}, got {v}")
    if key.type == "numbers":
        return [float(v) for v in values]
    return values[0] if key.type == "int" else float(values[0])


def _section(where: str, raw: dict, keys: dict, errors: list[str]) -> dict | None:
    """Check ``raw`` against ``keys``, adding each problem to ``errors``.
    Returns the typed values with defaults filled in, or None on a problem."""
    problems = [f"unknown key {k!r} in {where} (allowed: {', '.join(sorted(keys)) or 'none'})"
                for k in raw if k not in keys]
    values: dict = {}
    for name, key in keys.items():
        try:
            if name in raw:
                values[name] = _convert(name, key, raw[name])
            elif key.required:
                raise ValueError(f"missing key {name!r}")
            elif key.same_as is not None:
                values[name] = values.get(key.same_as)
            else:
                values[name] = None if key.default is None else _convert(name, key, key.default)
        except ValueError as exc:
            problems.append(f"{exc} in {where}")
    errors.extend(problems)
    return None if problems else values


def _by_kind(name: str, sections: dict, errors: list[str]):
    """The kind and typed values of ``[target]`` or ``[schedule]``."""
    raw = dict(sections.get(name, {}))
    kind = raw.pop("kind", None)
    if kind not in SCHEMA[name]:
        errors.append(f"{name} kind must be one of {tuple(SCHEMA[name])}, got {kind!r}")
        return None, None
    return kind, _section(f"[{name}]", raw, SCHEMA[name][kind], errors)


def parse_spec(text: str) -> ExperimentSpec:
    """Parse and validate the experiment format; collects every error."""
    errors: list[str] = []
    sections, diag_lines = _parse_sections(text, errors)
    if not sections:
        raise SpecValidationError(errors)
    errors.extend(f"unknown section [{s}]" for s in sections if s not in SCHEMA)
    plain = {s: _section(f"[{s}]" if s else "the top level", sections.get(s, {}), SCHEMA[s], errors)
             for s in ("", "sampler", "run", "output")}
    kind, target = _by_kind("target", sections, errors)
    sched_kind, schedule = _by_kind("schedule", sections, errors)
    con = _section("[constraint]", sections["constraint"], SCHEMA["constraint"], errors) \
        if "constraint" in sections else None
    sampler = (plain["sampler"] or {}).get("kind")

    # The rules that tie keys together.
    if kind in ("logistic", "sigmoid") and target and target["dataset"] is None:
        missing = [k for k in ("d", "r", "q0", "data_seed") if target[k] is None]
        if missing:
            errors.append(f"[target] needs dataset = path, or {', '.join(missing)}")
    if kind == "gaussian" and target and len(target["precision"]) not in (1, target["d"]):
        errors.append(f"precision needs 1 or d = {target['d']} entries, got {len(target['precision'])} in [target]")
    if con and not con["inner"] < con["outer"]:
        errors.append("[constraint] needs inner < outer")
    if sampler == "constrained-mala" and "constraint" not in sections and kind != "zero_one":
        errors.append("constrained-mala needs a [constraint] section (or a zero_one target)")
    if sampler in ("mala", "rwm") and "constraint" in sections:
        errors.append(f"a [constraint] section needs sampler kind constrained-mala, got {sampler}")

    diagnostics: dict = {}
    for line in diag_lines:
        name, *pieces = line.split()
        if name not in _DIAGNOSTICS:
            errors.append(f"unknown diagnostic {name!r} (known: {', '.join(_DIAGNOSTICS)})")
            continue
        raw = {}
        for piece in pieces:
            if "=" not in piece:
                errors.append(f"diagnostic parameter {piece!r} must be key=value")
                continue
            k, v = piece.split("=", 1)
            if k in raw:
                errors.append(f"duplicate parameter {k!r} in diagnostic {name}")
            raw[k] = _parse_scalar(v)
        if name in diagnostics:
            errors.append(f"duplicate diagnostic {name!r}")
        p = diagnostics[name] = _section(f"diagnostic {name}", raw, _DIAGNOSTICS[name].keys, errors)
        if p is not None:
            errors += _DIAGNOSTICS[name].check(p, kind)

    if errors:
        raise SpecValidationError(errors)
    run, lazy = plain["run"], plain["sampler"]["lazy"]
    radii = (con["inner"], con["outer"]) if con else (0.5, 1.0)  # a zero_one target's default annulus
    return ExperimentSpec(
        name=plain[""]["name"],
        target_kind=kind,
        target_params=target,
        sampler=sampler,
        lazy=sampler == "constrained-mala" if lazy is None else lazy,  # lazy by default when optimizing
        schedule_kind=sched_kind,
        schedule_params=schedule,
        iterations=run["iterations"],
        replicas=run["replicas"],
        seed=run["seed"],
        record_every=run["record_every"],
        diagnostics=diagnostics,
        output=plain["output"]["dir"],
        constraint_radii=radii if sampler == "constrained-mala" else None,
    )


def _serialize_spec(spec: ExperimentSpec) -> str:
    """The spec as text, every default spelled out: the inverse of
    :func:`parse_spec`, which reads it back to an equal spec.  A list is its
    entries' ``repr``s joined by commas, and a key whose value is None (an
    optional key not given) is left out."""
    def fmt(v):
        if isinstance(v, bool):
            return "true" if v else "false"
        return ",".join(map(repr, v)) if isinstance(v, list) else repr(v) if isinstance(v, float) else str(v)

    def keys(params: dict, sep: str = " = ") -> list[str]:
        return [f"{k}{sep}{fmt(v)}" for k, v in sorted(params.items()) if v is not None]

    lines = [HEADER, f"name = {spec.name}", "", "[target]", f"kind = {spec.target_kind}"]
    lines += keys(spec.target_params)
    lines += ["", "[sampler]", f"kind = {spec.sampler}", f"lazy = {fmt(spec.lazy)}"]
    if spec.constraint_radii is not None:
        lines += ["", "[constraint]", f"inner = {fmt(spec.constraint_radii[0])}",
                  f"outer = {fmt(spec.constraint_radii[1])}"]
    lines += ["", "[schedule]", f"kind = {spec.schedule_kind}"]
    lines += keys(spec.schedule_params)
    lines += ["", "[run]", f"iterations = {spec.iterations}", f"replicas = {spec.replicas}",
              f"seed = {spec.seed}", f"record_every = {spec.record_every}"]
    if spec.diagnostics:
        lines += ["", "[diagnostics]"]
        lines += [" ".join([name, *keys(params, "=")]) for name, params in spec.diagnostics.items()]
    if spec.output:
        lines += ["", "[output]", f"dir = {spec.output}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# building and running

@dataclass(frozen=True)
class BuiltTarget:
    target: TargetModel
    constraint: ConstraintSet | None
    dataset: Dataset | None
    theta_star: np.ndarray | None
    notes: dict


def build_target(spec: ExperimentSpec) -> BuiltTarget:
    """Materialize the spec's target (and constraint, for constrained runs)."""
    p = spec.target_params
    notes: dict = {}
    if spec.target_kind == "gaussian":
        target = make_gaussian(p["d"], p["precision"])
        dataset, theta = None, None
    else:
        if p.get("dataset") is not None:
            dataset = load_dataset(p["dataset"])
        else:
            dataset = sample_sphere_dataset(p["d"], p["r"], p["q0"], p["data_seed"])
        theta = dataset.true_param
        if spec.target_kind == "zero_one":
            inv_temp, lam = recommended_schedule(p["q0"], p["epsilon"], p["d"], p["c1"])
            scale = lam / math.sqrt(inv_temp)  # the schedule's annulus radius, reached at |x| = 1
            target = make_smoothed_zero_one(dataset, inv_temp, scale)
            notes.update(inverse_temperature=inv_temp, lam=lam, precondition_scale=scale)
        else:
            maker = make_logistic_regression if spec.target_kind == "logistic" else make_sigmoid_regression
            target = maker(dataset, p["prior"])

    constraint = None
    if spec.sampler == "constrained-mala":
        constraint = annulus(*spec.constraint_radii)
        notes["constraint"] = list(spec.constraint_radii)
    return BuiltTarget(target=target, constraint=constraint, dataset=dataset,
                       theta_star=theta, notes=notes)


def resolve_etas(spec: ExperimentSpec, built: BuiltTarget) -> tuple[list[float], dict]:
    """Schedule resolution.  theorem1 takes a Gaussian's constants from its
    precisions and probes any other target's."""
    p = spec.schedule_params
    notes: dict = {}
    if spec.schedule_kind == "explicit":
        return [p["eta"]], notes
    if spec.schedule_kind == "sweep":
        return p["etas"], notes
    # theorem1
    target = built.target
    if target.quadratic_precision is not None:  # a Gaussian's constants are exact
        c3, c4, m = 0.0, 0.0, float(np.max(target.quadratic_precision))
    else:
        points, dirs = p["probe_points"], p["probe_dirs"]
        c3, c4 = estimate_c3(target, points, dirs, spec.seed), estimate_c4(target, points, dirs, spec.seed)
        m = estimate_gradient_bound(target, list(gradient_cloud(target, points, spec.seed))).gradient_bound
    eta = theorem1_step_size(c3, c4, m, target.dimension, safety_constant=p["safety"])
    notes.update(c3=c3, c4=c4, gradient_bound=m, safety=p["safety"])
    return [eta], notes


def warm_annulus_init(target: TargetModel, constraint: ConstraintSet, rng: np.random.Generator) -> np.ndarray:
    """Best-of-64 warm start inside an annulus constraint: the uniform-radius
    candidate of least potential, drawn from ``rng``.  Raises ValueError on
    a constraint that is not an annulus."""
    if constraint.annulus_radii is None:
        raise ValueError("warm_annulus_init needs an annulus constraint")
    inner, outer = constraint.annulus_radii
    pts = rng.standard_normal((64, target.dimension))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts *= inner + (outer - inner) * rng.random((len(pts), 1))
    pot = np.asarray(target.potential(pts), dtype=float)
    return pts[int(np.argmin(pot))]


@dataclass(frozen=True)
class RunReport:
    spec: str
    resolved_etas: list[float]
    schedule_notes: dict
    target_notes: dict
    summary_path: str
    diagnostics_path: str | None
    trace_paths: list[str]
    diagnostics: dict
    gradient_evals: int
    function_evals: int
    wall_time: float
    versions: dict
    replica_errors: list[str]

    @property
    def status(self) -> str:
        """``ok`` when every cell ran to the end and every diagnostic gave its
        block, ``partial`` when some cells failed or a diagnostic's block is its
        ``error``, ``failed`` when every cell failed."""
        if not self.trace_paths:
            return "failed"
        return "partial" if self.replica_errors or any("error" in b for b in self.diagnostics.values()) else "ok"

    def to_json(self) -> str:
        """``report.json``: every field, and ``status``."""
        return json.dumps({**asdict(self), "status": self.status}, sort_keys=True, indent=2,
                          default=_json_default)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def run_experiment(spec: ExperimentSpec, output_dir=None) -> RunReport:
    """Run every (eta, replica) cell, write traces and summaries.

    All cells run in one lockstep batch, one step size per row.  Each cell
    draws from its own stream keyed by its index, and rows are written in
    cell order, so outputs do not depend on how cells are batched.  A cell
    failure is recorded (``status`` becomes ``partial``), not raised; when
    every cell fails, ``status`` is ``failed`` and ``RuntimeError`` follows.
    A diagnostic that fails on the samples (ValueError or FitFailed) is
    recorded as its block ``{"error": message}``, with no diagnostics.csv
    lines, and ``status`` becomes ``partial``.  Every check on the spec and
    the built target runs before any output is made.
    """
    start = time.perf_counter()
    if output_dir is not None:
        out = Path(output_dir)
    elif spec.output is not None:
        out = Path(spec.output)
    else:
        out = Path(os.environ.get("MALAKIT_OUT", "runs")) / spec.name
    built = build_target(spec)
    prepared = {name: _DIAGNOSTICS[name].prepare(p, built) for name, p in spec.diagnostics.items()}
    etas, schedule_notes = resolve_etas(spec, built)
    out.mkdir(parents=True, exist_ok=True)

    cells = [(e_idx, eta, rep) for e_idx, eta in enumerate(etas) for rep in range(spec.replicas)]
    cell_seeds = [subseed(spec.seed, k) for k in range(len(cells))]
    configs = [ChainConfig(step_size=eta, iterations=spec.iterations, seed=seed, lazy=spec.lazy,
                           constraint=built.constraint, record_every=spec.record_every)
               for (_, eta, _), seed in zip(cells, cell_seeds)]
    # A cell starts at the origin, or warm from its seed's key 3, beside its chain's keys 0, 1 and 2.
    inits = np.array([warm_annulus_init(built.target, built.constraint, chain_rng(seed, 3))
                      if built.constraint is not None else np.zeros(built.target.dimension)
                      for seed in cell_seeds])
    results = run_chains(built.target, spec.sampler, configs, inits)

    errors = [f"cell {k} (eta={cells[k][1]:g}, replica {cells[k][2]}): {r}"
              for k, r in enumerate(results) if not isinstance(r, ChainTrace)]
    traces = {k: r for k, r in enumerate(results) if isinstance(r, ChainTrace)}

    stats = {k: acceptance_stats(tr) for k, tr in traces.items()}
    trace_paths = []
    summary_lines = ["eta_index,eta,replica,seed,iterations,accepted_fraction,mean_accept_prob,"
                     "mean_abs_energy_error,min_potential,argmin_step,gradient_evals,function_evals"]
    for k in range(len(cells)):
        if k not in traces:
            continue
        e_idx, eta, rep = cells[k]
        tr = traces[k]
        path = tr.to_csv(out / f"trace_{e_idx}_{rep}.csv")
        trace_paths.append(str(path))
        summary_lines.append(",".join([
            str(e_idx), repr(float(eta)), str(rep), str(cell_seeds[k]), str(spec.iterations),
            repr(stats[k].accepted_fraction), repr(stats[k].mean),
            repr(float(np.mean(np.abs(tr.energy_errors)))),
            repr(float(tr.potentials[tr.argmin_index])), str(int(tr.indices[tr.argmin_index])),
            str(tr.gradient_evals), str(tr.function_evals),
        ]))
    summary_path = out / "summary.csv"
    summary_path.write_text("\n".join(summary_lines) + "\n")

    diagnostics, diag_lines = {}, []
    for name, p in spec.diagnostics.items() if traces else ():  # each one's block, and its diagnostics.csv lines
        entry = _DIAGNOSTICS[name]
        try:
            block = diagnostics[name] = entry.run(p, prepared=prepared[name], spec=spec, built=built,
                                                  traces=list(traces.values()), stats=list(stats.values()))
        except (ValueError, FitFailed) as exc:  # it fails on the samples: the run is partial
            diagnostics[name] = {"error": str(exc)}
            continue
        diag_lines += [f"{name},{key},{float(block[key])!r}" for key in entry.csv]
    diagnostics_path = out / "diagnostics.csv"
    if diag_lines:
        diagnostics_path.write_text("\n".join(["diagnostic,key,value"] + diag_lines) + "\n")

    report = RunReport(
        spec=_serialize_spec(spec),
        resolved_etas=[float(e) for e in etas],
        schedule_notes=schedule_notes,
        target_notes=built.notes,
        summary_path=str(summary_path),
        diagnostics_path=str(diagnostics_path) if diag_lines else None,
        trace_paths=trace_paths,
        diagnostics=diagnostics,
        gradient_evals=sum(tr.gradient_evals for tr in traces.values()),
        function_evals=sum(tr.function_evals for tr in traces.values()),
        wall_time=time.perf_counter() - start,
        versions={"malakit": __version__, "numpy": np.__version__, "python": platform.python_version()},
        replica_errors=errors,
    )
    (out / "report.json").write_text(report.to_json() + "\n")
    if not traces:
        raise RuntimeError("every replica failed:\n" + "\n".join(errors))
    return report


def _angle_to(x: np.ndarray, theta: np.ndarray) -> float:
    nx = np.linalg.norm(x)
    if nx == 0:
        return math.pi
    return float(math.acos(float(np.clip(x @ theta / nx, -1.0, 1.0))))


def _direction_cone(theta: np.ndarray, angle_max: float) -> ConstraintSet:
    def membership(x):  # x is a float array: ConstraintSet.contains makes it one
        norms = np.linalg.norm(x, axis=-1)
        ips = x @ theta
        with np.errstate(invalid="ignore", divide="ignore"):
            cosine = np.where(norms > 0, ips / np.where(norms > 0, norms, 1.0), -1.0)
        return cosine >= math.cos(angle_max)

    return ConstraintSet(membership=membership)


# ---------------------------------------------------------------------------
# scaling studies

# The mixing measurement behind each point of a scaling study.
MIXING_REPLICAS = 1000
TV_THRESHOLD = 0.1
CHECK_EVERY = 2
MAX_ITERATIONS = 5000
MIN_SLOPE_POINTS = 3  # resolved mixing estimates a log-log slope is fit over


@dataclass(frozen=True)
class ScalingStudyResult:
    values: list[float]
    mixing_estimates: list[int | None]
    acceptance_means: list[float]
    gradient_evals: list[int]

    @property
    def resolved(self) -> list[tuple[float, int]]:
        """(eta, mixing estimate) for each eta whose estimate resolved."""
        return [(v, m) for v, m in zip(self.values, self.mixing_estimates) if m is not None and m > 0]

    @property
    def slope(self) -> float | None:
        """Log-log slope of mixing time against eta; None with fewer than
        :data:`MIN_SLOPE_POINTS` resolved estimates."""
        if len(self.resolved) < MIN_SLOPE_POINTS:
            return None
        etas, estimates = zip(*self.resolved)
        return ScalingFit.from_logs(np.log(etas), np.log(estimates)).slope

    def table(self) -> str:
        rows = ["eta,mixing_estimate,acceptance_mean,gradient_evals"]
        for v, m, a, g in zip(self.values, self.mixing_estimates, self.acceptance_means, self.gradient_evals):
            rows.append(f"{v:g},{'' if m is None else m},{a:.6f},{g}")
        rows.append(f"# log-log slope vs eta: {'' if self.slope is None else f'{self.slope:.4f}'}")
        return "\n".join(rows) + "\n"


def scaling_study(template: ExperimentSpec, values) -> ScalingStudyResult:
    """Mixing time against the step size: one linked-seed measurement per
    eta in ``values``, run sequentially on the template's target.

    Each eta gets one mixing estimate against the grid truth, whose
    ensemble also gives the row's acceptance and gradient count; a
    :class:`NumericFailure` is raised again with its eta in front.  Of the
    template, only the target, the sampler and the seed are read.  The
    study measures the template as written or refuses it: a lazy template,
    a constrained-mala template and a target of more than 2 dimensions (no
    grid truth) raise ValueError.
    """
    values = [float(v) for v in values]
    if len(values) < 3:
        raise ValueError("need at least 3 eta values")
    if not all(math.isfinite(v) and v > 0 for v in values):
        raise ValueError(f"eta values must be positive, got {values}")
    if len(set(values)) < len(values):
        raise ValueError(f"eta values must be distinct, got {values}")
    if template.lazy:
        raise ValueError("a scaling study runs eager chains; the template sets lazy = true")
    if template.sampler == "constrained-mala":
        raise ValueError("a scaling study runs unconstrained chains; the template is constrained-mala")
    target = build_target(template).target
    d = target.dimension
    if d > 2:
        raise ValueError(f"a scaling study needs a 1D or 2D target for its grid truth, got d = {d}")
    precision = target.quadratic_precision
    span = 6.0 if precision is None else 6.0 / math.sqrt(float(np.min(precision)))
    bounds = (-span, span) if d == 1 else ((-span, span), (-span, span))
    bins = 60 if d == 1 else 24

    def warm_init(rng, n):
        return 0.5 * rng.standard_normal((n, d))

    mixing: list[int | None] = []
    acc_means: list[float] = []
    gevals: list[int] = []
    for idx, eta in enumerate(values):
        try:
            estimate, ensemble = mixing_time_estimate(target, template.sampler, eta, warm_init, TV_THRESHOLD,
                                                      MIXING_REPLICAS, CHECK_EVERY, subseed(template.seed, idx),
                                                      bounds, bins, MAX_ITERATIONS)
        except NumericFailure as exc:
            raise NumericFailure(f"eta={eta:g}: {exc}") from exc
        mixing.append(estimate)
        acc_means.append(ensemble.accepted_fraction)
        gevals.append(ensemble.gradient_evals)
    return ScalingStudyResult(values=values, mixing_estimates=mixing, acceptance_means=acc_means,
                              gradient_evals=gevals)
