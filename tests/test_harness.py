"""Spec parsing, runner determinism, scaling studies, and the CLI."""

import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from malakit import harness
from malakit.chains import run_ensemble
from malakit.cli import cli_entry
from malakit.diagnostics import transition_matrix_1d
from malakit.grids import grid_truth
from malakit.harness import (
    DiagnosticSpec,
    ExperimentSpec,
    SpecValidationError,
    parse_spec,
    run_experiment,
    scaling_study,
)
from malakit.rng import chain_rng, subseed
from malakit.regularity import constraint_exit_estimate
from malakit.targets import TargetModel, annulus, make_gaussian

ROOT = Path(__file__).resolve().parents[1]
GOLDENS = json.loads((ROOT / "tests" / "goldens.json").read_text())

MINIMAL = """\
malakit-spec v1
name = mini

[target]
kind = gaussian
d = 1
precision = 1.0

[sampler]
kind = mala

[schedule]
kind = explicit
eta = 0.5

[run]
iterations = 1000
replicas = 2
seed = 11
"""


ZERO_ONE = """\
malakit-spec v1
name = zo

[target]
kind = zero_one
d = 3
r = 100
q0 = 0.7
epsilon = 0.1
c1 = 0.05
data_seed = 5

[sampler]
kind = constrained-mala
lazy = true

[schedule]
kind = explicit
eta = 0.05

[run]
iterations = 200
replicas = 2
seed = 3

[diagnostics]
zero_one_summary angle_max=0.35
"""

# Each spec parsed at an earlier version of the parser and failed only once
# the chains had run (or ran with a silently wrong value).
MALFORMED = {
    "etas": MINIMAL + "\n[diagnostics]\nenergy_error_scaling etas=abc\n",
    "samples": MINIMAL + "\n[diagnostics]\nenergy_error_scaling samples=-5\n",
    "bins": MINIMAL + "\n[diagnostics]\ntv_vs_truth lo=-6 hi=6 bins=2.5\n",
    "lo2": MINIMAL + "\n[diagnostics]\ntv_vs_truth lo=-6 hi=6 bins=60 lo2=abc\n",
    "angle_max": ZERO_ONE.replace("angle_max=0.35", "angle_max=-1"),
    "probe_points": MINIMAL.replace("kind = explicit\neta = 0.5", "kind = theorem1\nprobe_points = 0"),
    "probe_dirs": MINIMAL.replace("kind = explicit\neta = 0.5", "kind = theorem1\nprobe_dirs = abc"),
    "precision": MINIMAL.replace("d = 1\nprecision = 1.0", "d = 3\nprecision = 1.0,2.0"),
    "constraint": MINIMAL + "\n[constraint]\ninner = 0.5\nouter = 1.0\n",
    "seed": MINIMAL.replace("seed = 11", "seed = -5"),
    "data_seed": ZERO_ONE.replace("data_seed = 5", "data_seed = -1"),
}


# Each spec says one thing twice; an earlier version let the last one win
# (or, for a diagnostic, ran it twice) without a word.
REPEATED = {
    "key": (MINIMAL.replace("eta = 0.5", "eta = 0.5\neta = 50.0"),
            "duplicate key 'eta' in [schedule]"),
    "top-level key": (MINIMAL.replace("name = mini", "name = mini\nname = maxi"),
                      "duplicate key 'name' in the top level"),
    "parameter": (MINIMAL + "\n[diagnostics]\ntv_vs_truth lo=-6 hi=6 bins=60 bins=10\n",
                  "duplicate parameter 'bins' in diagnostic tv_vs_truth"),
    "diagnostic": (MINIMAL + "\n[diagnostics]\nacceptance_stats\nacceptance_stats\n",
                   "duplicate diagnostic 'acceptance_stats'"),
    "diagnostics section": (MINIMAL + "\n[diagnostics]\nacceptance_stats\n\n[diagnostics]\n"
                            "tv_vs_truth lo=-6 hi=6 bins=60\n", "duplicate section [diagnostics]"),
}


def spec_with(**edits):
    text = MINIMAL
    for old, new in edits.items():
        text = text.replace(old, new)
    return text


def _is_word(text):
    """True when the spec format reads ``text`` back as a string."""
    if text.lower() in ("true", "false"):
        return False
    try:
        float(text)
    except ValueError:
        return True
    return False


WORDS = st.from_regex(r"[a-z][a-z0-9_/-]{0,11}", fullmatch=True).filter(_is_word)


def _floats(low, high, exclude_low=False):
    return st.floats(low, high, exclude_min=exclude_low, allow_nan=False, allow_infinity=False)


POSITIVE = _floats(0.0, 1e6, exclude_low=True)


def _float_lists(min_size, max_size):
    return st.lists(POSITIVE, min_size=min_size, max_size=max_size).map(lambda vs: ",".join(map(repr, vs)))


FLOAT_LISTS = _float_lists(2, 4)


@st.composite
def valid_specs(draw):
    """Valid specs as written, before parsing: every target, sampler and schedule kind, with optional keys."""
    kind = draw(st.sampled_from(["gaussian", "logistic", "sigmoid", "zero_one"]))
    sizes = {"d": draw(st.integers(1, 50)), "r": draw(st.integers(1, 5000)),
             "data_seed": draw(st.integers(0, 10**6)), "q0": draw(_floats(0.0, 1.0, exclude_low=True))}
    if kind == "gaussian":
        d = sizes["d"]  # a precision list has one entry per coordinate
        target = {"d": d, "precision": draw(POSITIVE if d == 1 else st.one_of(POSITIVE, _float_lists(d, d)))}
    elif kind == "zero_one":
        target = {**sizes, "epsilon": draw(_floats(0.0, 0.1, exclude_low=True)), "c1": draw(POSITIVE)}
    else:
        target = {**sizes, "prior": draw(_floats(0.0, 1e6))}
    sampler = draw(st.sampled_from(["mala", "rwm", "constrained-mala"]))
    radii = None
    if sampler == "constrained-mala" and (kind != "zero_one" or draw(st.booleans())):
        inner = draw(_floats(0.0, 10.0, exclude_low=True))
        radii = (inner, inner + draw(_floats(0.0, 10.0, exclude_low=True)))
        if not radii[0] < radii[1]:
            radii = (inner, 2.0 * inner)
    schedule = draw(st.sampled_from(["explicit", "theorem1", "sweep"]))
    params = {"explicit": st.fixed_dictionaries({"eta": POSITIVE}),
              "theorem1": st.fixed_dictionaries({}, optional={"safety": POSITIVE, "probe_points": st.integers(1, 64),
                                                              "probe_dirs": st.integers(1, 64)}),
              "sweep": st.fixed_dictionaries({"etas": st.one_of(POSITIVE, FLOAT_LISTS)})}[schedule]
    diag_params = {
        "acceptance_stats": st.just({}),
        "tv_vs_truth": st.fixed_dictionaries({"lo": _floats(-100.0, 0.0), "hi": _floats(0.0, 100.0, exclude_low=True),
                                              "bins": st.integers(2, 400)},
                                             optional={"lo2": _floats(-100.0, 0.0),
                                                       "hi2": _floats(0.0, 100.0, exclude_low=True),
                                                       "bins2": st.integers(2, 400)}),
        "energy_error_scaling": st.fixed_dictionaries({}, optional={"etas": FLOAT_LISTS,
                                                                    "samples": st.integers(1, 10**4)}),
    }
    if kind != "gaussian":
        diag_params["regularity"] = st.fixed_dictionaries({}, optional={"probe_points": st.integers(1, 64)})
    if kind == "zero_one":
        diag_params["zero_one_summary"] = st.fixed_dictionaries({}, optional={"angle_max": POSITIVE})
    names = draw(st.lists(st.sampled_from(sorted(diag_params)), max_size=4, unique=True))
    return ExperimentSpec(
        name=draw(WORDS), target_kind=kind, target_params=target, sampler=sampler, lazy=draw(st.booleans()),
        schedule_kind=schedule, schedule_params=draw(params), iterations=draw(st.integers(1, 10**6)),
        replicas=draw(st.integers(1, 1000)), seed=draw(st.integers(0, 2**62)),
        record_every=draw(st.integers(1, 100)),
        diagnostics=tuple(DiagnosticSpec(n, draw(diag_params[n])) for n in names),
        output=draw(st.one_of(st.none(), WORDS)), constraint_radii=radii)


class TestParsing:
    @settings(max_examples=200, deadline=None)
    @given(spec=valid_specs())
    def test_serialize_parse_round_trip(self, spec):
        given_text = harness._serialize_spec(spec)  # the keys as written, defaults left out
        parsed = parse_spec(given_text)
        text = harness._serialize_spec(parsed)
        assert parse_spec(text) == parsed
        assert set(given_text.split()) <= set(text.split())  # every given key keeps its value

    def test_minimal_valid(self):
        spec = parse_spec(MINIMAL)
        assert spec.name == "mini"
        assert spec.target_kind == "gaussian"
        assert spec.schedule_params["eta"] == 0.5
        assert spec.lazy is False

    def test_negative_eta_names_field(self):
        with pytest.raises(SpecValidationError) as err:
            parse_spec(spec_with(**{"eta = 0.5": "eta = -1"}))
        assert any("eta" in e for e in err.value.errors)

    def test_empty_sweep_rejected(self):
        bad = spec_with(**{"kind = explicit\neta = 0.5": "kind = sweep\netas ="})
        with pytest.raises(SpecValidationError) as err:
            parse_spec(bad)
        assert any("etas" in e for e in err.value.errors)

    def test_missing_header(self):
        with pytest.raises(SpecValidationError):
            parse_spec(MINIMAL.replace("malakit-spec v1", "something else"))

    def test_unknown_names_collected_together(self):
        bad = spec_with(**{
            "kind = gaussian": "kind = mystery",
            "kind = mala": "kind = levitation",
        })
        with pytest.raises(SpecValidationError) as err:
            parse_spec(bad)
        assert len(err.value.errors) >= 2

    def test_unknown_keys_and_sections_collected(self):
        bad = spec_with(**{"precision = 1.0": "precison = 4.0", "seed = 11": "seed = 11\nbogus = 1"})
        with pytest.raises(SpecValidationError) as err:
            parse_spec(bad + "\n[nonsense]\nx = 1\n\n[diagnostics]\ntv_vs_truth lo=-6 hi=6 bins=60 bnis=3\n")
        errors = err.value.errors
        assert len(errors) == 4
        for word in ("'precison'", "'bogus'", "[nonsense]", "'bnis'"):
            assert any(word in e for e in errors), word

    def test_keys_depend_on_kind(self):
        with pytest.raises(SpecValidationError) as err:
            parse_spec(spec_with(**{"eta = 0.5": "eta = 0.5\netas = 0.5,0.25"}))
        assert any("'etas'" in e for e in err.value.errors)

    def test_unknown_diagnostic(self):
        bad = MINIMAL + "\n[diagnostics]\nfancy_plot\n"
        with pytest.raises(SpecValidationError) as err:
            parse_spec(bad)
        assert any("fancy_plot" in e for e in err.value.errors)

    def test_constrained_needs_constraint(self):
        bad = spec_with(**{"kind = mala": "kind = constrained-mala"})
        with pytest.raises(SpecValidationError) as err:
            parse_spec(bad)
        assert any("constraint" in e for e in err.value.errors)

    def test_lazy_defaults_on_for_constrained(self):
        text = spec_with(**{"kind = mala": "kind = constrained-mala"})
        text += "\n[constraint]\ninner = 0.5\nouter = 1.0\n"
        spec = parse_spec(text)
        assert spec.lazy is True
        assert spec.constraint_radii == (0.5, 1.0)

    def test_round_trip(self):
        text = MINIMAL + "\n[diagnostics]\nacceptance_stats\ntv_vs_truth lo=-6 hi=6 bins=60\n\n[output]\ndir = runs/mini\n"
        spec = parse_spec(text)
        assert parse_spec(harness._serialize_spec(spec)) == spec

    def test_round_trip_zero_one(self):
        spec = parse_spec(ZERO_ONE)
        assert parse_spec(harness._serialize_spec(spec)) == spec

    @pytest.mark.parametrize("case", sorted(REPEATED))
    def test_repetition_is_an_error(self, case):
        text, message = REPEATED[case]
        with pytest.raises(SpecValidationError) as err:
            parse_spec(text)
        assert err.value.errors == [message]

    def test_serialized_spec_spells_out_every_default(self):
        text = harness._serialize_spec(parse_spec(ZERO_ONE))
        assert "[constraint]\ninner = 0.5\nouter = 1.0\n" in text  # the annulus the run uses
        assert "record_every = 1\n" in text and "zero_one_summary angle_max=0.35\n" in text
        text = harness._serialize_spec(parse_spec(MINIMAL + "\n[diagnostics]\nenergy_error_scaling\n"))
        assert "lazy = false\n" in text and "precision = 1.0\n" in text
        assert "energy_error_scaling etas=0.4,0.2,0.1,0.05,0.025 samples=2000\n" in text
        assert "[constraint]" not in text and "[output]" not in text

    @pytest.mark.parametrize("key", sorted(MALFORMED))
    def test_malformed_value_names_its_key(self, key):
        with pytest.raises(SpecValidationError) as err:
            parse_spec(MALFORMED[key])
        assert len(err.value.errors) == 1 and key in err.value.errors[0], err.value.errors

    def test_readme_documents_every_key(self):
        text = (ROOT / "README.md").read_text()
        section = text.split("## Experiment spec format", 1)[1].split("\n## ", 1)[0]
        documented = {}
        for line in section.splitlines():
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            if len(cells) == 5:
                for where in cells[0].split(", "):
                    documented[where, cells[1]] = cells[2:]
        tables = {"top level": harness.SCHEMA[""]}
        for section_name, table in harness.SCHEMA.items():
            if section_name in ("target", "schedule"):
                tables.update({f"`[{section_name}] {kind}`": keys for kind, keys in table.items()})
            elif section_name == "diagnostics":
                tables.update({f"`{name}`": keys for name, keys in table.items()})
                assert all(name in section for name in table)
            elif section_name:
                tables[f"`[{section_name}]`"] = table
        for where, keys in tables.items():
            for name, key in keys.items():
                bound = [f"{'>' if key.low_open else '>='} {key.low:g}"] if key.low is not None else []
                bound += [f"<= {key.high:g}"] if key.high is not None else []
                row = [key.type, ", ".join(bound + list(key.choices))]
                if key.default is not None:  # a None default is described in words
                    row.append("required" if key.required
                               else f"`{key.same_as}`" if key.same_as else str(key.default))
                assert documented.get((where, f"`{name}`"), [])[:len(row)] == row, (where, name)


class TestRunExperiment:
    def test_demo_report_fields(self, tmp_path):
        spec = parse_spec(spec_with(**{"replicas = 2": "replicas = 100",
                                       "iterations = 1000": "iterations = 300"})
                          + "\n[diagnostics]\nacceptance_stats\ntv_vs_truth lo=-6 hi=6 bins=40\n")
        report = run_experiment(spec, output_dir=tmp_path)
        assert "acceptance_stats" in report.diagnostics
        assert "tv_vs_truth" in report.diagnostics
        assert report.diagnostics["tv_vs_truth"]["corrected"] < 0.2
        assert Path(report.summary_path).exists()
        for p in report.trace_paths:
            assert Path(p).exists()

    @pytest.mark.parametrize("target", [
        "kind = gaussian\nd = 3\nprecision = 1.0",
        f"kind = logistic\ndataset = {ROOT / 'data' / 'bundled_r50.csv'}\nprior = 1.0",
    ], ids=["gaussian", "dataset"])
    def test_tv_needs_one_or_two_dimensions(self, tmp_path, target):
        # A d-dimensional target with d > 2 has no grid truth.  A dataset's d
        # is known only once it is loaded, so the check follows build_target.
        spec = parse_spec(spec_with(**{"kind = gaussian\nd = 1\nprecision = 1.0": target})
                          + "\n[diagnostics]\ntv_vs_truth lo=-6 hi=6 bins=10\n")
        with pytest.raises(SpecValidationError, match="tv_vs_truth needs a 1D or 2D target"):
            run_experiment(spec, output_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_report_json_keys(self, tmp_path):
        spec = parse_spec(MINIMAL)
        run_experiment(spec, output_dir=tmp_path)
        report = json.loads((tmp_path / "report.json").read_text())
        assert sorted(report) == sorted([
            "spec", "resolved_etas", "schedule_notes", "target_notes", "summary_path",
            "diagnostics_path", "trace_paths", "diagnostics", "gradient_evals", "function_evals",
            "wall_time", "versions", "replica_errors", "status"])
        assert parse_spec(report["spec"]) == spec
        assert report["status"] == "ok"

    def test_warm_start_needs_an_annulus(self, full_space):
        with pytest.raises(ValueError, match="annulus"):
            harness.warm_annulus_init(make_gaussian(2, 1.0), full_space(), chain_rng(3))

    def test_byte_identical_reruns_and_batch_invariance(self, tmp_path, solo_mismatches):
        spec = parse_spec(spec_with(**{"kind = explicit\neta = 0.5": "kind = sweep\netas = 0.5,1.5"}))
        a = run_experiment(spec, output_dir=tmp_path / "a")
        b = run_experiment(spec, output_dir=tmp_path / "b")
        assert Path(a.summary_path).read_bytes() == Path(b.summary_path).read_bytes()
        for pa, pb in zip(a.trace_paths, b.trace_paths):
            assert Path(pa).read_bytes() == Path(pb).read_bytes()
        assert solo_mismatches(spec, tmp_path / "a", tmp_path / "solo") == []
        # Cell k's seed is the k-th spawned child of the master seed.
        children = np.random.SeedSequence(spec.seed).spawn(4)
        seeds = [int(line.split(",")[3]) for line in Path(a.summary_path).read_text().splitlines()[1:]]
        assert seeds == [int(c.generate_state(1, dtype=np.uint64)[0] >> 1) for c in children]

    def test_failed_cell_makes_run_partial(self, tmp_path, monkeypatch, capsys):
        def gradient(x):
            x = np.asarray(x, dtype=float)
            return np.where(np.abs(x) <= 6.0, x, np.inf)

        original = harness.build_target
        target = TargetModel(dimension=1, potential=make_gaussian(1, 1.0).potential, gradient=gradient)
        monkeypatch.setattr(harness, "build_target",
                            lambda spec: dataclasses.replace(original(spec), target=target))
        spec_path = tmp_path / "sweep.spec"
        spec_path.write_text(spec_with(**{"kind = explicit\neta = 0.5": "kind = sweep\netas = 0.5,50"}))
        assert cli_entry(["run", str(spec_path), "--out", str(tmp_path / "out")]) == 2
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["status"] == "partial"
        assert len(report["replica_errors"]) == 2
        assert all("eta=50" in e and "non-finite gradient" in e for e in report["replica_errors"])
        rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
        assert [r.split(",")[1] for r in rows] == ["0.5", "0.5"]

    def test_eval_accounting_matches_summary(self, tmp_path):
        spec = parse_spec(MINIMAL)
        report = run_experiment(spec, output_dir=tmp_path)
        rows = Path(report.summary_path).read_text().strip().splitlines()[1:]
        grad_total = sum(int(r.split(",")[-2]) for r in rows)
        fn_total = sum(int(r.split(",")[-1]) for r in rows)
        assert report.gradient_evals == grad_total
        assert report.function_evals == fn_total

    def test_zero_one_pipeline_golden(self, tmp_path):
        text = """\
malakit-spec v1
name = zero-one-golden

[target]
kind = zero_one
d = 3
r = 400
q0 = 0.7
epsilon = 0.1
c1 = 0.05
data_seed = 5

[sampler]
kind = constrained-mala

[schedule]
kind = explicit
eta = 0.05

[run]
iterations = 1500
replicas = 3
seed = 424242

[diagnostics]
zero_one_summary angle_max=0.35
"""
        report = run_experiment(parse_spec(text), output_dir=tmp_path)
        zo = report.diagnostics["zero_one_summary"]
        golden = GOLDENS["zero_one"]
        assert zo["hitting_iterations"] == golden["hitting_iterations"]
        assert zo["median_angle"] == pytest.approx(golden["median_angle"], rel=1e-9)
        for got, want in zip(zo["angles"], golden["angles"]):
            assert got == pytest.approx(want, rel=1e-9)

    def test_theorem1_schedule_resolves(self, tmp_path):
        spec = parse_spec(spec_with(**{"kind = explicit\neta = 0.5": "kind = theorem1\nsafety = 0.5"}))
        report = run_experiment(spec, output_dir=tmp_path)
        assert report.resolved_etas == [0.5]  # 0.5 * d^{-1/3} with d=1, M=1

    def test_sweep_schedule(self, tmp_path):
        spec = parse_spec(spec_with(**{"kind = explicit\neta = 0.5": "kind = sweep\netas = 0.5,0.25"}))
        report = run_experiment(spec, output_dir=tmp_path)
        assert report.resolved_etas == [0.5, 0.25]
        rows = Path(report.summary_path).read_text().strip().splitlines()[1:]
        assert len(rows) == 4  # 2 etas x 2 replicas


class TestScalingStudy:
    def test_eta_axis_slope_band(self):
        spec = parse_spec(MINIMAL)
        result = scaling_study(spec, [0.5, 0.25, 0.125])
        assert all(m is not None for m in result.mixing_estimates)
        assert -3.0 <= result.slope <= -1.3
        table = result.table()
        assert table.splitlines()[0].startswith("eta,")

    def test_dimension_axis_acceptance(self):
        # The theorem1 step keeps MALA acceptance at or above 1/2 as d grows,
        # on a scaling study's acceptance pilot: 200 replicas, 500 steps.
        for idx, d in enumerate([2, 4, 8, 16]):
            spec = parse_spec(spec_with(**{"kind = explicit\neta = 0.5": "kind = theorem1\nsafety = 1.0",
                                           "d = 1": f"d = {d}"}))
            built = harness.build_target(spec)
            (eta,), _ = harness.resolve_etas(spec, built)
            pilot = run_ensemble(built.target, "mala", eta, 500, np.zeros((200, d)),
                                 subseed(subseed(spec.seed, idx), 3))
            assert pilot.accepted_fraction >= 0.5, d

    def test_single_value_rejected(self):
        spec = parse_spec(MINIMAL)
        with pytest.raises(ValueError):
            scaling_study(spec, [0.5])
        with pytest.raises(ValueError, match="positive"):
            scaling_study(spec, [0.5, 0.25, 0.0])
        with pytest.raises(ValueError, match="distinct"):
            scaling_study(spec, [0.5, 0.25, 0.5])

    @pytest.mark.parametrize("edits, reason", [
        ({"kind = mala": "kind = mala\nlazy = true"}, "lazy"),
        ({"kind = mala": "kind = constrained-mala\nlazy = false\n\n[constraint]\ninner = 0.5\nouter = 1.0"},
         "constrained-mala"),
        ({"d = 1": "d = 3"}, "d = 3"),
    ], ids=["lazy", "constrained", "d3"])
    def test_refuses_a_template_it_would_not_measure(self, edits, reason):
        # Each template ran at an earlier version: the lazy coin and the
        # constraint were dropped without notice, and d = 3 left every
        # mixing estimate unresolved.
        with pytest.raises(ValueError, match=reason):
            scaling_study(parse_spec(spec_with(**edits)), [0.5, 0.25, 0.125])

    def test_unresolved_estimate_counts_every_step(self):
        # An earlier version counted only the pilot for an unresolved eta,
        # though its mixing ensemble ran all MAX_ITERATIONS steps.
        result = scaling_study(parse_spec(MINIMAL), [0.001, 0.5, 0.25])
        pilot = 2 * harness.PILOT_REPLICAS * 500
        assert result.mixing_estimates[0] is None
        assert result.gradient_evals[0] == pilot + 2 * harness.MIXING_REPLICAS * harness.MAX_ITERATIONS == 10_200_000
        for m, g in zip(result.mixing_estimates[1:], result.gradient_evals[1:]):
            assert g == pilot + 2 * harness.MIXING_REPLICAS * m

    def test_unknown_axis_rejected(self, capsys):
        spec = str(ROOT / "specs" / "gaussian_demo.spec")
        assert cli_entry(["scaling", spec, "--axis", "dimension", "--values", "1,2,4"]) == 1
        assert capsys.readouterr().out == ""

    def test_no_slope_from_two_points(self, tmp_path, capsys):
        # eta = 0.001 cannot mix within the step budget, so two estimates
        # resolve: the slope stays empty and stderr says why.
        template = tmp_path / "mini.spec"
        template.write_text(MINIMAL)
        assert cli_entry(["scaling", str(template), "--axis", "eta", "--values", "0.5,0.25,0.001"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert [row.split(",")[1] == "" for row in lines[1:-1]] == [False, False, True]
        assert lines[-1] == "# log-log slope vs eta: "
        assert "2 of 3 mixing estimates resolved" in captured.err


class TestCli:
    def test_run_demo_spec(self, tmp_path, capsys):
        code = cli_entry(["run", str(ROOT / "specs" / "gaussian_demo.spec"), "--out", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "summary.csv").exists()
        assert json.loads((tmp_path / "report.json").read_text())["status"] == "ok"

    def test_unknown_subcommand(self):
        assert cli_entry(["frobnicate"]) == 1

    def test_malformed_value_fails_before_running(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text(MALFORMED["etas"])
        assert cli_entry(["run", str(bad), "--out", str(tmp_path / "out")]) == 1
        assert list((tmp_path / "out").glob("*.csv")) == []

    @pytest.mark.parametrize("argv", [
        ["run", "mini.spec", "--seed", "-5"],
        ["run", "negative.spec"],
        ["sample", "--seed", "-1"],
        ["optimize", "--count", "300", "--seed", "-1"],
        ["diagnose", "hanson-wright", "--seed", "-1"],
        ["dataset", "--dim", "2", "--count", "5", "--seed", "-1", "--out", "ds.csv"],
    ], ids=["run", "run-spec", "sample", "optimize", "diagnose", "dataset"])
    def test_negative_seed_is_exit_1(self, tmp_path, capsys, monkeypatch, argv):
        # At an earlier version each one printed its progress, made its output
        # directory and failed in numpy with an error that named no key.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mini.spec").write_text(MINIMAL)
        (tmp_path / "negative.spec").write_text(MALFORMED["seed"])
        assert cli_entry(argv) == 1
        err = capsys.readouterr().err
        assert ("seed must be >= 0" if argv[0] == "run" and len(argv) == 2 else "--seed: must be >= 0") in err
        assert "running" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["mini.spec", "negative.spec"]

    @pytest.mark.parametrize("argv, message", [
        (["dataset", "--dim", "0", "--count", "5", "--out", "ds.csv"], "--dim: the dimension must be >= 1, got 0"),
        (["dataset", "--dim", "-3", "--count", "5", "--out", "ds.csv"], "--dim: the dimension must be >= 1, got -3"),
        (["diagnose", "hanson-wright", "--dim", "0"], "--dim: the dimension must be >= 1, got 0"),
        (["diagnose", "hanson-wright", "--dim", "-3"], "--dim: the dimension must be >= 1, got -3"),
        (["scaling", "mini.spec", "--axis", "eta", "--values", "0.5,0.5,0.5"], "eta values must be distinct"),
        (["sample", "--precision", "4#,1"], "--precision: must be a number or a comma list, got '4#,1'"),
    ], ids=["dataset-0", "dataset-negative", "hanson-wright-0", "hanson-wright-negative", "scaling-repeated",
            "sample-precision-comment"])
    def test_bad_input_is_exit_1_with_no_output(self, tmp_path, capsys, monkeypatch, argv, message):
        # At an earlier version ``dataset --dim 0`` failed at exit 2 with an
        # index error, ``hanson-wright --dim 0`` reported at exit 0, and
        # repeated eta values ran every chain before a division by zero.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "mini.spec").write_text(MINIMAL)
        assert cli_entry(argv) == 1
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["mini.spec"]

    def test_validation_failure_is_exit_1(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text(MINIMAL.replace("eta = 0.5", "eta = -2"))
        assert cli_entry(["run", str(bad)]) == 1

    def test_regularity_on_bundled_dataset(self, capsys):
        code = cli_entry(["regularity", str(ROOT / "data" / "bundled_r50.csv"),
                          "--probe-points", "6", "--probe-dirs", "6"])
        assert code == 0
        out = capsys.readouterr().out
        assert "incoherence" in out
        assert "C3" in out and "C4" in out
        assert "VIOLATED" not in out

    def test_dataset_roundtrip_via_cli(self, tmp_path, capsys):
        out_csv = tmp_path / "ds.csv"
        assert cli_entry(["dataset", "--dim", "4", "--count", "10", "--seed", "2",
                          "--out", str(out_csv)]) == 0
        assert cli_entry(["regularity", str(out_csv), "--probe-points", "4",
                          "--probe-dirs", "4"]) == 0

    def test_diagnose_hanson_wright(self, capsys):
        code = cli_entry(["diagnose", "hanson-wright", "--dim", "4", "--draws", "20000"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["holds"] is True

    def test_diagnose_conductance_exact_on_a_small_grid(self, capsys, brute_force_conductance):
        code = cli_entry(["diagnose", "conductance", "--bins", "16", "--eta", "0.2", "--seed", "11"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload) == ["cheeger", "conductance_upper_bound", "eta", "ratio_to_eta_cheeger"]
        target = make_gaussian(1, 1.0)
        truth = grid_truth(target, (-8.0, 8.0), 16)
        exact = brute_force_conductance(transition_matrix_1d(target, "mala", 0.2, truth), truth.mass)
        assert payload["conductance_upper_bound"] > 0.0
        assert payload["conductance_upper_bound"] == pytest.approx(exact, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("argv, message", [
        (["sample", "--iterations", "0"], "iterations must be >= 1, got 0 in [run]"),
        (["optimize", "--iterations", "0"], "iterations must be >= 1, got 0 in [run]"),
        (["sample", "--eta", "-1"], "eta must be > 0.0, got -1.0 in [schedule]"),
        (["sample", "--dim", "3", "--precision", "1,4"], "precision needs 1 or d = 3 entries, got 2 in [target]"),
    ], ids=["sample-iterations", "optimize-iterations", "sample-eta", "sample-precision"])
    def test_chain_command_refuses_a_bad_value_before_writing(self, tmp_path, capsys, argv, message):
        # At an earlier version both --iterations 0 runs made an empty --out
        # directory before they failed, with errors that named no section.
        assert cli_entry(argv + ["--out", str(tmp_path / "out")]) == 1
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rows, line, command", [
        ("", 1, "regularity"),
        ("feature_0,feature_1,response\n0.6,0.8,1\n1.0\n", 3, "regularity"),
        ("feature_0,feature_1,response\n0.6,0.8,1\n1.0\n", 3, "run"),
        ("feature_0,feature_1,response\n\n0.6,abc,1\n", 3, "regularity"),
    ], ids=["empty", "short-row", "short-row-run", "not-a-number"])
    def test_malformed_dataset_csv_is_exit_1_naming_the_file(self, tmp_path, capsys, rows, line, command):
        # At an earlier version the first three exited 2 with "list index out
        # of range", and the last named neither the file nor the line.
        csv_path = tmp_path / "bad.csv"
        csv_path.write_text(rows)
        spec = tmp_path / "data.spec"
        spec.write_text(spec_with(**{"kind = gaussian\nd = 1\nprecision = 1.0":
                                     f"kind = logistic\ndataset = {csv_path}\nprior = 1.0"}))
        argv = ["regularity", str(csv_path)] if command == "regularity" else ["run", str(spec)]
        assert cli_entry(argv + (["--out", str(tmp_path / "out")] if command == "run" else [])) == 1
        assert f"{csv_path} line {line}:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_sample_rejects_precision_of_wrong_length(self, tmp_path, capsys):
        assert cli_entry(["sample", "--dim", "3", "--precision", "1,4", "--out", str(tmp_path)]) == 1
        assert "precision needs 1 or d = 3 entries, got 2 in [target]" in capsys.readouterr().err

    def test_sample_writes_trace(self, tmp_path, capsys):
        code = cli_entry(["sample", "--dim", "2", "--precision", "1,4", "--eta", "0.4",
                          "--iterations", "200", "--seed", "9", "--out", str(tmp_path)])
        assert code == 0
        path = Path(capsys.readouterr().out.strip())
        assert path.parent == tmp_path
        header = path.read_text().splitlines()[0]
        assert header == "i,accepted,energy_error,log_accept,potential,x_0,x_1"

    def test_run_whose_every_cell_fails_leaves_a_failed_report(self, tmp_path, capsys):
        # An earlier version raised before writing report.json, left the
        # output directory empty, and let overflow warnings reach stderr.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_entry(["sample", "--eta", "1e200", "--out", str(tmp_path)])
        assert code == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["status"] == "failed"
        assert report["replica_errors"] == ["cell 0 (eta=1e+200, replica 0): "
                                            "non-finite gradient at step 1, coordinates [0]"]
        assert report["trace_paths"] == []
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        err = capsys.readouterr().err
        assert "every replica failed" in err and "RuntimeWarning" not in err

    @pytest.mark.parametrize("argv", [
        ["sample", "--dim", "2", "--precision", "1,4", "--eta", "0.4", "--iterations", "200", "--seed", "9"],
        ["sample", "--kind", "rwm", "--lazy", "--iterations", "200", "--seed", "9"],
        ["optimize", "--count", "300", "--iterations", "500", "--seed", "0"],
    ], ids=["sample", "sample-rwm-theorem1", "optimize"])
    def test_report_spec_reproduces_the_command(self, tmp_path, capsys, argv):
        # A chain command is a one-cell run_experiment: its report.json
        # records the spec, and `malakit run` on it writes the same bytes.
        assert cli_entry(argv + ["--out", str(tmp_path / "cmd")]) == 0
        report = json.loads((tmp_path / "cmd" / "report.json").read_text())
        assert report["status"] == "ok"
        spec = tmp_path / "report.spec"
        spec.write_text(report["spec"])
        assert cli_entry(["run", str(spec), "--out", str(tmp_path / "run")]) == 0
        for name in ("trace_0_0.csv", "summary.csv", "diagnostics.csv"):
            assert (tmp_path / "cmd" / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name

    def test_optimize_prints_the_trace_minimum(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MALAKIT_OUT", str(tmp_path))
        assert cli_entry(["optimize", "--count", "300", "--iterations", "500", "--seed", "0"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert sorted(result) == ["accepted_fraction", "angle_to_truth", "gradient_evals", "minimizer", "potential"]
        rows = [line.split(",") for line in (tmp_path / "optimize" / "trace_0_0.csv").read_text().splitlines()[1:]]
        best = rows[int(np.argmin([float(row[4]) for row in rows]))]
        assert result["potential"] == float(best[4])
        assert result["minimizer"] == [float(v) for v in best[5:]]
        assert result["accepted_fraction"] == float(np.mean([row[1] == "1" for row in rows]))

    def test_diagnose_exit_probability_runs_the_asked_dimension(self, capsys):
        # An earlier version ran a 2-D target for --dim 1 and exited 0.
        code = cli_entry(["diagnose", "exit-probability", "--dim", "1", "--eta", "0.1", "--draws", "20000",
                          "--seed", "4"])
        assert code == 0
        expect = constraint_exit_estimate(make_gaussian(1, 1.0), annulus(0.5, 1.0), 0.1, np.array([0.75]), 20000, 4)
        assert json.loads(capsys.readouterr().out) == expect.__dict__

    def test_energy_scaling_spec_and_cli_share_one_draw_rule(self, tmp_path, capsys):
        text = MINIMAL.replace("iterations = 1000", "iterations = 10") + (
            "\n[diagnostics]\nenergy_error_scaling etas=0.4,0.2,0.1,0.05,0.025 samples=4000\n")
        run_experiment(parse_spec(text), tmp_path)
        block = json.loads((tmp_path / "report.json").read_text())["diagnostics"]["energy_error_scaling"]
        assert cli_entry(["diagnose", "energy-scaling", "--dim", "1", "--seed", "11"]) == 0
        assert json.loads(capsys.readouterr().out) == {"slope": block["slope"], "r_squared": block["r_squared"]}

    @pytest.mark.parametrize("argv", [
        ["sample", "--kind", "rwm", "--eta", "nan"],
        ["sample", "--eta", "inf"],
        ["diagnose", "detailed-balance", "--eta", "nan", "--bins", "40"],
        ["diagnose", "exit-probability", "--eta", "nan", "--draws", "1000"],
    ], ids=["sample-rwm-nan", "sample-inf", "detailed-balance-nan", "exit-probability-nan"])
    def test_non_finite_step_size_is_exit_1(self, tmp_path, capsys, monkeypatch, argv):
        # At an earlier version the NaN runs exited 0 (an RWM trace that never
        # moved, a NaN in the JSON, an exit estimate of 0.0), and the inf run
        # exited 2 as a runtime failure.
        monkeypatch.chdir(tmp_path)
        assert cli_entry(argv) == 1
        assert "finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
