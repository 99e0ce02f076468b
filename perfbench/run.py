"""malakit benchmark.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a malakit checkout; malakit is imported from its
``src`` directory.  The workload's inputs are generated from ``--seed``,
its commands are entered through ``malakit.cli.cli_entry`` in this process,
and executions repeat until ``--seconds`` have passed (the first execution
is a warm-up and is not timed).  Every execution's outputs are checked.

``--trace 0`` reports the end-to-end metrics: median wall time per
execution, median set-up time over several fresh processes, peak resident
memory of this process, and the fraction of operations that succeeded.
``--trace 1`` alternates untraced and traced executions and reports the
per-layer metrics of the traced ones plus the tracing overhead.

The last line of standard output is the result object; the line before it
holds provenance, checks, output digests and work counts.
"""

import os
import sys

# BLAS threads are pinned before numpy is first imported.  One thread: the
# matrices here are small, and a second thread exposes each timing to the
# load on a second core.
NPROC = os.cpu_count() or 1
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import COUNT_METRICS, LAYER_METRICS, Tracer, layer_metrics, traced  # noqa: E402
from workloads import WORKLOADS, Execution  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = BENCH_DIR / ".work"
SETUP_RUNS = 5  # fresh processes per run for setup_s; the median is reported
MIN_TIMED = 2  # timed executions per run, whatever --seconds says
CHILD_TIMEOUT_S = 120

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "success_frac": "ratio"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def execute(workload, cli_entry):
    """One execution of every command of the workload; returns (wall s, CPU s, executions)."""
    shutil.rmtree(workload.out, ignore_errors=True)
    commands = workload.commands()
    runs = []
    cpu_start, start = time.process_time(), time.perf_counter()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_entry(argv)
        runs.append(Execution(argv, code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - start, time.process_time() - cpu_start, runs


def check(workload, runs):
    """The workload's checks on one execution, with the stderr of any command that failed."""
    outcome = workload.check(runs)
    failures = [run.stderr[-2000:] for run in runs if run.code != 0]
    if failures:
        outcome.notes["stderr"] = failures
    return outcome


def setup_probe(workload):
    """One setup_s sample from a fresh interpreter, and the step sizes it resolved."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath)
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_child.py"),
                           str(workload.spec_path)],
                          env=env, cwd=workload.workdir, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if Path(result["malakit"]).resolve().parent != (SRC / "malakit").resolve():
        raise RuntimeError(f"set-up process imported malakit from {result['malakit']}")
    return result["setup_s"], result["etas"]


def machine_facts():
    import numpy
    import scipy

    facts = {
        "nproc": NPROC,
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads_pinned": BLAS_THREADS,
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
    }
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        facts["blas"] = "unknown"
    return facts


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "malakit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _repeats(outcomes):
    """Digests and work counts that differ between executions of the same inputs."""
    differing = []
    for attr in ("digests", "counts"):
        first = getattr(outcomes[0], attr)
        for other in outcomes[1:]:
            differing += [f"{attr}.{k}" for k in first if getattr(other, attr).get(k) != first[k]]
    return sorted(set(differing))


def _summarize(outcomes, setup_etas, nondeterminism):
    checks = {}
    for outcome in outcomes:
        for name, ok in outcome.checks.items():
            checks[name] = checks.get(name, True) and ok
    resolved = outcomes[0].notes.get("resolved_etas")
    if resolved is not None:
        checks["setup_resolves_same_etas"] = resolved == setup_etas
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    correct = failed == 0 and all(checks.values()) and not nondeterminism
    return checks, attempted, failed, correct


def run_untraced(workload, cli_entry, seconds):
    deadline = time.perf_counter() + seconds
    walls, cpus, outcomes, setup = [], [], [], []
    while len(walls) < 1 + MIN_TIMED or time.perf_counter() < deadline:
        if len(setup) < SETUP_RUNS:  # spread over the run, between executions
            setup.append(setup_probe(workload))
        wall, cpu, runs = execute(workload, cli_entry)
        walls.append(wall)
        cpus.append(cpu)
        outcomes.append(check(workload, runs))
    return walls[1:], cpus[1:], outcomes, setup


def run_traced(workload, cli_entry, seconds):
    deadline = time.perf_counter() + seconds
    _, _, runs = execute(workload, cli_entry)  # warm-up
    outcomes = [check(workload, runs)]
    plain, traced_walls, samples, tracer = [], [], [], None
    while not (plain and traced_walls) or time.perf_counter() < deadline:
        if len(traced_walls) <= len(plain):
            tracer = Tracer()
            with traced(tracer):
                wall, _, runs = execute(workload, cli_entry)
            traced_walls.append(wall)
            samples.append(layer_metrics(tracer, wall))
        else:
            wall, _, runs = execute(workload, cli_entry)
            plain.append(wall)
        outcomes.append(check(workload, runs))
    # Times are medians; counts must repeat exactly, so the first execution's are reported.
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics.update({name: samples[0][name] for name in COUNT_METRICS})
    metrics["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(plain)
    differing = [f"layer.{name}" for name in COUNT_METRICS
                 if any(s[name] != samples[0][name] for s in samples)]
    return metrics, differing, outcomes, {
        "traced_wall_s": traced_walls, "untraced_wall_s": plain,
        "spans": tracer.table(), "counters": tracer.counters,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "malakit" / "__init__.py").is_file():
        print(f"error: no malakit sources at {SRC}; run from the root of a malakit checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import malakit
    from malakit.cli import cli_entry

    if Path(malakit.__file__).resolve().parent != (SRC / "malakit").resolve():
        print(f"error: imported malakit from {malakit.__file__}, not {SRC}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        info = {"workload": workload.name, "why": workload.why, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace}
        if args.trace:
            setup = [setup_probe(workload)]
            values, nondeterminism, outcomes, extra = run_traced(workload, cli_entry, args.seconds)
            units = LAYER_METRICS
            info.update(extra)
        else:
            walls, cpus, outcomes, setup = run_untraced(workload, cli_entry, args.seconds)
            nondeterminism = []
            values = {
                "wall_s": statistics.median(walls),
                "setup_s": statistics.median(seconds for seconds, _ in setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
            info.update(wall_s_samples=walls, cpu_s_samples=cpus)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()

    setup_etas = setup[0][1]
    info.update(setup_s_samples=[seconds for seconds, _ in setup], setup_etas=setup_etas)
    nondeterminism += _repeats(outcomes)
    if any(etas != setup_etas for _, etas in setup):
        nondeterminism.append("setup_etas")
    checks, attempted, failed, correct = _summarize(outcomes, setup_etas, nondeterminism)
    if not args.trace:
        values["success_frac"] = 1.0 - failed / attempted
    shown = next((o for o in outcomes if o.failed), outcomes[0])  # the first failure, if any
    info.update(executions=len(outcomes), checks=checks, nondeterminism=nondeterminism,
                digests=shown.digests, counts=shown.counts, notes=shown.notes,
                machine=machine_facts())
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
