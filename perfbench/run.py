"""Benchmark of the cavityfock simulator: time to a correct answer, and its accuracy.

    python3 perfbench/run.py --workload closed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all      # every workload, untraced and traced

One workload runs in one single-threaded process (BLAS pinned to one
thread).  A pass calls ``cavityfock.cli.main`` in-process once per generated
job; passes repeat until ``--seconds`` is used up.  Every output file is
checked (``checker.py``) against the dt/4 references in ``references.json``.
Times are wall times rescaled to a nominal machine speed, probed around each
call and during each simulation (``speed.py``); the raw wall times are
printed in the report too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` spends the first
half of the time untraced and the second half with every public function of
every cavityfock module wrapped in a span (``spans.py``), and prints the
per-layer metrics, each per simulation, with the tracing overhead.

The report goes to standard output, the last line being one JSON object;
the full result, with the environment, is also written to
``perfbench/out/result-<workload>-trace<n>.json`` and the spans of a traced
run to ``perfbench/out/spans-<workload>.npz``.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere: one BLAS thread in every process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import numpy  # noqa: E402

import checker  # noqa: E402
import inputs  # noqa: E402
import setup_probe  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
SETUP_REPEATS = 9

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s_p50": "s",
    "steps_per_s": "1/s",
    "runs_per_s": "1/s",
    "peak_rss_mb": "MB",
    "max_dev_p": "probability",
    "drift_max": "probability",
}
PER_LAYER_UNITS = {
    "pulses.self_s": "s",
    "pulses.points": "count",
    "pulses.useful_frac": "ratio",
    "hamiltonians.calls": "count",
    "hamiltonians.self_s": "s",
    "dynamics.self_s": "s",
    "dynamics.ns_per_step": "ns",
    "observables.calls": "count",
    "observables.self_s": "s",
    "observables.samples": "count",
    "hilbert.self_s": "s",
    "hilbert.calls": "count",
    "scenarios.csv_self_s": "s",
    "scenarios.csv_bytes": "bytes",
    "scenarios.summary_self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
}
LAYERS = ("pulses", "hamiltonians", "dynamics", "observables", "hilbert", "scenarios", "cli")
# Span names whose self time is CSV output: the trajectory writer, and the
# sweep, whose own work is building and writing its summary table.
CSV_SPANS = ("scenarios.write_trajectory_csv", "scenarios.sweep")


@dataclass
class Phase:
    """What a run of passes measured."""

    # Normalized program time per pass, and per job of the pass the
    # normalized call time / simulations, one entry per pass.
    pass_times: list[float] = field(default_factory=list)
    job_times: dict[int, list[float]] = field(default_factory=dict)
    raw_job_walls: dict[int, list[float]] = field(default_factory=dict)
    wall: float = 0.0  # raw program time of all passes
    outcomes: list[checker.Outcome] = field(default_factory=list)
    csv_bytes: int = 0

    @property
    def time_p50(self) -> float:
        """Median normalized time of one simulation, averaged over the jobs."""
        return _mean_of_medians(self.job_times)

    @property
    def raw_wall_p50(self) -> float:
        return _mean_of_medians(self.raw_job_walls)

    def rate_p50(self, per_pass: int) -> float:
        """Median over passes of ``per_pass`` units of work per normalized second."""
        return statistics.median(per_pass / seconds for seconds in self.pass_times)

    @property
    def simulations(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(not outcome.ok for outcome in self.outcomes)


def _mean_of_medians(samples: dict[int, list[float]]) -> float:
    medians = [statistics.median(values) for values in samples.values()]
    return sum(medians) / len(medians)


def _call(cli, argv, printed):
    """``cli.main(argv)`` with its output captured; a raised error is a result."""
    try:
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            return cli.main(argv)
    except Exception as exc:  # a raising run is a failed run, not a crash
        return f"{type(exc).__name__}: {exc}"


def _job_outcomes(job, path, code, printed, references) -> list[checker.Outcome]:
    refs = [references.get(key) for key in job.ref_keys]
    if code != 0:
        return [checker.Outcome([f"exit status {code!r}"]) for _ in refs]
    if job.is_sweep:
        values = [float(v) for v in job.argv[job.argv.index("--values") + 1].split(",")]
        return checker.check_sweep(path, values, refs)
    outcome = checker.check_trajectory(path, job.model, job.rows, refs[0])
    outcome.failures += checker.check_summary(printed)
    return [outcome]


def run_pass(cli, jobs, references, phase: Phase, clock: speed.Clock) -> None:
    """Call the program once per job, timing only the calls, and check each output."""
    pass_time = 0.0
    for number, job in enumerate(jobs):
        path = os.path.join(OUT, f"job{number}.csv")
        if os.path.exists(path):
            os.remove(path)
        printed = io.StringIO()
        clock.start()
        code = _call(cli, [*job.argv, "--out", path], printed)
        clock.mark()
        phase.wall += clock.wall
        pass_time += clock.normalized
        phase.job_times.setdefault(number, []).append(clock.normalized / job.simulations)
        phase.raw_job_walls.setdefault(number, []).append(clock.wall / job.simulations)
        phase.outcomes += _job_outcomes(job, path, code, printed.getvalue(), references)
        if os.path.exists(path):
            phase.csv_bytes += os.path.getsize(path)
    phase.pass_times.append(pass_time)


def measure(cli, jobs, references, seconds: float, probe=speed.probe) -> Phase:
    """Run whole passes while the next one is expected to end within ``seconds``.

    Machine speed is probed around each call, around each simulation in it,
    and at recorded samples during a simulation (see ``speed.py``).
    """
    phase = Phase()
    clock = speed.Clock(probe)
    modules = spans.program_modules()
    simulate = sys.modules["cavityfock.scenarios"].simulate
    populations = sys.modules["cavityfock.dynamics"].populations
    start = time.perf_counter()
    last = 0.0
    with speed.replaced(modules, simulate, clock.around(simulate)), speed.replaced(
        modules, populations, clock.when_due(populations)
    ):
        while not phase.pass_times or time.perf_counter() - start + last <= seconds:
            begin = time.perf_counter()
            run_pass(cli, jobs, references, phase, clock)
            last = time.perf_counter() - begin
    return phase


def measure_setup(specs: list[str]) -> list[float]:
    """Normalized seconds from spawning a fresh interpreter until the program is ready."""
    script = os.path.join(HERE, "setup_probe.py")
    times = []
    for _ in range(SETUP_REPEATS):
        before = speed.probe()
        begin = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, script, *specs], stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed with exit status {proc.returncode}")
        probed = 0.5 * (before + speed.probe())
        times.append((ready - begin) * (speed.NOMINAL_S / probed) ** speed.SENSITIVITY)
    return times


def end_to_end(phase: Phase, jobs, setup: list[float]) -> dict[str, float]:
    good = [outcome for outcome in phase.outcomes if outcome.ok]
    simulations = sum(job.simulations for job in jobs)
    return {
        "setup_s": statistics.median(setup),
        "wall_s_p50": phase.time_p50,
        "steps_per_s": phase.rate_p50(simulations * inputs.N_STEPS),
        "runs_per_s": phase.rate_p50(simulations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "max_dev_p": max([checker.RESOLUTION] + [outcome.dev for outcome in good]),
        "drift_max": max([checker.RESOLUTION] + [outcome.drift for outcome in good]),
    }


def per_layer(plain: Phase, traced: Phase, tracer: spans.Tracer) -> dict[str, float]:
    by_name = spans.totals_by_name(tracer)

    def module(prefix: str) -> tuple[float, int]:
        matching = [v for name, v in by_name.items() if name.split(".", 1)[0] == prefix]
        return sum(s for s, _ in matching), sum(c for _, c in matching)

    def seconds(name: str) -> float:
        return by_name.get(name, (0.0, 0))[0]

    def calls(name: str) -> int:
        return by_name.get(name, (0.0, 0))[1]

    sims = traced.simulations
    steps = sims * inputs.N_STEPS
    csv_self = sum(seconds(name) for name in CSV_SPANS)
    return {
        "pulses.self_s": module("pulses")[0] / sims,
        "pulses.points": tracer.pulse_points / sims,
        "pulses.useful_frac": (2 * steps + sims) / tracer.pulse_points,
        "hamiltonians.calls": calls("hamiltonians.H(t)") / sims,
        "hamiltonians.self_s": module("hamiltonians")[0] / sims,
        "dynamics.self_s": module("dynamics")[0] / sims,
        "dynamics.ns_per_step": module("dynamics")[0] / steps * 1e9,
        "observables.calls": module("observables")[1] / sims,
        "observables.self_s": module("observables")[0] / sims,
        "observables.samples": calls("observables.populations") / sims,
        "hilbert.self_s": module("hilbert")[0] / sims,
        "hilbert.calls": module("hilbert")[1] / sims,
        "scenarios.csv_self_s": csv_self / sims,
        "scenarios.csv_bytes": traced.csv_bytes / sims,
        "scenarios.summary_self_s": (module("scenarios")[0] - csv_self) / sims,
        "cli.self_s": module("cli")[0] / sims,
        "trace.overhead_frac": traced.time_p50 / plain.time_p50 - 1.0,
        "trace.accounted_frac": sum(module(name)[0] for name in LAYERS) / traced.wall,
    }


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment() -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_version = "unknown"
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup_probe.add_source_path()
    import cavityfock
    from cavityfock import cli

    if os.path.dirname(os.path.abspath(cavityfock.__file__)) != os.path.join(
        setup_probe.SRC, "cavityfock"
    ):
        raise SystemExit(f"perfbench: imported cavityfock from {cavityfock.__file__}")

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(HERE, "references.json"), encoding="utf-8") as handle:
        references = json.load(handle)["final_populations"]
    jobs = inputs.jobs(workload, seed)
    specs = sorted({f"{job.preset}:{job.n_max}" for job in jobs})
    env = environment()
    setup = [] if trace else measure_setup(specs)
    setup_probe.warm(specs)

    if trace:
        plain = measure(cli, jobs, references, seconds / 2)
        tracer = spans.Tracer()
        spans.instrument(tracer)
        # Probes inside a call get spans of their own, so that their time
        # is not counted as the self time of the layer that called them.
        probe = tracer.wrap("perfbench.probe", speed.probe)
        traced = measure(cli, jobs, references, seconds / 2, probe)
        tracer.save(os.path.join(OUT, f"spans-{workload}.npz"))
        phases = [plain, traced]
        metrics = per_layer(plain, traced, tracer)
        units = PER_LAYER_UNITS
    else:
        phase = measure(cli, jobs, references, seconds)
        phases = [phase]
        metrics = end_to_end(phase, jobs, setup)
        units = END_TO_END_UNITS

    failures = [f for phase in phases for o in phase.outcomes for f in o.failures]
    attempted = sum(phase.simulations for phase in phases)
    failed = sum(phase.failed for phase in phases)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "jobs": [list(job.argv) for job in jobs],
        "setup_s_samples": setup,
        "passes": [len(phase.pass_times) for phase in phases],
        "raw_wall_s_p50": [phase.raw_wall_p50 for phase in phases],
        "job_times_s": [list(phase.job_times.values()) for phase in phases],
        "raw_job_walls_s": [list(phase.raw_job_walls.values()) for phase in phases],
        "failures": failures[:20],
        "result": result,
    }
    with open(os.path.join(OUT, f"result-{workload}-trace{int(trace)}.json"), "w") as handle:
        json.dump(details, handle, indent=1)
    return details


def print_report(details: dict) -> None:
    result = details["result"]
    print(f"workload={details['workload']} seed={details['seed']} trace={int(details['trace'])}")
    print("environment: " + json.dumps(details["environment"]))
    print(f"passes={details['passes']} simulations={result['attempted']}")
    print(f"raw (not normalized) wall_s_p50={details['raw_wall_s_p50']}")
    print(f"failed={result['failed']} failed_frac={result['failed'] / result['attempted']:.4g}")
    for failure in details["failures"]:
        print(f"  failure: {failure}")
    print("\n".join(_metric_lines(result)))


def _metric_lines(result: dict, indent: str = "") -> list[str]:
    return [
        f"{indent}{name} = {metric['value']:.6g} {metric['unit']}"
        for name, metric in result["metrics"].items()
    ]


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, untraced then traced; one table."""
    status = 0
    rows = []
    for workload in inputs.WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, check=False)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            status |= not result["correct"]
            rows.append(
                f"{workload} trace={trace}: attempted={result['attempted']} "
                f"failed={result['failed']} correct={result['correct']}"
            )
            rows += _metric_lines(result, indent="  ")
    print("\n".join(rows))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(details)
    print(json.dumps(details["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
