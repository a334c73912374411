"""Workload inputs generated from a seed.

Each workload is a list of jobs.  A job is one call of the command-line
entry point ``cavityfock.cli.main`` with the arguments it would get from a
user, minus ``--out``, which the runner fills in.  The seed only decides the
order of the presets and, for the sweep, which ``omega0_T`` values are run;
the program sees nothing but the generated arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# 8 T window at dt = 1e-3 T, the default grid of every preset.
N_STEPS = 8000

# omega0_T values a sweep may draw: the closed interval [1, 5] on a 0.05 grid,
# so that every drawn value has a stored reference.
SWEEP_GRID = tuple(round(1.0 + 0.05 * i, 2) for i in range(81))
SWEEP_POINTS = 20


@dataclass(frozen=True)
class Job:
    """One ``cli.main`` call and what its output must contain.

    ``ref_keys`` names one stored reference per simulation the call runs:
    one for ``run``, one per value, in order, for ``sweep``.
    """

    argv: tuple[str, ...]
    ref_keys: tuple[str, ...]
    rows: int
    model: str
    preset: str
    n_max: int = 1

    @property
    def is_sweep(self) -> bool:
        return self.argv[0] == "sweep"

    @property
    def simulations(self) -> int:
        return len(self.ref_keys)


def reference_key(preset: str, n_max: int = 1, omega0_T: float | None = None) -> str:
    """Name of the stored reference for a preset with the given overrides.

    The output stride does not change the final state, so it is not part of
    the key.
    """
    key = preset
    if n_max != 1:
        key += f":n_max={n_max}"
    if omega0_T is not None:
        key += f":omega0_T={omega0_T:.2f}"
    return key


def _run_job(preset: str, model: str, stride: int = 10, n_max: int = 1) -> Job:
    argv = ["run", "--preset", preset]
    if stride != 10:
        argv += ["--set", f"stride={stride}"]
    if n_max != 1:
        argv += ["--set", f"n_max={n_max}"]
    return Job(
        argv=tuple(argv),
        ref_keys=(reference_key(preset, n_max),),
        rows=N_STEPS // stride + 1,
        model=model,
        preset=preset,
        n_max=n_max,
    )


def _closed(rng: random.Random) -> list[Job]:
    jobs = [
        _run_job("fig2_stirap", "effective"),
        _run_job("fig2_tqd", "effective"),
        _run_job("fig2e_lossless", "effective"),
        _run_job("fig3_full", "full"),
    ]
    rng.shuffle(jobs)
    return jobs


def _dissipative(rng: random.Random) -> list[Job]:
    jobs = [
        _run_job("fig2f_dissipative_stirap", "effective"),
        _run_job("fig2f_dissipative_tqd", "effective"),
        _run_job("fig2f_dissipative_tqd", "effective", n_max=3),
    ]
    rng.shuffle(jobs)
    return jobs


def _sweep(rng: random.Random) -> list[Job]:
    values = rng.sample(SWEEP_GRID, SWEEP_POINTS)
    argv = (
        "sweep",
        "--preset",
        "fig2_stirap",
        "--param",
        "omega0_T",
        "--values",
        ",".join(f"{v:.2f}" for v in values),
    )
    keys = tuple(reference_key("fig2_stirap", omega0_T=v) for v in values)
    return [Job(argv, keys, rows=len(values), model="effective", preset="fig2_stirap")]


def _dense_record(rng: random.Random) -> list[Job]:
    jobs = [
        _run_job("fig2_tqd", "effective", stride=1),
        _run_job("fig2f_dissipative_tqd", "effective", stride=1),
    ]
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "closed": _closed,
    "dissipative": _dissipative,
    "sweep": _sweep,
    "dense_record": _dense_record,
}


def jobs(workload: str, seed: int) -> list[Job]:
    """The jobs of one pass over a workload; the same seed gives the same jobs."""
    return WORKLOADS[workload](random.Random(seed))


def reference_specs() -> dict[str, tuple[str, dict]]:
    """Every reference any seed can ask for: key -> (preset, overrides)."""
    specs = {}
    for make in WORKLOADS.values():
        for job in make(random.Random(0)):
            if not job.is_sweep:
                specs[job.ref_keys[0]] = (job.preset, {"n_max": job.n_max})
    for value in SWEEP_GRID:
        specs[reference_key("fig2_stirap", omega0_T=value)] = (
            "fig2_stirap",
            {"omega0_T": value},
        )
    return specs
