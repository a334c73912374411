"""Named scenario presets, free-form configuration, CSV emission, sweeps."""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .dynamics import TimeGrid, Trajectory, propagate
from .errors import ConfigError
from .hamiltonians import Dissipation, ModelConfig, linear_hamiltonian
from .hilbert import build_basis
from .pulses import ControlValues, PulseParameters

CSV_COLUMNS = (
    "t_over_T",
    "p_g1_0",
    "p_e_0",
    "p_g2_1",
    "p_g2_0",
    "p_em_0",
    "dark_overlap",
    "n_mean",
    "mandel_q",
    "norm_or_trace",
    "omega_r_T",
    "g_T",
    "omega1_T",
    "gm_T",
    "omegam_T",
)


@dataclass
class SimulationConfig:
    """Flat, unit-annotated run configuration (all rates in 1/T, times in T)."""

    scenario: str = "custom"
    model: str = "effective"
    drive: str = "stirap"
    omega0_T: float = 2.0
    delta_T: float = 1.0
    delta_m_T: float = 18.0
    tau_p_over_T: float = 0.5
    tau_s_over_T: float = 0.5
    gamma_T: float | None = None
    kappa_T: float | None = None
    t_start_over_T: float = -4.0
    t_end_over_T: float = 4.0
    dt_over_T: float = 1e-3
    n_max: int = 1
    output_path: str = "trajectory.csv"
    stride: int = 10


# Fields that a sweep may vary, by their annotations (strings, as
# annotations are not evaluated in this module).
NUMERIC_FIELDS = frozenset(f.name for f in fields(SimulationConfig) if f.type != "str")
INT_FIELDS = frozenset(f.name for f in fields(SimulationConfig) if f.type == "int")
OPTIONAL_FLOAT_FIELDS = frozenset(
    f.name for f in fields(SimulationConfig) if f.type == "float | None"
)

PRESETS: dict[str, dict] = {
    "fig2_stirap": dict(model="effective", drive="stirap", omega0_T=2.0),
    "fig2_tqd": dict(model="effective", drive="tqd", omega0_T=2.0),
    "fig2e_lossless": dict(model="effective", drive="tqd", omega0_T=5.0),
    "fig2f_dissipative_stirap": dict(
        model="effective", drive="stirap", omega0_T=5.0, gamma_T=5.0, kappa_T=0.05
    ),
    "fig2f_dissipative_tqd": dict(
        model="effective", drive="tqd", omega0_T=5.0, gamma_T=5.0, kappa_T=0.05
    ),
    "fig3_full": dict(model="full", drive="tqd", omega0_T=2.0, delta_m_T=18.0),
}


def resolve_preset(name: str) -> SimulationConfig:
    """Fully populated configuration for a named preset."""
    if name == "custom":
        return SimulationConfig()
    if name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available presets: "
            + ", ".join(sorted(PRESETS))
        )
    return SimulationConfig(scenario=name, **PRESETS[name])


def model_config(sim: SimulationConfig) -> ModelConfig:
    pulses = PulseParameters(
        omega0=sim.omega0_T,
        tau_p=sim.tau_p_over_T,
        tau_s=sim.tau_s_over_T,
        delta=sim.delta_T,
        delta_m=sim.delta_m_T,
    )
    dissipation = None
    if sim.gamma_T is not None or sim.kappa_T is not None:
        dissipation = Dissipation(
            gamma=sim.gamma_T if sim.gamma_T is not None else 0.0,
            kappa=sim.kappa_T if sim.kappa_T is not None else 0.0,
        )
    return ModelConfig(sim.model, sim.drive, pulses, dissipation)


def time_grid(sim: SimulationConfig) -> TimeGrid:
    return TimeGrid(sim.t_start_over_T, sim.t_end_over_T, sim.dt_over_T, sim.stride)


@dataclass
class RunSummary:
    """End-of-run figures of merit, consistent with the final trajectory row."""

    scenario: str
    model: str
    drive: str
    final_populations: dict[tuple[str, int], float]
    max_p_e_0: float
    max_p_em_0: float | None
    final_n: float
    final_q: float | None
    norm_or_trace_drift: float
    wall_time_s: float

    def figures(self) -> dict[str, str]:
        """Every summary entry by name, as printed."""
        final = self.final_populations
        return {
            "scenario": self.scenario,
            "model": self.model,
            "drive": self.drive,
            **{
                f"final_p_{level}_{n}": _fmt(final.get((level, n)))
                for level, n in (("g1", 0), ("e", 0), ("g2", 1), ("g2", 0), ("em", 0))
            },
            "max_p_e_0": _fmt(self.max_p_e_0),
            "max_p_em_0": _fmt(self.max_p_em_0),
            "final_n": _fmt(self.final_n),
            "final_q": _fmt(self.final_q),
            "norm_or_trace_drift": _fmt(self.norm_or_trace_drift),
            "wall_time_s": f"{self.wall_time_s:.3f}",
        }

    def lines(self) -> list[str]:
        return [f"{name}={value}" for name, value in self.figures().items()]


def simulate(sim: SimulationConfig) -> tuple[Trajectory, RunSummary]:
    """Run the configured simulation and summarize it (no file output)."""
    config = model_config(sim)
    basis = build_basis(sim.model, sim.n_max)
    grid = time_grid(sim)

    started = time.perf_counter()
    trajectory = propagate(linear_hamiltonian(config, basis), basis.state("g1", 0), grid)
    wall = time.perf_counter() - started

    drift = float(np.max(np.abs(trajectory.norm_or_trace - 1.0)))
    final_q = float(trajectory.mandel_q[-1])
    summary = RunSummary(
        scenario=sim.scenario,
        model=sim.model,
        drive=sim.drive,
        final_populations=trajectory.final_populations,
        max_p_e_0=trajectory.max_population("e", 0),
        max_p_em_0=trajectory.max_population("em", 0) if sim.model == "full" else None,
        final_n=float(trajectory.mean_photon_n[-1]),
        final_q=None if np.isnan(final_q) else final_q,
        norm_or_trace_drift=drift,
        wall_time_s=wall,
    )
    return trajectory, summary


def run(sim: SimulationConfig) -> tuple[str, RunSummary]:
    """Simulate and write the trajectory CSV to the configured output path."""
    trajectory, summary = simulate(sim)
    write_trajectory_csv(trajectory, sim.output_path)
    return sim.output_path, summary


def _fmt(value: float | None) -> str:
    return "" if value is None else f"{value:.16e}"


def write_trajectory_csv(trajectory: Trajectory, path: str) -> None:
    """Write the trajectory with the fixed column schema.

    Columns that do not apply to the trajectory's model are left empty, as
    are undefined dark_overlap / mandel_q entries.
    """
    full = trajectory.model == "full"
    undefined = np.full(len(trajectory.times), np.nan)
    controls = trajectory.controls or ControlValues(*[undefined] * len(ControlValues._fields))

    def population(level: str, n: int) -> np.ndarray:
        if level not in trajectory.basis.levels:
            return undefined
        return trajectory.population_series(level, n)

    table = np.column_stack(
        [
            trajectory.times,
            population("g1", 0),
            population("e", 0),
            population("g2", 1),
            population("g2", 0),
            population("em", 0),
            trajectory.dark_overlap,
            trajectory.mean_photon_n,
            trajectory.mandel_q,
            trajectory.norm_or_trace,
            controls.omega_r,
            controls.g,
            undefined if full else controls.omega1,
            controls.g_m if full else undefined,
            controls.omega_m if full else undefined,
        ]
    )
    row = ",".join(["%.16e"] * len(CSV_COLUMNS)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        # NaN cells are the only ones that format as "nan"
        handle.writelines((row % tuple(cells)).replace("nan", "") for cells in table.tolist())


SWEEP_COLUMNS = (
    "parameter",
    "value",
    "final_p_g1_0",
    "final_p_e_0",
    "final_p_g2_1",
    "final_p_g2_0",
    "final_p_em_0",
    "max_p_e_0",
    "max_p_em_0",
    "final_n",
    "final_q",
    "norm_or_trace_drift",
)


def _sweep_value(parameter: str, value) -> int | float:
    """A sweep value as its field's type: a real number, and an integer
    for an integer field.  Nothing else is coerced."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{parameter} expects a number, got {value!r}")
    if parameter not in INT_FIELDS:
        try:
            return float(value)
        except OverflowError:  # an int beyond the float range
            raise ConfigError(f"{parameter} expects a number, got {value!r}") from None
    if not (isinstance(value, numbers.Integral) or float(value).is_integer()):
        raise ConfigError(f"{parameter} expects an integer, got {value!r}")
    return int(value)


def sweep(base: SimulationConfig, parameter: str, values, out_path: str) -> str:
    """Re-run the base configuration once per parameter value.

    One summary row is written per value, in input order.  Only numeric
    configuration fields can be swept, and every value is checked before
    the first run.
    """
    if parameter not in NUMERIC_FIELDS:
        raise ConfigError(
            f"parameter {parameter!r} is not a numeric configuration field; "
            f"choose from {', '.join(sorted(NUMERIC_FIELDS))}"
        )
    typed_values = [_sweep_value(parameter, value) for value in values]
    rows = [",".join(SWEEP_COLUMNS)]
    for typed in typed_values:
        config = replace(base, **{parameter: typed})
        _trajectory, summary = simulate(config)
        figures = summary.figures()
        cells = [parameter, _fmt(float(typed))] + [figures[name] for name in SWEEP_COLUMNS[2:]]
        rows.append(",".join(cells))
    with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(rows) + "\n")
    return out_path


def config_field_names() -> list[str]:
    return [f.name for f in fields(SimulationConfig)]
