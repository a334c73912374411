"""Correctness check of the program's output files, independent of its own checks.

A simulation fails when its output holds a non-finite number, when its
norm/trace drifts from 1 by more than DRIFT_TOL at any recorded sample, or
when a final population differs from the stored dt/4 reference by more than
POP_TOL.  Every comparison is written so that NaN fails it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

POP_TOL = 1e-6
DRIFT_TOL = 1e-6

# The dt/4 references carry their own rounding error, some 1e-13 after
# 32 000 steps, so deviations and drifts below this floor are not resolved
# and are reported as the floor.
RESOLUTION = 1e-12

POPULATION_COLUMNS = ("p_g1_0", "p_e_0", "p_g2_1", "p_g2_0", "p_em_0")


@dataclass
class Outcome:
    """Verdict on one simulation; it passed when ``failures`` is empty."""

    failures: list[str] = field(default_factory=list)
    dev: float = 0.0
    drift: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _number(cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def population_columns(model: str) -> tuple[str, ...]:
    return POPULATION_COLUMNS if model == "full" else POPULATION_COLUMNS[:4]


def _compare(outcome: Outcome, finals: dict[str, float], reference: dict | None) -> None:
    if reference is None:
        return
    dev = 0.0
    for column, expected in reference.items():
        value = finals.get(column, math.nan)
        gap = abs(value - expected)
        if not gap <= POP_TOL:
            outcome.failures.append(
                f"final {column}={value!r} is {gap:.3e} from reference {expected!r}"
            )
        elif gap > dev:
            dev = gap
    outcome.dev = dev


def check_trajectory(
    path: str, model: str, rows: int, reference: dict | None
) -> Outcome:
    """Check a trajectory CSV written by ``cavityfock run``."""
    outcome = Outcome()
    header, body = read_csv(path)
    required = ("t_over_T", *population_columns(model), "n_mean", "norm_or_trace")
    missing = [name for name in required if name not in header]
    if missing:
        outcome.failures.append(f"missing columns {missing}")
        return outcome
    if len(body) != rows:
        outcome.failures.append(f"{len(body)} rows, expected {rows}")
    if not body:
        return outcome
    at = {name: header.index(name) for name in required}
    drift = 0.0
    for lineno, row in enumerate(body, start=2):
        if len(row) != len(header):
            outcome.failures.append(f"line {lineno}: {len(row)} cells")
            return outcome
        if any(row[at[name]] == "" for name in required):
            outcome.failures.append(f"line {lineno}: empty required cell")
            return outcome
        if not all(math.isfinite(_number(cell)) for cell in row if cell != ""):
            outcome.failures.append(f"line {lineno}: non-finite value")
            return outcome
        gap = abs(float(row[at["norm_or_trace"]]) - 1.0)
        if not gap <= DRIFT_TOL:
            outcome.failures.append(f"line {lineno}: norm/trace drift {gap:.3e}")
            return outcome
        drift = max(drift, gap)
    outcome.drift = drift
    finals = {name: float(body[-1][at[name]]) for name in population_columns(model)}
    _compare(outcome, finals, reference)
    return outcome


def check_sweep(
    path: str, values: list[float], references: list[dict | None]
) -> list[Outcome]:
    """Check a sweep table written by ``cavityfock sweep``, one outcome per value."""
    header, body = read_csv(path)
    outcomes = [Outcome() for _ in values]
    if len(body) != len(values):
        for outcome in outcomes:
            outcome.failures.append(f"{len(body)} rows, expected {len(values)}")
        return outcomes
    final_columns = ["final_" + name for name in POPULATION_COLUMNS[:4]]
    required = ("value", *final_columns, "norm_or_trace_drift")
    missing = [name for name in required if name not in header]
    for outcome, value, reference, row in zip(outcomes, values, references, body):
        if missing:
            outcome.failures.append(f"missing columns {missing}")
            continue
        cells = dict(zip(header, row))
        if len(row) != len(header):
            outcome.failures.append(f"{len(row)} cells")
            continue
        numbers = {name: _number(cell) for name, cell in cells.items() if cell != ""}
        numbers.pop("parameter", None)
        if any(cells[name] == "" for name in required) or not all(
            math.isfinite(x) for x in numbers.values()
        ):
            outcome.failures.append(f"row for {value}: empty or non-finite value")
            continue
        if numbers["value"] != value:
            outcome.failures.append(f"row value {numbers['value']} != {value}")
        drift = numbers["norm_or_trace_drift"]
        if not drift <= DRIFT_TOL:
            outcome.failures.append(f"norm/trace drift {drift:.3e}")
        outcome.drift = drift
        finals = {name[len("final_"):]: numbers[name] for name in final_columns}
        _compare(outcome, finals, reference)
    return outcomes


def check_summary(text: str) -> list[str]:
    """Failures in the ``key=value`` summary printed by ``cavityfock run``."""
    failures = []
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if not sep or key in ("scenario", "model", "drive", "output_path") or not value:
            continue
        if not math.isfinite(_number(value)):
            failures.append(f"printed {key}={value}")
    return failures
