"""Regenerate ``references.json``: final populations of every benchmark input,
integrated at a quarter of the preset time step.

Run from the repository root (takes a few minutes):

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from cavityfock import resolve_preset, simulate  # noqa: E402

from checker import population_columns  # noqa: E402
from inputs import reference_specs  # noqa: E402

DT_FACTOR = 0.25


def final_populations(preset: str, overrides: dict) -> dict[str, float]:
    sim = replace(resolve_preset(preset), **overrides)
    fine = replace(sim, dt_over_T=sim.dt_over_T * DT_FACTOR, stride=10**9)
    _trajectory, summary = simulate(fine)
    return {
        column: summary.final_populations[(column[2:-2], int(column[-1]))]
        for column in population_columns(sim.model)
    }


def main() -> None:
    references = {}
    for key, (preset, overrides) in sorted(reference_specs().items()):
        references[key] = final_populations(preset, overrides)
        print(key, references[key]["p_g2_1"], flush=True)
    with open(os.path.join(HERE, "references.json"), "w", encoding="utf-8") as handle:
        json.dump({"dt_factor": DT_FACTOR, "final_populations": references}, handle, indent=1)
        handle.write("\n")


if __name__ == "__main__":
    main()
