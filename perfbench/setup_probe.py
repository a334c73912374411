"""Cold start of the program, timed by the runner as ``setup_s``.

Imports ``cavityfock`` from this checkout, builds the operator caches that
the first simulation of a workload fills lazily, then prints ``ready``.

    python3 perfbench/setup_probe.py PRESET:N_MAX [PRESET:N_MAX ...]
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def add_source_path() -> None:
    """Make ``import cavityfock`` load the package under ``src/`` of this checkout."""
    if not os.path.isfile(os.path.join(SRC, "cavityfock", "__init__.py")):
        raise SystemExit(f"perfbench: no cavityfock package under {SRC}")
    if sys.path[0] != SRC:
        sys.path.insert(0, SRC)


def warm(specs: list[str]) -> None:
    """Build the operator caches of each ``PRESET:N_MAX`` model."""
    from cavityfock.hamiltonians import bound_hamiltonian
    from cavityfock.hilbert import build_basis
    from cavityfock.scenarios import model_config, resolve_preset

    for spec in specs:
        preset, _, n_max = spec.partition(":")
        sim = replace(resolve_preset(preset), n_max=int(n_max))
        config = model_config(sim)
        basis = build_basis(sim.model, sim.n_max)
        decay = config.dissipation is not None
        bound_hamiltonian(config, basis, include_decay=decay)(sim.t_start_over_T)


if __name__ == "__main__":
    add_source_path()
    import cavityfock.cli  # noqa: F401  (what the command-line entry point loads)

    warm(sys.argv[1:])
    print("ready", flush=True)
