"""The package names that the benchmark under perfbench/ reads.

The benchmark's cold start warms each job's model through
``setup_probe.warm``, which calls ``bound_hamiltonian``; its clock wraps
``scenarios.simulate`` and ``dynamics.populations``; its tracer wraps
``ControlSchedule.values``.  These tests only read perfbench/, so that
removing one of these names fails here and not only in a benchmark run.
Where the clock's mark fires is pinned too: once in ``run``, never in
``sweep``, as every workload's normalized time depends on it.
"""

import os
import sys

import numpy as np
import pytest

import cavityfock.dynamics
import cavityfock.pulses
import cavityfock.scenarios
from cavityfock import PRESETS, bound_hamiltonian, build_basis, jump_operators, resolve_preset
from cavityfock.cli import main
from cavityfock.scenarios import model_config

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)

import inputs  # noqa: E402
import setup_probe  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402


@pytest.fixture
def simulations():
    """The calls of ``scenarios.simulate``, wrapped wherever the package
    refers to it, as the benchmark's clock wraps it."""
    calls = []
    original = cavityfock.scenarios.simulate

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    with speed.replaced(spans.program_modules(), original, counting):
        yield calls


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_setup_probe_warms_every_job(workload):
    # the PRESET:N_MAX specs that perfbench/run.py passes to warm
    specs = sorted({f"{job.preset}:{job.n_max}" for job in inputs.jobs(workload, 1)})
    assert specs
    setup_probe.warm(specs)


def test_wrapped_names_exist():
    assert callable(cavityfock.dynamics.populations)
    assert callable(cavityfock.scenarios.simulate)
    assert callable(cavityfock.pulses.ControlSchedule.values)


def test_run_passes_the_clock_once(simulations, tmp_path, capsys):
    """The clock marks the entry and exit of every run's one simulation."""
    assert main(["run", "--preset", "fig2_tqd", "--out", str(tmp_path / "t.csv")]) == 0
    assert len(simulations) == 1


def test_sweep_passes_the_clock_never(simulations, tmp_path, capsys):
    """A sweep's runs go through _simulate, past the wrapped name: the
    clock marks only the whole call."""
    out = tmp_path / "s.csv"
    argv = ["sweep", "--preset", "fig2_stirap", "--param", "omega0_T", "--values", "1,2"]
    assert main([*argv, "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 3
    assert simulations == []


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_bound_hamiltonian_with_and_without_decay(preset):
    """H'(t) differs from H(t) by the decay terms -i/2 sum_j r_j L_j^dag L_j
    of the model's jumps alone; H(t) is Hermitian."""
    sim = resolve_preset(preset)
    config, basis = model_config(sim), build_basis(sim.model, sim.n_max)
    decay = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for rate, op in jump_operators(config, basis):
        decay -= 0.5j * rate * (op.conj().T @ op)
    for t in (-1.0, 0.3):
        with_decay = bound_hamiltonian(config, basis, include_decay=True)(t)
        without = bound_hamiltonian(config, basis, include_decay=False)(t)
        assert np.array_equal(without, without.conj().T)
        assert np.max(np.abs(with_decay - without - decay)) <= 1e-15
    assert np.any(decay != 0) == preset.startswith("fig2f_")
