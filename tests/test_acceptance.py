"""End-to-end acceptance gate.

Each test prints one ``[acceptance] criterion N (...): PASS/FAIL`` line with
the measured figure of merit; run ``pytest -s tests/test_acceptance.py`` to
see every line.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cavityfock import (
    Dissipation,
    ModelConfig,
    PulseParameters,
    TimeGrid,
    bound_hamiltonian,
    build_basis,
    counterdiabatic_amplitude,
    ladder_operators,
    linear_hamiltonian,
    physical_pulse_pair,
    propagate,
    resolve_preset,
    run,
    simulate,
    stirap_pair,
)

from oracles import em_residual, generic_counterdiabatic, single_excitation_matrix

PULSES = PulseParameters(omega0=2.0)


def _report(criterion: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] {criterion}: {status}  {detail}")
    assert passed, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def fig2f_results():
    results = {}
    for name in ("fig2f_dissipative_stirap", "fig2f_dissipative_tqd"):
        results[name] = simulate(resolve_preset(name))
    return results


@pytest.fixture(scope="module")
def fig3_result():
    return simulate(resolve_preset("fig3_full"))


def test_criterion_01_adiabatic_transfer_is_incomplete():
    started = time.perf_counter()
    _trajectory, summary = simulate(resolve_preset("fig2_stirap"))
    wall = time.perf_counter() - started
    final = summary.final_populations[("g2", 1)]
    ok = abs(final - 0.735) <= 0.05 and wall < 1.0
    _report(
        "criterion 1 (plain-transfer inefficiency)",
        ok,
        f"final P(g2,1)={final:.4f} (target 0.735 +/- 0.05), wall={wall:.2f}s",
    )


def test_criterion_02_corrected_transfer_is_complete():
    started = time.perf_counter()
    trajectory, summary = simulate(resolve_preset("fig2_tqd"))
    wall = time.perf_counter() - started
    final = summary.final_populations[("g2", 1)]
    max_excited = trajectory.population_series("e", 0).max()
    ok = final >= 0.999 and max_excited <= 1e-3 and wall < 1.0
    _report(
        "criterion 2 (corrected-transfer completeness)",
        ok,
        f"final P(g2,1)={final:.6f} (>=0.999), "
        f"max P(e,0)={max_excited:.2e} (<=1e-3), wall={wall:.2f}s",
    )


def test_criterion_03_correction_identities():
    times = np.linspace(-3.0, 3.0, 10_000)
    closed = counterdiabatic_amplitude(PULSES, times)
    mask = closed > 1e-8

    step = 1e-6

    def theta(t):
        omega_r, g = stirap_pair(PULSES, t)
        return np.arctan2(omega_r, g)

    derivative = (theta(times + step) - theta(times - step)) / (2.0 * step)
    err_theta = np.max(np.abs(closed[mask] - derivative[mask]) / closed[mask])

    # the auxiliary pair at the paper's offsets, at 20 seeded random ones and
    # at one reversed pulse order (tau_p + tau_s < 0, where omega1 < 0)
    rng = np.random.default_rng(20261017)
    offsets = [(0.5, 0.5)] + [tuple(rng.uniform(0.1, 1.0, size=2)) for _ in range(20)]
    offsets.append((-0.8, 0.3))
    err_product = 0.0
    for tau_p, tau_s in offsets:
        params = replace(PULSES, tau_p=tau_p, tau_s=tau_s)
        target = counterdiabatic_amplitude(params, times)
        g_m, omega_m = physical_pulse_pair(params, times)
        product = g_m * omega_m / params.delta_m
        used = np.abs(target) > 1e-8
        err = np.max(np.abs(target[used] - product[used]) / np.abs(target[used]))
        err_product = max(err_product, err)

    ok = err_theta <= 1e-6 and err_product <= 1e-12
    _report(
        "criterion 3 (correction identities)",
        ok,
        f"max rel err vs angle derivative={err_theta:.2e} (<=1e-6), "
        f"vs auxiliary product={err_product:.2e} (<=1e-12) on 1e4 points "
        f"at {len(offsets)} pulse offsets (tau_p, tau_s)",
    )


def test_criterion_04_generic_construction_oracle():
    basis = build_basis("effective", 1)
    config = ModelConfig("effective", "tqd", PULSES)
    row, col = basis.index("g1", 0), basis.index("g2", 1)

    def transfer(t):
        omega_r, g = stirap_pair(PULSES, t)
        return single_excitation_matrix(omega_r, g, PULSES.delta)

    hamiltonian = bound_hamiltonian(config, basis)
    worst = 0.0
    for t in np.linspace(-3.0, 3.0, 100):
        numeric = generic_counterdiabatic(transfer, t, 1e-6)[0, 2]
        used = hamiltonian(t)[row, col]
        worst = max(worst, abs(numeric - used) / abs(used))
    ok = worst <= 1e-6
    _report(
        "criterion 4 (generic construction reproduces coupling block)",
        ok,
        f"max rel err={worst:.2e} (<=1e-6) at 100 times, sign included",
    )


def test_criterion_05_analytic_eigensystem():
    from cavityfock import analytic_eigensystem

    rng = np.random.default_rng(20260810)
    worst_value = 0.0
    worst_vector = 0.0
    worst_dark = 0.0
    for _ in range(1000):
        omega_r = rng.uniform(0.05, 5.0)
        g = rng.uniform(0.05, 5.0)
        delta = rng.uniform(-5.0, 5.0)
        eig = analytic_eigensystem(omega_r, g, delta)
        h0 = single_excitation_matrix(omega_r, g, delta)
        evals, evecs = np.linalg.eigh(h0)
        order = np.argsort(eig.eigenvalues)
        vectors = [eig.dark, eig.bright_upper, eig.bright_lower]
        for rank, idx in enumerate(order):
            worst_value = max(worst_value, abs(eig.eigenvalues[idx] - evals[rank]))
            numeric = evecs[:, rank]
            analytic = vectors[idx]
            overlap = np.vdot(numeric, analytic)
            residual = analytic - (overlap / abs(overlap)) * numeric
            worst_vector = max(worst_vector, float(np.linalg.norm(residual)))
        worst_dark = max(worst_dark, float(np.linalg.norm(h0 @ eig.dark)))
    ok = worst_value <= 1e-10 and worst_vector <= 1e-10 and worst_dark <= 1e-10
    _report(
        "criterion 5 (analytic eigensystem vs diagonalization)",
        ok,
        f"1000 triples: max |dE|={worst_value:.2e}, max vector residual="
        f"{worst_vector:.2e}, max |H0 dark|={worst_dark:.2e} (all <=1e-10)",
    )


def test_criterion_06_master_equation_hygiene(fig2f_results):
    basis = build_basis("effective", 1)

    worst_drift = 0.0
    worst_negative = 0.0
    for _name, (trajectory, summary) in fig2f_results.items():
        worst_drift = max(worst_drift, summary.figures_of_merit["norm_or_trace_drift"])
        for rho in trajectory.states:
            smallest = float(np.linalg.eigvalsh(rho)[0])
            worst_negative = min(worst_negative, smallest)

    # closed-system limit against the pure-state propagator: a zero-rate
    # jump, given explicitly, keeps the master equation
    grid = TimeGrid(-4.0, 4.0, 1e-3, stride=100)
    psi0 = basis.state("g1", 0)
    closed = linear_hamiltonian(ModelConfig("effective", "tqd", PULSES), basis)
    pure = propagate(closed, psi0, grid)
    mixed = propagate(replace(closed, jumps=((0.0, ladder_operators(basis)[0]),)), psi0, grid)
    closed_gap = max(
        float(np.max(np.abs(rho - np.outer(psi, psi.conj()))))
        for psi, rho in zip(pure.states, mixed.states)
    )

    # pure cavity decay against the analytic exponential
    kappa = 0.5
    decay_config = ModelConfig(
        "effective",
        "stirap",
        PulseParameters(omega0=0.0, delta=0.0),
        Dissipation(gamma=0.0, kappa=kappa),
    )
    decay = propagate(linear_hamiltonian(decay_config, basis), basis.state("g2", 1), grid)
    decay_err = max(
        abs(n_mean - math.exp(-kappa * (t + 4.0)))
        for t, n_mean in zip(decay.times, decay.mean_photon_n)
    )

    ok = (
        worst_drift <= 1e-8
        and worst_negative >= -1e-6
        and mixed.is_density
        and closed_gap <= 1e-8
        and decay_err <= 1e-6
    )
    _report(
        "criterion 6 (master-equation hygiene)",
        ok,
        f"trace drift={worst_drift:.2e} (<=1e-8), min eig={worst_negative:.2e} "
        f"(>=-1e-6), closed-system gap={closed_gap:.2e} (<=1e-8), "
        f"decay err={decay_err:.2e} (<=1e-6)",
    )


def test_criterion_07_dissipative_robustness(fig2f_results):
    stirap = fig2f_results["fig2f_dissipative_stirap"][1].figures_of_merit
    tqd = fig2f_results["fig2f_dissipative_tqd"][1].figures_of_merit
    lossless = simulate(resolve_preset("fig2e_lossless"))[1].figures_of_merit
    ok = (
        tqd["final_n"] > stirap["final_n"]
        and lossless["final_n"] >= 0.999
        and math.isfinite(lossless["final_q"])
        and lossless["final_q"] <= -0.99
    )
    _report(
        "criterion 7 (dissipative robustness)",
        ok,
        f"n_tqd={tqd['final_n']:.4f} > n_stirap={stirap['final_n']:.4f}; "
        f"lossless n={lossless['final_n']:.6f} (>=0.999), Q={lossless['final_q']:.6f} "
        f"(<=-0.99)",
    )


def test_criterion_08_full_model_validation(fig3_result):
    trajectory, summary = fig3_result
    residual_18 = em_residual(trajectory)
    final = summary.final_populations[("g2", 1)]

    far_detuned = replace(resolve_preset("fig3_full"), delta_m_T=50.0)
    trajectory_50, _ = simulate(far_detuned)
    residual_50 = em_residual(trajectory_50)

    ok = residual_18 <= 0.05 and final >= 0.95 and residual_50 < residual_18
    _report(
        "criterion 8 (full-model validation)",
        ok,
        f"max P(em)={residual_18:.4f} (<=0.05), final P(g2,1)={final:.4f} "
        f"(>=0.95), residual at detuning 50={residual_50:.4f} (strictly smaller)",
    )


def test_criterion_09_convergence_and_truncation():
    worst_dt = 0.0
    for name in ("fig2_stirap", "fig2_tqd"):
        base = resolve_preset(name)
        _t1, coarse = simulate(base)
        _t2, fine = simulate(replace(base, dt_over_T=base.dt_over_T / 2.0, stride=base.stride * 2))
        for label, value in coarse.final_populations.items():
            worst_dt = max(worst_dt, abs(value - fine.final_populations[label]))

    worst_truncation = 0.0
    base = resolve_preset("fig2_tqd")
    small, _ = simulate(base)
    large, _ = simulate(replace(base, n_max=3))
    for label in small.basis.labels():
        gap = np.abs(small.population_series(*label) - large.population_series(*label))
        worst_truncation = max(worst_truncation, float(np.max(gap)))

    ok = worst_dt <= 1e-6 and worst_truncation <= 1e-10
    _report(
        "criterion 9 (convergence and truncation)",
        ok,
        f"dt halving: max |dP|={worst_dt:.2e} (<=1e-6); "
        f"n_max 1 vs 3: max |dP|={worst_truncation:.2e} (<=1e-10)",
    )


def test_criterion_10_determinism(tmp_path):
    checked = []
    for name in ("fig2_stirap", "fig2f_dissipative_tqd", "fig3_full"):
        contents = []
        for attempt in (0, 1):
            config = replace(
                resolve_preset(name),
                output_path=str(tmp_path / f"{name}_{attempt}.csv"),
            )
            path, _summary = run(config)
            with open(path, "rb") as handle:
                contents.append(handle.read())
        checked.append(contents[0] == contents[1])
    ok = all(checked)
    _report(
        "criterion 10 (byte-identical reruns)",
        ok,
        f"presets checked={len(checked)}, identical={sum(checked)}",
    )
