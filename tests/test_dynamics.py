import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from cavityfock import (
    PRESETS,
    Dissipation,
    IntegrationError,
    LinearHamiltonian,
    ModelConfig,
    ModelMismatchError,
    ParameterDomainError,
    PulseParameters,
    TimeGrid,
    atomic_raising,
    bound_hamiltonian,
    build_basis,
    elimination_residual,
    ladder_operators,
    linear_hamiltonian,
    propagate,
    resolve_preset,
    simulate,
)
from cavityfock.dynamics import _coordinates, _density_matrices, _real_liouvillian
from cavityfock.scenarios import model_config, time_grid

PULSES = PulseParameters(omega0=2.0)
BASIS = build_basis("effective", 1)


class TestTimeGrid:
    def test_step_count(self):
        grid = TimeGrid(-4.0, 4.0, 1e-3)
        assert grid.n_steps == 8000
        assert grid.time(0) == -4.0
        assert grid.time(8000) == 4.0

    def test_rejects_non_integer_span(self):
        with pytest.raises(ParameterDomainError):
            TimeGrid(0.0, 1.0, 0.3)

    def test_rejects_bad_ordering_and_steps(self):
        with pytest.raises(ParameterDomainError):
            TimeGrid(1.0, 0.0, 0.1)
        with pytest.raises(ParameterDomainError):
            TimeGrid(0.0, 1.0, -0.1)
        with pytest.raises(ParameterDomainError):
            TimeGrid(0.0, 1.0, 0.1, stride=0)

    @pytest.mark.parametrize(
        "window",
        [
            (math.nan, 1.0, 0.1),
            (0.0, math.nan, 0.1),
            (0.0, 1.0, math.nan),
            (-math.inf, 1.0, 0.1),
            (0.0, math.inf, 0.1),
            (0.0, 1.0, math.inf),
            (-1e308, 1e308, 1.0),  # the step count overflows
            (0.0, 1.0, 1e-9),  # 1e-9 * steps cannot resolve a fractional step
        ],
    )
    def test_rejects_non_finite_window_or_step(self, window):
        with pytest.raises(ParameterDomainError):
            TimeGrid(*window)


def closed_and_open_models():
    config = ModelConfig("effective", "stirap", PULSES, Dissipation(1.0, 0.1))
    return [
        linear_hamiltonian(replace(config, dissipation=None), BASIS),
        linear_hamiltonian(config, BASIS),
    ]


class TestSchrodinger:
    def test_zero_hamiltonian_freezes_state(self):
        grid = TimeGrid(0.0, 1.0, 1e-2)
        psi0 = BASIS.state("g1", 0)
        zero = np.zeros((BASIS.dimension, BASIS.dimension), dtype=complex)
        trajectory = propagate(LinearHamiltonian(BASIS, zero), psi0, grid)
        assert np.array_equal(trajectory.final_state, psi0)

    def test_eigenstate_accumulates_pure_phase(self):
        delta = 1.0
        h = np.zeros((BASIS.dimension, BASIS.dimension), dtype=complex)
        for n in (0, 1):
            h[BASIS.index("e", n), BASIS.index("e", n)] = delta
        grid = TimeGrid(0.0, 2.0, 1e-3)
        psi0 = BASIS.state("e", 0)
        trajectory = propagate(LinearHamiltonian(BASIS, h), psi0, grid)
        amplitude = trajectory.final_state[BASIS.index("e", 0)]
        assert abs(amplitude) == pytest.approx(1.0, abs=1e-10)
        assert amplitude == pytest.approx(np.exp(-1j * delta * 2.0), abs=1e-9)

    def test_matches_matrix_exponential_oracle(self):
        rng = np.random.default_rng(12)
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = raw + raw.conj().T
        psi0 = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi0 /= np.linalg.norm(psi0)
        grid = TimeGrid(0.0, 1.0, 1e-3)
        trajectory = propagate(LinearHamiltonian(BASIS, h), psi0, grid)
        exact = expm(-1j * h * 1.0) @ psi0
        assert np.max(np.abs(trajectory.final_state - exact)) <= 1e-9

    def test_unstable_step_raises_integration_error(self):
        h = 50.0 * np.diag(np.ones(BASIS.dimension)).astype(complex)
        h[0, 1] = h[1, 0] = 40.0
        grid = TimeGrid(0.0, 4.0, 1.0, stride=1)
        psi0 = BASIS.state("g1", 0)
        with pytest.raises(IntegrationError):
            propagate(LinearHamiltonian(BASIS, h), psi0, grid)

    # The initial-state checks hold for a closed and an open model alike.

    def test_rejects_unnormalized_initial_state(self):
        grid = TimeGrid(0.0, 1.0, 1e-2)
        for model in closed_and_open_models():
            with pytest.raises(ParameterDomainError):
                propagate(model, 2.0 * BASIS.state("g1", 0), grid)

    def test_rejects_dimension_mismatch(self):
        grid = TimeGrid(0.0, 1.0, 1e-2)
        for model in closed_and_open_models():
            with pytest.raises(ParameterDomainError):
                propagate(model, np.ones(4) / 2.0, grid)

    def test_rejects_non_finite_initial_state(self):
        grid = TimeGrid(0.0, 1.0, 1e-2)
        for model in closed_and_open_models():
            for value in (np.nan, np.inf):
                psi0 = BASIS.state("g1", 0)
                psi0[1] = value
                with pytest.raises(ParameterDomainError):
                    propagate(model, psi0, grid)

    def test_norm_conserved_through_transfer(self):
        config = ModelConfig("effective", "tqd", PULSES)
        grid = TimeGrid(-4.0, 4.0, 1e-3, stride=50)
        trajectory = propagate(
            linear_hamiltonian(config, BASIS), BASIS.state("g1", 0), grid
        )
        drift = np.max(np.abs(trajectory.norm_or_trace - 1.0))
        assert drift <= 1e-8


@pytest.fixture(scope="module")
def lossless_tqd_trajectory():
    config = ModelConfig("effective", "tqd", PULSES)
    grid = TimeGrid(-4.0, 4.0, 1e-3, stride=10)
    return propagate(linear_hamiltonian(config, BASIS), BASIS.state("g1", 0), grid)


class TestTransitionlessTracking:
    def test_excited_level_stays_dark(self, lossless_tqd_trajectory):
        assert lossless_tqd_trajectory.max_population("e", 0) <= 1e-4

    def test_dark_state_overlap_stays_high(self, lossless_tqd_trajectory):
        # NaN marks an undefined overlap and fails the comparison
        assert np.all(lossless_tqd_trajectory.dark_overlap >= 0.999)

    def test_transfer_completes(self, lossless_tqd_trajectory):
        assert lossless_tqd_trajectory.final_populations[("g2", 1)] >= 0.999


class TestLindblad:
    def test_jumps_select_the_master_equation(self):
        grid = TimeGrid(0.0, 1.0, 1e-2, stride=50)
        psi0 = BASIS.state("g1", 0)
        closed, open_ = closed_and_open_models()
        pure = propagate(closed, psi0, grid)
        mixed = propagate(open_, psi0, grid)
        assert not pure.is_density and pure.states.shape == (3, 6)
        assert mixed.is_density and mixed.states.shape == (3, 6, 6)
        assert np.array_equal(mixed.states[0], np.outer(psi0, psi0.conj()))

    def test_pure_cavity_decay_matches_exponential(self):
        """Oracle: scalar exponential exp(-kappa * (t - t0))."""
        kappa = 0.5
        config = ModelConfig(
            "effective",
            "stirap",
            PulseParameters(omega0=0.0, delta=0.0),
            Dissipation(gamma=0.0, kappa=kappa),
        )
        grid = TimeGrid(-4.0, 4.0, 1e-3, stride=100)
        trajectory = propagate(linear_hamiltonian(config, BASIS), BASIS.state("g2", 1), grid)
        for t, n_mean in zip(trajectory.times, trajectory.mean_photon_n):
            expected = math.exp(-kappa * (t + 4.0))
            assert n_mean == pytest.approx(expected, abs=1e-6)

    def test_closed_system_limit_matches_pure_propagation(self):
        config = ModelConfig("effective", "tqd", PULSES, Dissipation(0.0, 0.0))
        grid = TimeGrid(-4.0, 4.0, 1e-3, stride=200)
        psi0 = BASIS.state("g1", 0)
        closed = linear_hamiltonian(replace(config, dissipation=None), BASIS)
        pure = propagate(closed, psi0, grid)
        mixed = propagate(linear_hamiltonian(config, BASIS), psi0, grid)
        for psi, rho in zip(pure.states, mixed.states):
            projector = np.outer(psi, psi.conj())
            assert np.max(np.abs(rho - projector)) <= 1e-8

    def test_trace_preserved_with_dissipation(self):
        config = ModelConfig(
            "effective", "tqd", PulseParameters(omega0=5.0), Dissipation(5.0, 0.05)
        )
        grid = TimeGrid(-4.0, 4.0, 1e-3, stride=100)
        trajectory = propagate(linear_hamiltonian(config, BASIS), BASIS.state("g1", 0), grid)
        drift = np.max(np.abs(trajectory.norm_or_trace - 1.0))
        assert drift <= 1e-8

    @pytest.mark.parametrize("n_max", [1, 3])
    def test_sampled_states_stay_hermitian(self, n_max):
        basis = build_basis("effective", n_max)
        config = ModelConfig(
            "effective", "stirap", PULSES, Dissipation(1.0, 0.1)
        )
        grid = TimeGrid(-4.0, 4.0, 1e-3, stride=400)
        trajectory = propagate(linear_hamiltonian(config, basis), basis.state("g1", 0), grid)
        for rho in trajectory.states:
            assert np.max(np.abs(rho - rho.conj().T)) == 0.0


class TestEliminationResidual:
    def test_requires_full_model(self, lossless_tqd_trajectory):
        with pytest.raises(ModelMismatchError):
            elimination_residual(lossless_tqd_trajectory)

    def test_zero_when_auxiliary_drives_are_off(self):
        basis = build_basis("full", 1)
        config = ModelConfig("full", "stirap", PULSES)
        grid = TimeGrid(-4.0, 4.0, 1e-3, stride=100)
        trajectory = propagate(
            linear_hamiltonian(config, basis), basis.state("g1", 0), grid
        )
        assert elimination_residual(trajectory) == 0.0

    def test_positive_when_auxiliary_drives_are_on(self):
        basis = build_basis("full", 1)
        config = ModelConfig("full", "tqd", PULSES)
        grid = TimeGrid(-4.0, 4.0, 1e-3, stride=100)
        trajectory = propagate(
            linear_hamiltonian(config, basis), basis.state("g1", 0), grid
        )
        assert 0.0 < elimination_residual(trajectory) < 0.1


class TestTruncationIndependence:
    def test_single_excitation_manifold_is_closed(self):
        """n_max=1 and n_max=3 must give identical trajectories."""
        grids = TimeGrid(-4.0, 4.0, 1e-3, stride=400)
        results = {}
        for n_max in (1, 3):
            basis = build_basis("effective", n_max)
            config = ModelConfig("effective", "tqd", PULSES)
            trajectory = propagate(
                linear_hamiltonian(config, basis), basis.state("g1", 0), grids
            )
            results[n_max] = trajectory
        small, large = results[1], results[3]
        for label in small.basis.labels():
            diff = np.abs(small.population_series(*label) - large.population_series(*label))
            assert np.max(diff) <= 1e-10


def reference_schrodinger(hamiltonian, psi, grid):
    """Per-step RK4 loop, the reference for the chunked step-matrix scan:
    H(t) rebuilt at every half step, states at the grid's recorded steps."""
    states = [psi]
    dt = grid.dt
    h_now = hamiltonian(grid.time(0))
    for step in range(grid.n_steps):
        t = grid.time(step)
        h_mid = hamiltonian(t + 0.5 * dt)
        h_next = hamiltonian(grid.time(step + 1))
        k1 = -1j * (h_now @ psi)
        k2 = -1j * (h_mid @ (psi + (0.5 * dt) * k1))
        k3 = -1j * (h_mid @ (psi + (0.5 * dt) * k2))
        k4 = -1j * (h_next @ (psi + dt * k3))
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        h_now = h_next
        done = step + 1
        if done % grid.stride == 0 or done == grid.n_steps:
            states.append(psi)
    return np.array(states)


def reference_jumps(config, basis):
    """The Lindblad jumps (rate, L, L^dag) written out by hand."""
    a, a_dag = ladder_operators(basis)
    s1 = atomic_raising(basis, "S1").conj().T
    s2 = atomic_raising(basis, "S2").conj().T
    gamma, kappa = config.dissipation.gamma, config.dissipation.kappa
    jumps = [(kappa, a, a_dag), (0.5 * gamma, s1, s1.conj().T), (0.5 * gamma, s2, s2.conj().T)]
    return [(rate, op, op_dag) for rate, op, op_dag in jumps if rate > 0.0]


def reference_lindblad(config, rho, grid, basis):
    """Per-step RK4 loop of the master equation with explicit jump
    products, the reference for the real-coordinate chunked propagator."""
    h_nonherm = bound_hamiltonian(config, basis, include_decay=True)
    jumps = reference_jumps(config, basis)

    def rhs(h, state):
        out = -1j * (h @ state - state @ h.conj().T)
        for rate, op, op_dag in jumps:
            out += rate * (op @ state @ op_dag)
        return out

    states = [rho]
    dt = grid.dt
    h_now = h_nonherm(grid.time(0))
    for step in range(grid.n_steps):
        t = grid.time(step)
        h_mid = h_nonherm(t + 0.5 * dt)
        h_next = h_nonherm(grid.time(step + 1))
        k1 = rhs(h_now, rho)
        k2 = rhs(h_mid, rho + (0.5 * dt) * k1)
        k3 = rhs(h_mid, rho + (0.5 * dt) * k2)
        k4 = rhs(h_next, rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        h_now = h_next
        done = step + 1
        if done % grid.stride == 0 or done == grid.n_steps:
            states.append(rho)
    return np.array(states)


class TestAgainstReferenceLoops:
    """The chunked propagator only reorders floating-point sums, so every
    recorded state matches the per-step loops to rounding."""

    @pytest.mark.parametrize(
        "name, n_max",
        [(name, 1) for name in sorted(PRESETS)] + [("fig2f_dissipative_tqd", 3)],
    )
    def test_every_recorded_state_matches(self, name, n_max):
        sim = replace(resolve_preset(name), n_max=n_max)
        trajectory, _summary = simulate(sim)
        config = model_config(sim)
        basis = build_basis(sim.model, n_max)
        psi0 = basis.state("g1", 0)
        if config.dissipation is None:
            expected = reference_schrodinger(bound_hamiltonian(config, basis), psi0, time_grid(sim))
        else:
            rho0 = np.outer(psi0, psi0.conj())
            expected = reference_lindblad(config, rho0, time_grid(sim), basis)
        assert trajectory.states.shape == expected.shape
        assert np.max(np.abs(trajectory.states - expected)) <= 1e-12


class TestRealLiouvillian:
    """The master equation steps in real coordinates through one stacked
    real Liouvillian (L_static; L_1; ...; L_K)."""

    @pytest.mark.parametrize("n_max", [1, 3])
    def test_stack_reproduces_the_matrix_form_generator(self, n_max):
        basis = build_basis("effective", n_max)
        d = basis.dimension
        config = ModelConfig("effective", "tqd", PULSES, Dissipation(5.0, 0.05))
        model = linear_hamiltonian(config, basis)
        stack = _real_liouvillian(model)
        assert stack.shape == ((len(model.terms) + 1) * d * d, d * d)
        assert stack.dtype == np.float64
        rng = np.random.default_rng(n_max)
        raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = raw + raw.conj().T  # exactly Hermitian
        rho /= np.trace(rho).real
        x = _coordinates(rho)
        assert np.array_equal(_density_matrices(x), rho)
        for controls in rng.normal(scale=3.0, size=(5, len(model.terms))):
            h = model.static + sum(c * term for c, term in zip(controls, model.terms.values()))
            expected = -1j * (h @ rho - rho @ h.conj().T)
            for rate, op, op_dag in reference_jumps(config, basis):
                expected += rate * (op @ rho @ op_dag)
            blocks = (stack @ x).reshape(-1, d * d)
            derivative = np.concatenate(([1.0], controls)) @ blocks
            assert np.max(np.abs(_density_matrices(derivative) - expected)) <= 1e-13


class TestMemory:
    @pytest.mark.parametrize("dissipative, n_max", [(False, 1), (True, 1), (True, 3)])
    def test_peak_allocation_does_not_grow_with_step_count(self, dissipative, n_max):
        basis = build_basis("effective", n_max)
        config = ModelConfig("effective", "tqd", PULSES, Dissipation(1.0, 0.1))
        psi0 = basis.state("g1", 0)

        def run(n_steps):
            # the same 11 recorded samples whatever the step count
            grid = TimeGrid(-4.0, 4.0, 8.0 / n_steps, stride=n_steps // 10)
            chosen = config if dissipative else replace(config, dissipation=None)
            propagate(linear_hamiltonian(chosen, basis), psi0, grid)

        run(1000)  # fill the operator caches
        peaks = []
        for n_steps in (1000, 8000):
            tracemalloc.start()
            try:
                run(n_steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]
