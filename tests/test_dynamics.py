import math
import tracemalloc
import types
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from cavityfock import (
    PRESETS,
    ControlSchedule,
    Dissipation,
    IntegrationError,
    LinearHamiltonian,
    ModelConfig,
    ModelMismatchError,
    ParameterDomainError,
    PulseParameters,
    TimeGrid,
    bound_hamiltonian,
    build_basis,
    ladder_operators,
    linear_hamiltonian,
    propagate,
    resolve_preset,
    simulate,
)
from cavityfock import dynamics
from cavityfock.dynamics import (
    NEGATIVITY_LIMIT,
    _coordinates,
    _integrate,
    _kept_states,
    _linear_form,
    _reachable,
    _real_liouvillian,
    _record,
    _smallest_eigenvalues,
    _unit_matrices,
)
from cavityfock.observables import diagonal_weights
from cavityfock.scenarios import model_config, time_grid

from oracles import dark_state_overlaps, em_residual

PULSES = PulseParameters(omega0=2.0)
BASIS = build_basis("effective", 1)


def _lossless(name):
    """Whether a preset's model has no jumps, so that it runs pure states."""
    sim = resolve_preset(name)
    return not linear_hamiltonian(model_config(sim), build_basis(sim.model, sim.n_max)).jumps


LOSSLESS_PRESETS = sorted(filter(_lossless, PRESETS))


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

    @pytest.mark.parametrize("stride", [8000, 10**9, 2**63 - 1, 2**63, 10**30])
    def test_a_stride_past_the_grid_records_its_two_ends(self, stride):
        # past int64 too: the stride is kept as given, the sample steps stay integers
        grid = TimeGrid(-4.0, 4.0, 1e-3, stride=stride)
        assert grid.stride == stride
        assert grid.sample_steps.dtype.kind == "i"
        assert grid.sample_steps.tolist() == [0, 8000]

    @pytest.mark.parametrize("stride", [2.5, 10.0, True])
    def test_rejects_a_stride_that_is_not_an_integer(self, stride):
        with pytest.raises(ParameterDomainError, match=f"stride must be an integer, got {stride}"):
            TimeGrid(-4.0, 4.0, 1e-3, stride=stride)

    @pytest.mark.parametrize("name", ["t_start", "t_end", "dt"])
    @pytest.mark.parametrize(
        "value",
        [True, False, "2", None, 2j, Fraction(1, 2), 10**400],
        ids=["True", "False", "str", "None", "complex", "Fraction", "10**400"],
    )
    def test_rejects_a_window_or_step_that_is_not_a_real_number(self, name, value):
        """A bool is not taken as 1.0 or 0.0, and text fails typed."""
        window = dict(t_start=-4.0, t_end=4.0, dt=1e-3)
        with pytest.raises(ParameterDomainError, match=f"{name} must be a real number"):
            TimeGrid(**{**window, name: value})

    @pytest.mark.parametrize(
        "window",
        [
            (math.nan, 1.0, 0.1),
            (0.0, math.nan, 0.1),
            (0.0, 1.0, math.nan),
            (-math.inf, 1.0, 0.1),
            (0.0, math.inf, 0.1),
            (0.0, 1.0, math.inf),
            (-1e308, 1e308, 1.0),  # the window's length overflows
            (0.0, 1.0, 1e-9),  # 1e-9 * steps cannot resolve a fractional step
        ],
    )
    def test_rejects_non_finite_window_or_step(self, window):
        with pytest.raises(ParameterDomainError):
            TimeGrid(*window)

    @pytest.mark.parametrize("dt", [1e-320, 5e-324])
    def test_a_step_count_past_the_float_range_is_too_many_steps(self, dt):
        # the window is fine; it is the step that is too small
        with pytest.raises(ParameterDomainError, match="inf steps of dt=.* are too many"):
            TimeGrid(-4.0, 4.0, dt)

    @pytest.mark.parametrize("dt", [1e10, 2.5])
    def test_rejects_a_window_shorter_than_one_step(self, dt):
        with pytest.raises(ParameterDomainError, match="is not an integer number of steps"):
            TimeGrid(0.0, 1.0, dt)


def closed_and_open_models():
    config = ModelConfig("effective", "stirap", PULSES, Dissipation(1.0, 0.1))
    return [
        linear_hamiltonian(replace(config, dissipation=Dissipation()), BASIS),
        linear_hamiltonian(config, BASIS),
    ]


def constant(h: np.ndarray) -> LinearHamiltonian:
    """The time-independent H = h: a model whose drives are all zero."""
    undriven = ModelConfig("effective", "stirap", PulseParameters(omega0=0.0))
    return replace(linear_hamiltonian(undriven, BASIS), static=h)


class TestSchrodinger:
    def test_zero_hamiltonian_freezes_state(self):
        grid = TimeGrid(0.0, 1.0, 1e-2)
        psi0 = BASIS.state("g1", 0)
        zero = np.zeros((BASIS.dimension, BASIS.dimension), dtype=complex)
        trajectory = propagate(constant(zero), psi0, grid)
        assert np.array_equal(trajectory.final_state, psi0)

    def test_eigenstate_accumulates_pure_phase(self):
        delta = 1.0
        h = np.zeros((BASIS.dimension, BASIS.dimension), dtype=complex)
        for n in (0, 1):
            h[BASIS.index("e", n), BASIS.index("e", n)] = delta
        grid = TimeGrid(0.0, 2.0, 1e-3)
        psi0 = BASIS.state("e", 0)
        trajectory = propagate(constant(h), psi0, grid)
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
        trajectory = propagate(constant(h), psi0, grid)
        exact = expm(-1j * h * 1.0) @ psi0
        assert np.max(np.abs(trajectory.final_state - exact)) <= 1e-9

    def test_unstable_step_raises_integration_error(self):
        h = 50.0 * np.diag(np.ones(BASIS.dimension)).astype(complex)
        h[0, 1] = h[1, 0] = 40.0
        grid = TimeGrid(0.0, 4.0, 1.0, stride=1)
        psi0 = BASIS.state("g1", 0)
        with pytest.raises(IntegrationError):
            propagate(constant(h), psi0, grid)

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
        assert lossless_tqd_trajectory.population_series("e", 0).max() <= 1e-4

    def test_dark_state_overlap_stays_high(self, lossless_tqd_trajectory):
        # NaN marks an undefined overlap and fails the comparison
        assert np.all(lossless_tqd_trajectory.dark_overlap >= 0.999)

    def test_transfer_completes(self, lossless_tqd_trajectory):
        assert lossless_tqd_trajectory.population_series("g2", 1)[-1] >= 0.999


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
        # a zero-rate jump, given explicitly, keeps the master equation
        grid = TimeGrid(-4.0, 4.0, 1e-3, stride=200)
        psi0 = BASIS.state("g1", 0)
        closed = linear_hamiltonian(ModelConfig("effective", "tqd", PULSES), BASIS)
        pure = propagate(closed, psi0, grid)
        a, _ = ladder_operators(BASIS)
        mixed = propagate(replace(closed, jumps=((0.0, a),)), psi0, grid)
        assert mixed.is_density and not pure.is_density
        for psi, rho in zip(pure.states, mixed.states):
            projector = np.outer(psi, psi.conj())
            assert np.max(np.abs(rho - projector)) <= 1e-8

    @pytest.mark.parametrize("model", ["effective", "full"])
    def test_zero_rates_run_the_pure_states_of_no_dissipation(self, model):
        """The default rates and explicit zero rates run the same pure states."""
        basis = build_basis(model, 1)
        grid = TimeGrid(-4.0, 4.0, 1e-3, stride=100)
        configs = (
            ModelConfig(model, "tqd", PULSES),
            ModelConfig(model, "tqd", PULSES, Dissipation(0.0, 0.0)),
        )
        runs = [
            propagate(linear_hamiltonian(config, basis), basis.state("g1", 0), grid)
            for config in configs
        ]
        assert not runs[0].is_density and not runs[1].is_density
        assert runs[1].coordinates.tobytes() == runs[0].coordinates.tobytes()

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
    """The residual of eliminating |em> is its largest recorded population."""

    def test_requires_full_model(self, lossless_tqd_trajectory):
        with pytest.raises(ModelMismatchError):
            lossless_tqd_trajectory.population_series("em", 0)

    def test_zero_when_auxiliary_drives_are_off(self):
        basis = build_basis("full", 1)
        config = ModelConfig("full", "stirap", PULSES)
        grid = TimeGrid(-4.0, 4.0, 1e-3, stride=100)
        trajectory = propagate(
            linear_hamiltonian(config, basis), basis.state("g1", 0), grid
        )
        assert em_residual(trajectory) == 0.0

    def test_positive_when_auxiliary_drives_are_on(self):
        basis = build_basis("full", 1)
        config = ModelConfig("full", "tqd", PULSES)
        grid = TimeGrid(-4.0, 4.0, 1e-3, stride=100)
        trajectory = propagate(
            linear_hamiltonian(config, basis), basis.state("g1", 0), grid
        )
        assert 0.0 < em_residual(trajectory) < 0.1

    def test_lossy_full_model_approaches_the_effective_model(self):
        """With the same losses, the full model comes closer to the
        effective one as delta_m grows (0.81461 at 18 and 0.81885 at 72,
        against 0.81890)."""
        lossy = replace(resolve_preset("fig3_full"), gamma_T=5.0, kappa_T=0.05)
        effective = simulate(replace(lossy, model="effective"))[1].final_populations[("g2", 1)]
        gaps = []
        for delta_m in (18.0, 72.0):
            _trajectory, summary = simulate(replace(lossy, delta_m_T=delta_m))
            gaps.append(abs(summary.final_populations[("g2", 1)] - effective))
        assert gaps[1] < gaps[0] / 10


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
    """Per-step RK4 loop, the reference for the chunked step matrices:
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
    """The Lindblad jumps (rate, L, L^dag) written out by hand, with the
    emission branches |g><e| (x) I summed from the basis states."""
    a, a_dag = ladder_operators(basis)
    s1, s2 = (
        sum(np.outer(basis.state(lower, n), basis.state("e", n)) for n in range(basis.n_fock))
        for lower in ("g1", "g2")
    )
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


def reference_states(config, basis, psi0, grid):
    """The states of the per-step loop of the equation that the model of
    ``config`` follows: Schroedinger's if it has no jumps, else the master
    equation from |psi0><psi0|."""
    if not linear_hamiltonian(config, basis).jumps:
        return reference_schrodinger(bound_hamiltonian(config, basis), psi0, grid)
    return reference_lindblad(config, np.outer(psi0, psi0.conj()), grid, basis)


# A model without and with loss
LOSSES = pytest.mark.parametrize(
    "dissipation", [Dissipation(), Dissipation(1.0, 0.1)], ids=["lossless", "lossy"]
)


class TestAgainstReferenceLoops:
    """The chunked propagator only reorders floating-point sums, so every
    recorded state matches the per-step loops to rounding."""

    @pytest.mark.parametrize(
        "name, n_max",
        [(name, 1) for name in sorted(PRESETS)] + [("fig2f_dissipative_tqd", 3)],
    )
    def test_every_recorded_state_matches(self, name, n_max):
        self.check(replace(resolve_preset(name), n_max=n_max))

    @pytest.mark.parametrize("n_max", [1, 3])
    def test_lossy_full_model_matches(self, n_max):
        """The four-level model takes the losses of the effective one."""
        sim = replace(resolve_preset("fig3_full"), n_max=n_max, gamma_T=5.0, kappa_T=0.05)
        trajectory = self.check(sim)
        assert trajectory.is_density
        labels = [("g1", 0), ("e", 0), ("g2", 0), ("g2", 1), ("em", 0)]
        assert trajectory.kept.tolist() == [trajectory.basis.index(*label) for label in labels]

    @staticmethod
    def check(sim):
        trajectory, _summary = simulate(sim)
        basis = build_basis(sim.model, sim.n_max)
        expected = reference_states(model_config(sim), basis, basis.state("g1", 0), time_grid(sim))
        assert trajectory.states.shape == expected.shape
        assert np.max(np.abs(trajectory.states - expected)) <= 1e-12
        return trajectory


class TestScanLengths:
    """Chunks of every length, not only powers of two, and a partial last
    chunk: the grouped recurrence gives the states of the per-step loops."""

    @pytest.mark.parametrize("n_steps", [1, 2, 3, 5, 255, 256, 257])
    @LOSSES
    def test_every_recorded_state_matches(self, dissipation, n_steps):
        config = ModelConfig("effective", "tqd", PULSES, dissipation)
        psi0 = BASIS.state("g1", 0)
        dt = 1e-2
        grid = TimeGrid(-1.0, -1.0 + n_steps * dt, dt, stride=7)
        assert grid.n_steps == n_steps
        trajectory = propagate(linear_hamiltonian(config, BASIS), psi0, grid)
        expected = reference_states(config, BASIS, psi0, grid)
        assert trajectory.states.shape == expected.shape
        assert np.max(np.abs(trajectory.states - expected)) <= 1e-12


class TestBlockScan:
    """Each stride of step matrices is folded into one block before the
    recurrence.  On 1 600 steps, with room for 711 steps a chunk at r = 6
    and 10: 1 records every step through several chunks, 7 leaves a
    partial block at the grid end, 750 spans several chunks and does not
    divide the grid, 1 600 is the whole grid and 2 000 records only its
    end."""

    @pytest.mark.parametrize("stride", [1, 7, 750, 1600, 2000])
    @LOSSES
    def test_every_recorded_state_matches(self, dissipation, stride):
        config = ModelConfig("effective", "tqd", PULSES, dissipation)
        psi0 = BASIS.state("g1", 0)
        grid = TimeGrid(-4.0, 4.0, 5e-3, stride=stride)
        assert grid.n_steps == 1600
        trajectory = propagate(linear_hamiltonian(config, BASIS), psi0, grid)
        expected = reference_states(config, BASIS, psi0, grid)
        assert trajectory.states.shape == expected.shape
        assert np.max(np.abs(trajectory.states - expected)) <= 1e-12


def reference_advance(blocks, dt, x, columns, block):
    """Per-step RK4 of dx/dt = (A_static + sum_k c_k A_k) x through the
    control columns at the half steps, recording every ``block`` steps and
    the last one: the reference for _integrate."""
    generators = blocks[0] + np.einsum("hk,kij->hij", columns, blocks[1:])
    n = len(columns) // 2
    states = []
    for step in range(n):
        start, mid, end = generators[2 * step : 2 * step + 3]
        k1 = start @ x
        k2 = mid @ (x + (0.5 * dt) * k1)
        k3 = mid @ (x + (0.5 * dt) * k2)
        k4 = end @ (x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (step + 1) % block == 0 or step + 1 == n:
            states.append(x)
    return np.array(states)


class StandInSchedule:
    """A schedule's ``channels`` and ``values``: seeded sinusoids fast
    enough that neighbouring half steps take unrelated controls, the same
    for the same time, as a (times, channels) array."""

    channels = ("a", "b")

    def __init__(self, rng):
        self.rates = rng.uniform(100.0, 1000.0, size=2)
        self.phases = rng.uniform(0.0, 2.0 * math.pi, size=2)

    def values(self, t):
        return np.sin(np.multiply.outer(t, self.rates) + self.phases)


class TestLinearAdvance:
    """The stepper, _integrate, on seeded random real blocks and a stand-in
    schedule against per-step products.  Chunks of m = 1, 2 and 3 block
    products, in groups of one; a prime m; m = 15 = 4^2 - 1, in five full
    groups of isqrt(15) = 3; a perfect square; and a square plus one, whose
    last group is one block.  The last block is partial too where the
    stride is above 1."""

    @pytest.mark.parametrize("m", [1, 2, 3, 13, 15, 16, 17])
    @pytest.mark.parametrize("stride", [1, 2, 3, 7])
    @pytest.mark.parametrize("r", [3, 6, 10])
    def test_every_recorded_state_matches(self, r, stride, m):
        self.check(r, stride, m * stride - stride // 2, 1e-2)

    @pytest.mark.parametrize("m, stride", [(71, 10), (711, 1)])
    @pytest.mark.parametrize("r", [6, 10])
    def test_production_chunks_match(self, r, stride, m):
        """Two chunks of a preset run, at stride 10, 8 groups of 8 block
        products and one of 7, the last block partial in the second, and
        at stride 1, 27 groups of 26 and one of 9, with the 6 coordinates
        of an effective-model preset and the 10 of the master equation, at
        the presets' step."""
        self.check(r, stride, 2 * m * stride - stride // 2, 1e-3)

    @pytest.mark.parametrize("stride, n_steps", [(1, 2 * 711 + 23), (750, 2 * 750 + 100)])
    @pytest.mark.parametrize("r", [6, 10])
    def test_chunks_of_unequal_length_match(self, r, stride, n_steps):
        """Chunks of 711, 711 and 23 steps at stride 1, and at stride 750,
        above the capacity of 711, chunks of 711 and 39 in turn and a last
        one of 100, so a longer chunk follows a shorter one: each chunk's
        weights hold for its own length, not for the rows a longer chunk
        left."""
        self.check(r, stride, n_steps, 1e-3)

    @pytest.mark.parametrize("stride", [1, 10])
    def test_a_larger_stack_matches(self, stride):
        """A stand-in for a larger stack, r = 20, in chunks of 711 steps
        (710 at stride 10): 1 445 steps in three chunks, the last
        partial."""
        self.check(20, stride, 2 * 711 + 23, 1e-3)

    @pytest.mark.parametrize("m, stride", [(1, 1), (2, 3), (17, 1), (17, 3), (71, 10)])
    def test_no_product_writes_over_its_operands(self, m, stride, monkeypatch):
        """Every matmul and dot of the stepper writes into a buffer that
        none of its operands shares memory with, so numpy never copies an
        operand before the product."""
        called = set()

        def checked(product):
            def call(*operands, out):
                for operand in operands:
                    assert not np.shares_memory(out, operand), product.__name__
                called.add(product.__name__)
                return product(*operands, out=out)

            return call

        patched = types.SimpleNamespace(**vars(np))
        patched.matmul, patched.dot = checked(np.matmul), checked(np.dot)
        monkeypatch.setattr(dynamics, "np", patched)
        self.check(6, stride, m * stride - stride // 2, 1e-3)
        assert called == {"matmul", "dot"}

    @staticmethod
    def check(r, stride, n_steps, dt):
        """A run of ``n_steps`` from a state with every coordinate nonzero:
        its states against reference_advance through the controls at every
        half step, and its recorded controls against the schedule's values
        at the recorded steps, half steps 2 sample_steps."""
        rng = np.random.default_rng(100 * r + 10 * stride + n_steps)
        blocks = rng.normal(size=(3, r, r)) / math.sqrt(r)
        schedule = StandInSchedule(rng)
        x0 = rng.normal(size=r)
        grid = TimeGrid(-1.0, -1.0 + n_steps * dt, dt, stride=stride)
        assert grid.n_steps == n_steps
        states, controls = _integrate(schedule, grid, blocks, x0)
        half_steps = np.arange(2 * n_steps + 1)
        columns = schedule.values(grid.t_start + 0.5 * grid.dt * half_steps)
        expected = reference_advance(blocks, dt, x0, columns, stride)
        assert states.shape == (len(grid.sample_steps), r)
        assert np.array_equal(states[0], x0)
        assert np.max(np.abs(states[1:] - expected)) <= 1e-12
        recorded = schedule.values(grid.t_start + 0.5 * grid.dt * (2 * grid.sample_steps))
        assert np.array_equal(controls, recorded)


class TestChunkCapacity:
    """A chunk holds min(711, 64 * 144^2 // r^2) steps, at least one, so
    that its r x r step matrices take no more room than 64 steps' at full
    support at n_max = 3, r = 144."""

    @pytest.mark.parametrize(
        "r, capacity", [(6, 711), (8, 711), (10, 711), (20, 711), (144, 64)]
    )
    def test_chunks_hold_the_capacity(self, r, capacity):
        """Two full chunks and one step: each chunk is one control call,
        of its 2n half steps and, in the first, t_start's."""
        lengths = []

        class Recording(StandInSchedule):
            def values(self, t):
                lengths.append(len(t))
                return super().values(t)

        rng = np.random.default_rng(r)
        blocks = rng.normal(size=(3, r, r)) / math.sqrt(r)
        n_steps = 2 * capacity + 1
        grid = TimeGrid(-1.0, -1.0 + n_steps * 1e-3, 1e-3)
        _integrate(Recording(rng), grid, blocks, rng.normal(size=r))
        assert lengths == [2 * capacity + 1, 2 * capacity, 2]

    @pytest.mark.parametrize("stride", [1, 7, 10])
    @pytest.mark.parametrize("name", LOSSLESS_PRESETS)
    def test_closed_presets_keep_chunks_of_711_steps(self, name, stride, monkeypatch):
        """The pure-state presets step 6 or 8 coordinates, so every chunk
        but the last holds the strides that fit in 711 steps."""
        lengths = []
        original = ControlSchedule.values

        def recording(schedule, t):
            lengths.append(len(t))
            return original(schedule, t)

        monkeypatch.setattr(ControlSchedule, "values", recording)
        simulate(replace(resolve_preset(name), stride=stride))
        n = stride * (711 // stride)
        assert lengths[0] == 2 * n + 1
        assert set(lengths[1:-1]) == {2 * n}
        assert sum(lengths) == 2 * 8000 + 1


class TestStrideIndependence:
    """The stride changes how the step matrices are grouped, so the final
    state depends on it only at rounding level; at any one stride, with a
    partial last block at 7, reruns repeat byte for byte."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_final_populations_agree_across_strides(self, name):
        finals = []
        for stride in (1, 7, 10, 800, 8000):
            trajectory, _summary = simulate(replace(resolve_preset(name), stride=stride))
            finals.append(trajectory.populations[-1])
        assert np.max(np.abs(np.array(finals) - finals[0])) <= 1e-13

    @pytest.mark.parametrize("stride", [1, 7])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_reruns_are_byte_identical(self, name, stride):
        sim = replace(resolve_preset(name), stride=stride)
        first, _summary = simulate(sim)
        second, _summary = simulate(sim)
        assert first.states.tobytes() == second.states.tobytes()


class TestRealLiouvillian:
    """The master equation steps in real coordinates through one stacked
    real Liouvillian (L_static; L_1; ...; L_K)."""

    @pytest.mark.parametrize("n_max", [1, 3])
    def test_stack_reproduces_the_matrix_form_generator(self, n_max):
        basis = build_basis("effective", n_max)
        d = basis.dimension
        config = ModelConfig("effective", "tqd", PULSES, Dissipation(5.0, 0.05))
        model = linear_hamiltonian(config, basis)
        stack = _real_liouvillian(np.array([model.static, *model.terms.values()]), model.jumps)
        assert stack.shape == ((len(model.terms) + 1) * d * d, d * d)
        assert stack.dtype == np.float64
        rng = np.random.default_rng(n_max)
        raw = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        rho = raw + raw.conj().T  # exactly Hermitian
        rho /= np.trace(rho).real
        x = _coordinates(rho)
        assert np.array_equal(_kept_states(x[None], d, True)[0], rho)
        for controls in rng.normal(scale=3.0, size=(5, len(model.terms))):
            h = model.static + sum(c * term for c, term in zip(controls, model.terms.values()))
            expected = -1j * (h @ rho - rho @ h.conj().T)
            for rate, op, op_dag in reference_jumps(config, basis):
                expected += rate * (op @ rho @ op_dag)
            blocks = (stack @ x).reshape(-1, d * d)
            derivative = np.concatenate(([1.0], controls)) @ blocks
            assert np.max(np.abs(_kept_states(derivative[None], d, True)[0] - expected)) <= 1e-13


class TestReachableSubspace:
    """propagate steps only the coordinates that the initial state reaches
    through the blocks' nonzero patterns."""

    @pytest.mark.parametrize("n_max", [1, 3])
    @pytest.mark.parametrize("name", ["fig2f_dissipative_stirap", "fig2f_dissipative_tqd"])
    def test_master_equation_steps_one_hermitian_block_and_one_population(self, name, n_max):
        sim = replace(resolve_preset(name), n_max=n_max)
        basis = build_basis(sim.model, n_max)
        model = linear_hamiltonian(model_config(sim), basis)
        blocks, x0 = _linear_form(model, basis.state("g1", 0), np.arange(basis.dimension))
        # upper entries 1+1j mark both the real and the imaginary coordinate
        mask = np.zeros((basis.dimension, basis.dimension), dtype=complex)
        block = [basis.index(*label) for label in (("g1", 0), ("e", 0), ("g2", 1))]
        mask[np.ix_(block, block)] = 1.0 + 1.0j
        mask[basis.index("g2", 0), basis.index("g2", 0)] = 1.0
        expected = np.flatnonzero(_coordinates(mask))
        assert len(expected) == 10
        assert np.array_equal(_reachable(blocks, x0), expected)

    def test_four_presets_are_lossless(self):
        assert LOSSLESS_PRESETS == ["fig2_stirap", "fig2_tqd", "fig2e_lossless", "fig3_full"]

    @pytest.mark.parametrize("n_max", [1, 3])
    @pytest.mark.parametrize("name", LOSSLESS_PRESETS)
    def test_closed_presets_step_three_or_four_basis_states(self, name, n_max):
        sim = replace(resolve_preset(name), n_max=n_max)
        basis = build_basis(sim.model, n_max)
        model = linear_hamiltonian(model_config(sim), basis)
        blocks, x0 = _linear_form(model, basis.state("g1", 0), np.arange(basis.dimension))
        labels = [("g1", 0), ("e", 0), ("g2", 1)]
        if sim.model == "full":
            labels.append(("em", 0))
        states = sorted(basis.index(*label) for label in labels)
        # the real, then the imaginary coordinate of each of those states
        expected = states + [basis.dimension + i for i in states]
        assert len(expected) == 2 * len(labels)
        assert np.array_equal(_reachable(blocks, x0), expected)

    @LOSSES
    def test_full_support_state_steps_every_coordinate(self, dissipation):
        basis = build_basis("effective", 3)
        d = basis.dimension
        config = ModelConfig("effective", "tqd", PULSES, dissipation)
        model = linear_hamiltonian(config, basis)
        rng = np.random.default_rng(7)
        psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi0 /= np.linalg.norm(psi0)
        blocks, x0 = _linear_form(model, psi0, np.arange(d))
        assert np.all(x0 != 0)
        assert np.array_equal(_reachable(blocks, x0), np.arange(len(x0)))
        grid = TimeGrid(-4.0, 4.0, 1e-2, stride=40)
        trajectory = propagate(model, psi0, grid)
        expected = reference_states(config, basis, psi0, grid)
        assert trajectory.states.shape == expected.shape
        assert np.max(np.abs(trajectory.states - expected)) <= 1e-12


class TestRecordedCoordinates:
    """The observables come from the stepped coordinates and equal, bit for
    bit, the same formulas on the states lifted to full size."""

    @pytest.mark.parametrize("n_max", [1, 3])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_observables_match_the_lifted_states(self, name, n_max):
        sim = replace(resolve_preset(name), n_max=n_max, stride=7)
        basis = build_basis(sim.model, n_max)
        model = linear_hamiltonian(model_config(sim), basis)
        trajectory = propagate(model, basis.state("g1", 0), time_grid(sim))
        assert "states" not in vars(trajectory)  # lifted on first access only
        states, density = trajectory.states, trajectory.is_density
        assert trajectory.states is states
        assert np.array_equal(trajectory.final_state, states[-1])
        weights = diagonal_weights(states, density)
        assert np.array_equal(trajectory.populations, weights)
        assert np.array_equal(trajectory.norm_or_trace, weights.sum(axis=-1))
        if sim.model == "effective":
            controls = trajectory.controls
            dark = dark_state_overlaps(states, density, controls["omega_r"], controls["g"], basis)
            assert np.array_equal(trajectory.dark_overlap, dark, equal_nan=True)

    @LOSSES
    @pytest.mark.parametrize("start", [("g2", 0), ("g1", 3), ("e", 0), None])
    def test_any_initial_state_matches_the_lifted_states(self, start, dissipation):
        """|g2,0> keeps only itself, and closed |g1,3> neither |g1,0> nor
        |g2,1>; None is a seeded random state on every basis state."""
        basis = build_basis("effective", 3)
        if start is None:
            rng = np.random.default_rng(3)
            psi0 = rng.normal(size=basis.dimension) + 1j * rng.normal(size=basis.dimension)
            psi0 /= np.linalg.norm(psi0)
        else:
            psi0 = basis.state(*start)
        config = ModelConfig("effective", "tqd", PULSES, dissipation)
        grid = TimeGrid(-4.0, 4.0, 1e-2, stride=7)
        trajectory = propagate(linear_hamiltonian(config, basis), psi0, grid)
        states, density, controls = trajectory.states, trajectory.is_density, trajectory.controls
        assert np.array_equal(trajectory.populations, diagonal_weights(states, density))
        dark = dark_state_overlaps(states, density, controls["omega_r"], controls["g"], basis)
        assert np.array_equal(trajectory.dark_overlap, dark, equal_nan=True)


class TestRecordContract:
    """A run records the real coordinates of its state on the basis states
    it kept, and every coordinate of them."""

    @pytest.mark.parametrize("n_max", [1, 3])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_coordinates_are_those_of_the_state_on_the_kept_basis_states(self, name, n_max):
        """2k coordinates for a pure state, k^2 for a density matrix; the
        master equation steps 10 of its 16 and leaves the others zero."""
        sim = replace(resolve_preset(name), n_max=n_max, stride=7)
        basis = build_basis(sim.model, n_max)
        model = linear_hamiltonian(model_config(sim), basis)
        trajectory = propagate(model, basis.state("g1", 0), time_grid(sim))
        k = len(trajectory.kept)
        width = trajectory.coordinates.shape[1]
        assert width == (k * k if trajectory.is_density else 2 * k)
        if name.startswith("fig2f_"):
            assert width == 16
            assert np.count_nonzero(trajectory.coordinates.any(axis=0)) == 10

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_unit_matrices_have_the_unit_coordinates(self, dim):
        units = _unit_matrices(dim)
        assert np.array_equal(_coordinates(units), np.eye(dim * dim))
        parts = units.view(float)
        assert not np.signbit(parts[parts == 0.0]).any()


class TestRecordedControls:
    """The recorded controls are the stepper's control columns at the
    recorded steps, one for each channel that is on: half step 2k is at
    t_start + (dt/2)(2k), the same double as t_start + k dt, so they equal
    a schedule call at the recorded times bit for bit, and the schedule is
    evaluated once per half step."""

    @pytest.mark.parametrize("stride", [1, 3, 7, 10, 9000])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_controls_equal_the_schedule_at_the_recorded_times(self, name, stride):
        """9000 is a stride longer than the run: the first and last steps."""
        sim = replace(resolve_preset(name), stride=stride)
        basis = build_basis(sim.model, sim.n_max)
        model = linear_hamiltonian(model_config(sim), basis)
        grid = time_grid(sim)
        trajectory = propagate(model, basis.state("g1", 0), grid)
        expected = model.schedule.values(grid.time(grid.sample_steps))
        assert len(trajectory.times) == len(grid.sample_steps)
        assert tuple(trajectory.controls) == model.schedule.channels
        for channel, value in zip(model.schedule.channels, expected.T):
            assert np.array_equal(trajectory.controls[channel], value), channel

    @pytest.mark.parametrize("name", ["fig2_tqd", "fig2f_dissipative_tqd", "fig3_full"])
    def test_terms_are_paired_with_the_columns_by_channel(self, name):
        """A model whose terms are listed in another order runs the same."""
        sim = replace(resolve_preset(name), stride=100)
        basis = build_basis(sim.model, sim.n_max)
        model = linear_hamiltonian(model_config(sim), basis)
        reordered = replace(model, terms=dict(reversed(list(model.terms.items()))))
        grid, psi0 = time_grid(sim), basis.state("g1", 0)
        trajectory, expected = propagate(reordered, psi0, grid), propagate(model, psi0, grid)
        assert np.array_equal(trajectory.coordinates, expected.coordinates)
        assert tuple(trajectory.controls) == model.schedule.channels

    @pytest.mark.parametrize("stride", [1, 7, 9000])
    @pytest.mark.parametrize("name", ["fig2_stirap", "fig2f_dissipative_tqd", "fig3_full"])
    def test_each_half_step_is_evaluated_once(self, name, stride, monkeypatch):
        evaluated = []
        original = ControlSchedule.values

        def recording(schedule, t):
            evaluated.append(np.array(t, dtype=float, ndmin=1))
            return original(schedule, t)

        monkeypatch.setattr(ControlSchedule, "values", recording)
        sim = replace(resolve_preset(name), stride=stride)
        basis = build_basis(sim.model, sim.n_max)
        model = linear_hamiltonian(model_config(sim), basis)
        grid = time_grid(sim)
        propagate(model, basis.state("g1", 0), grid)
        times = np.concatenate(evaluated)
        half_steps = grid.t_start + (0.5 * grid.dt) * np.arange(2 * grid.n_steps + 1)
        assert np.array_equal(times, half_steps)


def embedded_density_stack(rng, support, dim, smallest):
    """Exactly Hermitian unit-trace matrices (S, dim, dim) that are zero
    outside the rows and columns ``support``; the block on it has the
    smallest eigenvalue smallest[s] in sample s."""
    r = len(support)
    stack = np.zeros((len(smallest), dim, dim), dtype=complex)
    for sample, lowest in zip(stack, smallest):
        spectrum = rng.uniform(0.1, 1.0, size=r)
        spectrum[0] = lowest
        spectrum[1:] *= (1.0 - lowest) / spectrum[1:].sum()
        unitary, _ = np.linalg.qr(rng.normal(size=(r, r)) + 1j * rng.normal(size=(r, r)))
        block = (unitary * spectrum) @ unitary.conj().T
        sample[np.ix_(support, support)] = 0.5 * (block + block.conj().T)
    return stack


def record_stack(model, grid, stack):
    """_record of density matrices (S, d, d) given in full at the grid's
    sample steps: their d^2 real coordinates, all kept, with the model's
    controls at those steps."""
    columns = model.schedule.values(grid.time(grid.sample_steps))
    return _record(model, grid, _coordinates(stack), columns, np.arange(stack.shape[-1]))


class TestNegativityCheck:
    """Density matrices with zero rows and columns outside a support, as
    the block on the kept basis states has where a state was never
    reached, get the verdict of their full spectrum."""

    # far enough from NEGATIVITY_LIMIT that rounding cannot move a verdict
    SMALLEST = [-1e-3, -1e-5, -3e-6, -5e-7, -1e-7, 0.0, 1e-7, 1e-3] * 70
    MODEL = linear_hamiltonian(
        ModelConfig("effective", "tqd", PULSES, Dissipation(1.0, 0.1)), BASIS
    )

    @pytest.mark.parametrize("support", [[0, 2], [1, 2, 4], [0, 3, 4, 5], list(range(6))])
    def test_verdicts_match_the_full_spectrum(self, support):
        rng = np.random.default_rng(len(support))
        stack = embedded_density_stack(rng, support, 6, self.SMALLEST)
        full = np.linalg.eigvalsh(stack)[:, 0] >= NEGATIVITY_LIMIT
        assert full.any() and not full.all()
        assert np.array_equal(_smallest_eigenvalues(stack) >= NEGATIVITY_LIMIT, full)

    def test_record_fails_at_the_first_negative_sample(self):
        rng = np.random.default_rng(3)
        smallest = [0.0, 1e-7, -5e-7, -3e-6, -1e-5]
        stack = embedded_density_stack(rng, [0, 1, 2, 3], 6, smallest)
        grid = TimeGrid(-1.0, 1.0, 0.5)
        first = int(np.argmax(np.linalg.eigvalsh(stack)[:, 0] < NEGATIVITY_LIMIT))
        assert first == 3
        message = f"negative eigenvalue .* at step {first}, t={grid.time(first):g};"
        with pytest.raises(IntegrationError, match=message):
            record_stack(self.MODEL, grid, stack)
        # the samples before it pass
        record_stack(self.MODEL, TimeGrid(-1.0, 0.0, 0.5), stack[:first])

    def test_nan_fails_the_trace_check_first(self):
        rng = np.random.default_rng(4)
        stack = embedded_density_stack(rng, [0, 1, 2, 3], 6, [0.0, 1e-3])
        stack[1, 4, 4] = np.nan
        with pytest.raises(IntegrationError, match="trace drifted to nan at step 1, t=1;"):
            record_stack(self.MODEL, TimeGrid(0.0, 1.0, 1.0), stack)

    @pytest.mark.parametrize("support", [[0, 2], [1, 2, 4], [0, 3, 4, 5], list(range(6))])
    def test_certificate_passes_and_fails_as_the_full_spectrum(self, support):
        """_record certifies the samples by an LDL^H factorization and
        diagonalizes only those that fail it: 600 samples at or above the
        limit pass, and one below it is named."""
        rng = np.random.default_rng(len(support))
        stack = embedded_density_stack(rng, support, 6, self.SMALLEST)
        smallest = np.linalg.eigvalsh(stack)[:, 0]
        passing = stack[smallest >= NEGATIVITY_LIMIT]
        samples = np.concatenate((passing, passing))[:600]
        grid = TimeGrid(0.0, 5.99, 0.01)
        record_stack(self.MODEL, grid, samples)
        closest = np.argmax(np.where(smallest < NEGATIVITY_LIMIT, smallest, -np.inf))
        assert smallest[closest] == pytest.approx(-3e-6, rel=1e-9)
        samples[530] = stack[closest]
        with pytest.raises(IntegrationError, match="eigenvalue -3.000e-06 at step 530, t=5.3;"):
            record_stack(self.MODEL, grid, samples)

    @pytest.mark.parametrize("lowest, fails", [(-1.01e-6, True), (-0.99e-6, False)])
    def test_last_of_8001_samples_just_past_the_limit(self, lowest, fails):
        """A stride-1 record's 8 001 samples, the last with its smallest
        eigenvalue 1 % below or above the limit, far outside the
        factorization's backward error of order k u."""
        rng = np.random.default_rng(6)
        stack = embedded_density_stack(rng, [0, 1, 2, 3], 6, [0.0, 1e-7, 1e-3, lowest])
        samples = stack[np.append(np.arange(8000) % 3, 3)]
        grid = TimeGrid(-4.0, 4.0, 1e-3)
        if not fails:
            record_stack(self.MODEL, grid, samples)
            return
        with pytest.raises(IntegrationError, match="eigenvalue -1.010e-06 at step 8000, t=4;"):
            record_stack(self.MODEL, grid, samples)

    @pytest.mark.parametrize("negative", [None, 4095, 4096, 8000])
    def test_samples_across_two_slices(self, negative):
        """8 001 samples are certified as 4 096 and 3 905.  The coherences
        with the third and fourth basis states are zero in every sample of
        the first slice and stepped in the second.  A sample past the limit
        is named as the last of the first slice, the first of the second,
        or the last of all."""
        rng = np.random.default_rng(9)
        narrow = embedded_density_stack(rng, [0, 1], 6, [0.0, 1e-3])
        wide = embedded_density_stack(rng, [0, 1, 2, 3], 6, [0.0, 1e-3, -3e-6])
        samples = np.concatenate((narrow[np.arange(4096) % 2], wide[np.arange(3905) % 2]))
        grid = TimeGrid(-4.0, 4.0, 1e-3)
        if negative is None:
            record_stack(self.MODEL, grid, samples)
            return
        samples[negative] = wide[2]
        message = f"eigenvalue -3.000e-06 at step {negative}, t={grid.time(negative):g};"
        with pytest.raises(IntegrationError, match=message):
            record_stack(self.MODEL, grid, samples)

    @pytest.mark.parametrize("lowest", [-1e-3, -1e-5, -3e-6, -5e-7, 0.0, 1e-7, 1e-3])
    @pytest.mark.parametrize("size", [4, 6])
    def test_fill_in_gets_the_verdict_of_the_full_spectrum(self, size, lowest):
        """An arrow matrix, whose coherences all involve the first basis
        state, fills in every other coherence at the first pivot, and the
        later pivots read that fill-in.  A multiple of I sets its smallest
        eigenvalue and keeps its pattern."""
        rng = np.random.default_rng(8)
        arrow = np.diag(rng.uniform(0.1, 1.0, size=size)).astype(complex)
        arrow[0, 1:] = rng.normal(size=size - 1) + 1j * rng.normal(size=size - 1)
        arrow[1:, 0] = arrow[0, 1:].conj()
        arrow += (lowest - np.linalg.eigvalsh(arrow)[0]) * np.eye(size)
        grid = TimeGrid(0.0, 1.0, 1.0)
        coordinates = _coordinates(np.array([arrow, arrow]))
        if np.linalg.eigvalsh(arrow)[0] >= NEGATIVITY_LIMIT:
            dynamics._check_positive(coordinates, size, grid.sample_steps, grid)
            return
        with pytest.raises(IntegrationError, match=f"eigenvalue {lowest:.3e} at step 0, t=0;"):
            dynamics._check_positive(coordinates, size, grid.sample_steps, grid)

    def test_a_failure_that_diagonalizes_above_the_limit_is_passed_over(self):
        """A diagonal entry exactly at the limit makes a zero pivot, which
        fails the certificate, but not an eigenvalue below the limit: the
        samples after it are still diagonalized, and the first one below
        the limit is named."""
        rng = np.random.default_rng(11)
        at_limit = np.diag([0.5, 0.5 - NEGATIVITY_LIMIT, NEGATIVITY_LIMIT, 0.0, 0.0, 0.0])
        fine, negative = embedded_density_stack(rng, [0, 1, 2, 3], 6, [1e-3, -3e-6])
        stack = np.array([at_limit, fine, at_limit, negative])
        assert not dynamics._certified(_coordinates(stack), 6)[[0, 2, 3]].any()
        with pytest.raises(IntegrationError, match="eigenvalue -3.000e-06 at step 3, t=3;"):
            record_stack(self.MODEL, TimeGrid(0.0, 3.0, 1.0), stack)

    @pytest.mark.parametrize("where", [(0, 2), (4, 5)], ids=["stepped", "outside_support"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_coherence_fails_at_its_sample(self, value, where):
        """A non-finite coherence leaves every trace at 1 and fails the
        certificate, whether its coherence is nonzero in the other samples
        or zero in all of them, as one never stepped is; its sample
        diagonalizes to NaN."""
        rng = np.random.default_rng(5)
        stack = embedded_density_stack(rng, [0, 1, 2, 3], 6, [0.0, 1e-3, 1e-3])
        stack[(1, *where)] = stack[(1, *where[::-1])] = value
        with pytest.raises(IntegrationError, match="negative eigenvalue nan at step 1, t=1;"):
            record_stack(self.MODEL, TimeGrid(0.0, 2.0, 1.0), stack)

    @pytest.mark.parametrize("stride", [1, 10])
    @pytest.mark.parametrize("n_max", [1, 3])
    def test_a_positive_run_is_never_diagonalized(self, n_max, stride, monkeypatch):
        """A positive run is certified without LAPACK: neither a Cholesky
        factorization nor a diagonalization is called."""

        def called(*args):
            raise AssertionError("a positive run called LAPACK")

        monkeypatch.setattr(dynamics, "_smallest_eigenvalues", called)
        monkeypatch.setattr(np.linalg, "cholesky", called)
        monkeypatch.setattr(np.linalg, "eigvalsh", called)
        sim = replace(resolve_preset("fig2f_dissipative_tqd"), n_max=n_max, stride=stride)
        basis = build_basis(sim.model, n_max)
        model = linear_hamiltonian(model_config(sim), basis)
        propagate(model, basis.state("g1", 0), time_grid(sim))


class TestMemory:
    @pytest.mark.parametrize("dissipative, n_max", [(False, 1), (False, 3), (True, 1), (True, 3)])
    def test_peak_allocation_does_not_grow_with_step_count(self, dissipative, n_max):
        basis = build_basis("effective", n_max)
        config = ModelConfig("effective", "tqd", PULSES, Dissipation(1.0, 0.1))
        psi0 = basis.state("g1", 0)

        def run(n_steps):
            # the same 11 recorded samples whatever the step count
            grid = TimeGrid(-4.0, 4.0, 8.0 / n_steps, stride=n_steps // 10)
            chosen = config if dissipative else replace(config, dissipation=Dissipation())
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

    @pytest.mark.parametrize("dissipative", [False, True])
    def test_peak_allocation_does_not_grow_with_stride(self, dissipative):
        """8 000 steps at the presets' stride of 10, in chunks of 71
        strides, and at a stride of 4 000 that spans several chunks."""
        config = ModelConfig("effective", "tqd", PULSES, Dissipation(1.0, 0.1))
        chosen = config if dissipative else replace(config, dissipation=Dissipation())
        model = linear_hamiltonian(chosen, BASIS)
        psi0 = BASIS.state("g1", 0)
        propagate(model, psi0, TimeGrid(-4.0, 4.0, 1e-3, stride=10))  # fill the caches
        peaks = []
        for stride in (10, 4000):
            grid = TimeGrid(-4.0, 4.0, 1e-3, stride=stride)
            tracemalloc.start()
            try:
                propagate(model, psi0, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]

    def test_unlifted_stride_one_peak_does_not_grow_with_n_max(self):
        """A stride-1 master-equation run records 10 real coordinates per
        sample at every n_max; states that are never read are never lifted
        to (8001, d, d) complex."""
        peaks = []
        for n_max in (1, 3):
            sim = replace(resolve_preset("fig2f_dissipative_tqd"), n_max=n_max, stride=1)
            basis = build_basis(sim.model, n_max)
            model = linear_hamiltonian(model_config(sim), basis)
            psi0, grid = basis.state("g1", 0), time_grid(sim)
            propagate(model, psi0, grid)  # fill the operator caches
            tracemalloc.start()
            try:
                propagate(model, psi0, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_full_support_peak_allocation_stays_at_its_bound(self):
        """A seeded random full-support state steps all r = d^2 = 144 real
        coordinates of the master equation at n_max = 3, the largest chunk
        matrices of any run here.  With 64-step chunks its peak was 65.5 MB on
        these 800 steps; a longer chunk at this r raises it severalfold."""
        assert self._full_support_peak(stride=80) <= 1.05 * 65.5e6

    def test_full_support_stride_one_peak_allocation_stays_at_its_bound(self):
        """As above, recording every step: the groups of the recurrence fit
        in the rows of the chunk."""
        assert self._full_support_peak(stride=1) <= 1.05 * 65.5e6

    def test_certificate_peak_does_not_grow_with_sample_count(self):
        """The positivity certificate of a record at a large kept support,
        k = 12, works on 4 096 samples at a time, so its peak on three
        slices' samples is that on one.  The samples are arrow matrices,
        whose first pivot fills in every other coherence."""
        rng = np.random.default_rng(10)
        arrows = np.zeros((7, 12, 12), dtype=complex)
        for arrow in arrows:
            arrow[0, 1:] = 0.1 * (rng.normal(size=11) + 1j * rng.normal(size=11))
            arrow += arrow.conj().T + np.diag(rng.uniform(0.5, 1.0, size=12))
            arrow += (0.1 - np.linalg.eigvalsh(arrow)[0]) * np.eye(12)
        peaks = []
        for count in (4096, 3 * 4096):
            coordinates = _coordinates(arrows[np.arange(count) % 7])
            grid = TimeGrid(0.0, count - 1.0, 1.0)
            tracemalloc.start()
            try:
                dynamics._check_positive(coordinates, 12, grid.sample_steps, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0]

    @staticmethod
    def _full_support_peak(stride):
        basis = build_basis("effective", 3)
        d = basis.dimension
        model = linear_hamiltonian(
            ModelConfig("effective", "tqd", PULSES, Dissipation(1.0, 0.1)), basis
        )
        rng = np.random.default_rng(7)
        psi0 = rng.normal(size=d) + 1j * rng.normal(size=d)
        psi0 /= np.linalg.norm(psi0)
        grid = TimeGrid(-4.0, 4.0, 8.0 / 800, stride=stride)
        propagate(model, psi0, grid)  # fill the operator caches
        tracemalloc.start()
        try:
            propagate(model, psi0, grid)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
