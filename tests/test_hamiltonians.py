from dataclasses import replace

import numpy as np
import pytest

from cavityfock import (
    Dissipation,
    ModelConfig,
    ModelMismatchError,
    ParameterDomainError,
    PulseParameters,
    analytic_eigensystem,
    build_basis,
    bound_hamiltonian,
    counterdiabatic_amplitude,
    jump_operators,
    ladder_operators,
    linear_hamiltonian,
    physical_pulse_pair,
    stirap_pair,
    transition_operator,
)

from oracles import generic_counterdiabatic, single_excitation_matrix

PULSES = PulseParameters(omega0=2.0)

EFFECTIVE_STIRAP = ModelConfig("effective", "stirap", PULSES)
EFFECTIVE_TQD = ModelConfig("effective", "tqd", PULSES)
FULL_TQD = ModelConfig("full", "tqd", PULSES)

EFFECTIVE_BASIS = build_basis("effective", 1)
FULL_BASIS = build_basis("full", 1)


def hamiltonian_at(config, basis, t, include_decay=False):
    return bound_hamiltonian(config, basis, include_decay)(t)


def _hermiticity_defect(h):
    scale = max(np.max(np.abs(h)), 1.0)
    return np.max(np.abs(h - h.conj().T)) / scale


class TestFullHamiltonian:
    def test_bare_detunings_on_diagonal(self):
        config = ModelConfig("full", "stirap", PulseParameters(omega0=0.0, delta_m=18.0))
        h = hamiltonian_at(config, FULL_BASIS, 0.0)
        expected = np.zeros(8)
        for n in (0, 1):
            expected[FULL_BASIS.index("e", n)] = 1.0
            expected[FULL_BASIS.index("em", n)] = 18.0
        assert np.array_equal(np.real(np.diagonal(h)), expected)
        assert np.count_nonzero(h - np.diag(np.diagonal(h))) == 0

    def test_pump_matrix_element(self):
        for t in (-1.0, 0.0, 0.7):
            h = hamiltonian_at(FULL_TQD, FULL_BASIS, t)
            omega_r, _ = stirap_pair(PULSES, t)
            assert h[FULL_BASIS.index("e", 0), FULL_BASIS.index("g1", 0)] == omega_r

    def test_cavity_matrix_element(self):
        for t in (-0.5, 0.25):
            h = hamiltonian_at(FULL_TQD, FULL_BASIS, t)
            _, g = stirap_pair(PULSES, t)
            assert h[FULL_BASIS.index("e", 0), FULL_BASIS.index("g2", 1)] == g

    def test_auxiliary_pump_is_in_quadrature(self):
        t = 0.3
        h = hamiltonian_at(FULL_TQD, FULL_BASIS, t)
        g_m, omega_m = physical_pulse_pair(PULSES, t)
        assert h[FULL_BASIS.index("em", 0), FULL_BASIS.index("g1", 0)] == 1j * omega_m
        assert h[FULL_BASIS.index("em", 0), FULL_BASIS.index("g2", 1)] == g_m

    def test_hermitian_at_sampled_times(self):
        for t in np.linspace(-4.0, 4.0, 17):
            assert _hermiticity_defect(hamiltonian_at(FULL_TQD, FULL_BASIS, t)) <= 1e-12

    def test_model_mismatch_raises(self):
        with pytest.raises(ModelMismatchError):
            hamiltonian_at(EFFECTIVE_TQD, FULL_BASIS, 0.0)
        with pytest.raises(ModelMismatchError):
            hamiltonian_at(FULL_TQD, EFFECTIVE_BASIS, 0.0)


class TestEffectiveHamiltonian:
    def test_stirap_drive_is_bare_transfer_hamiltonian(self):
        t = -0.8
        h = hamiltonian_at(EFFECTIVE_STIRAP, EFFECTIVE_BASIS, t)
        omega_r, g = stirap_pair(PULSES, t)
        a, _ = ladder_operators(EFFECTIVE_BASIS)
        s1_dag = transition_operator(EFFECTIVE_BASIS, "e", "g1")
        s2_dag_a = transition_operator(EFFECTIVE_BASIS, "e", "g2") @ a
        manual = (
            PULSES.delta * transition_operator(EFFECTIVE_BASIS, "e", "e")
            + omega_r * (s1_dag + s1_dag.conj().T)
            + g * (s2_dag_a + s2_dag_a.conj().T)
        )
        assert np.allclose(h, manual, atol=1e-15)
        assert h[EFFECTIVE_BASIS.index("g1", 0), EFFECTIVE_BASIS.index("g2", 1)] == 0.0

    def test_correction_block_peaks_at_unit_rate(self):
        h = hamiltonian_at(EFFECTIVE_TQD, EFFECTIVE_BASIS, 0.0)
        coupling = h[EFFECTIVE_BASIS.index("g1", 0), EFFECTIVE_BASIS.index("g2", 1)]
        assert abs(coupling) == pytest.approx(1.0, rel=1e-14)
        assert coupling == 1j * counterdiabatic_amplitude(PULSES, 0.0)

    def test_correction_leaves_excited_level_alone(self):
        for t in (-1.0, 0.0, 1.5):
            delta_h = hamiltonian_at(
                EFFECTIVE_TQD, EFFECTIVE_BASIS, t
            ) - hamiltonian_at(EFFECTIVE_STIRAP, EFFECTIVE_BASIS, t)
            for n in (0, 1):
                row = EFFECTIVE_BASIS.index("e", n)
                assert np.linalg.norm(delta_h[row, :]) == 0.0
                assert np.linalg.norm(delta_h[:, row]) == 0.0

    def test_hermitian_at_sampled_times(self):
        for t in np.linspace(-4.0, 4.0, 17):
            h = hamiltonian_at(EFFECTIVE_TQD, EFFECTIVE_BASIS, t)
            assert _hermiticity_defect(h) <= 1e-12

    def test_model_mismatch_raises(self):
        with pytest.raises(ModelMismatchError):
            hamiltonian_at(EFFECTIVE_TQD, FULL_BASIS, 0.0)
        with pytest.raises(ModelMismatchError):
            hamiltonian_at(EFFECTIVE_STIRAP, build_basis("full", 2), 0.0)


def effective_raman_coupling(omega_m, g_m, delta_m):
    """Far-detuned Raman coupling of the auxiliary pair through |em>."""
    return omega_m * g_m / delta_m


class TestEffectiveRamanCoupling:
    def test_auxiliary_pulses_realize_peak_correction(self):
        g_m, omega_m = physical_pulse_pair(PULSES, 0.0)
        value = effective_raman_coupling(omega_m, g_m, PULSES.delta_m)
        assert value == pytest.approx(counterdiabatic_amplitude(PULSES, 0.0), rel=1e-13)


class TestLinearHamiltonian:
    @pytest.mark.parametrize(
        "config, channels",
        [(EFFECTIVE_TQD, ("omega_r", "g")), (EFFECTIVE_STIRAP, ("omega_r", "g", "omega1"))],
        ids=["missing", "extra"],
    )
    def test_terms_must_be_the_schedule_channels(self, config, channels):
        """A model whose terms lack a channel that is on, or hold one that
        is off, is rejected when it is built, not in the stepper."""
        model = linear_hamiltonian(config, EFFECTIVE_BASIS)
        terms = {channel: np.eye(EFFECTIVE_BASIS.dimension) for channel in channels}
        with pytest.raises(ModelMismatchError, match="terms"):
            replace(model, terms=terms)

    def test_terms_may_be_listed_in_any_order(self):
        model = linear_hamiltonian(EFFECTIVE_TQD, EFFECTIVE_BASIS)
        reordered = replace(model, terms=dict(reversed(list(model.terms.items()))))
        assert tuple(reordered.terms) == ("omega1", "g", "omega_r")


class TestModelConfig:
    @pytest.mark.parametrize("pulses", [None, (2.0, 0.5, 0.5)], ids=["None", "tuple"])
    def test_pulses_must_be_pulse_parameters(self, pulses):
        """Rejected when the configuration is built, not at first use."""
        with pytest.raises(ParameterDomainError, match="pulses must be a PulseParameters"):
            ModelConfig("effective", "tqd", pulses)


class TestDissipation:
    @pytest.mark.parametrize("name", ["gamma", "kappa"])
    @pytest.mark.parametrize(
        "value", [True, False, "2", None, 2j], ids=["True", "False", "str", "None", "complex"]
    )
    def test_rejects_rates_that_are_not_real_numbers(self, name, value):
        """A bool is not taken as 1.0 or 0.0, and text fails typed."""
        with pytest.raises(ParameterDomainError, match=f"{name} must be a real number"):
            Dissipation(**{name: value})

    def test_takes_integers_and_numpy_reals(self):
        assert Dissipation(5, np.float64(0.05)) == Dissipation(5.0, 0.05)


class TestDissipativeHamiltonian:
    @pytest.mark.parametrize("dissipation", [None, (5.0, 0.05)], ids=["None", "tuple"])
    def test_rates_must_be_a_dissipation(self, dissipation):
        with pytest.raises(ParameterDomainError, match="dissipation must be a Dissipation"):
            ModelConfig("effective", "tqd", PULSES, dissipation)

    def test_zero_rates_reduce_to_effective(self):
        config = ModelConfig("effective", "tqd", PULSES, Dissipation(0.0, 0.0))
        h = hamiltonian_at(config, EFFECTIVE_BASIS, 0.4, include_decay=True)
        assert np.array_equal(h, hamiltonian_at(config, EFFECTIVE_BASIS, 0.4))

    def test_decay_terms_on_diagonal(self):
        config = ModelConfig("effective", "stirap", PULSES, Dissipation(5.0, 0.05))
        h = hamiltonian_at(config, EFFECTIVE_BASIS, 0.0, include_decay=True)
        e0 = EFFECTIVE_BASIS.index("e", 0)
        g21 = EFFECTIVE_BASIS.index("g2", 1)
        assert h[e0, e0] == PULSES.delta - 2.5j
        assert h[g21, g21] == -0.025j


class TestJumpOperators:
    def test_none_without_dissipation(self):
        """ModelConfig's default rates are zero, and give no jumps."""
        for config, basis in ((EFFECTIVE_TQD, EFFECTIVE_BASIS), (FULL_TQD, FULL_BASIS)):
            assert config.dissipation == Dissipation(0.0, 0.0)
            assert jump_operators(config, basis) == ()
            assert linear_hamiltonian(config, basis).jumps == ()

    @pytest.mark.parametrize(
        "dissipation, expected",
        [
            (Dissipation(5.0, 0.05), ["a", "g1", "g2"]),
            (Dissipation(5.0, 0.0), ["g1", "g2"]),
            (Dissipation(0.0, 0.05), ["a"]),
            (Dissipation(0.0, 0.0), []),
        ],
    )
    @pytest.mark.parametrize("model", ["effective", "full"])
    def test_cavity_loss_and_both_emission_branches(self, model, dissipation, expected):
        """Either model takes the same jumps, and a zero rate adds none."""
        basis = build_basis(model, 1)
        config = ModelConfig(model, "tqd", PULSES, dissipation)
        a, _ = ladder_operators(basis)
        every = {
            "a": (dissipation.kappa, a),
            "g1": (dissipation.gamma / 2, transition_operator(basis, "e", "g1").conj().T),
            "g2": (dissipation.gamma / 2, transition_operator(basis, "e", "g2").conj().T),
        }
        for jumps in (jump_operators(config, basis), linear_hamiltonian(config, basis).jumps):
            assert [rate for rate, _ in jumps] == [every[name][0] for name in expected]
            for (_, op), name in zip(jumps, expected):
                assert np.array_equal(op, every[name][1])

    def test_decay_terms_match_jumps_so_trace_is_preserved(self):
        """d tr(rho)/dt = 0 for any rho: the decay terms of H' balance the
        jump terms, checked for a random density matrix at n_max = 3."""
        basis = build_basis("effective", 3)
        config = ModelConfig("effective", "tqd", PULSES, Dissipation(1.3, 0.7))
        rng = np.random.default_rng(21)
        shape = (basis.dimension, basis.dimension)
        raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        rho = raw @ raw.conj().T
        rho /= np.trace(rho)
        h = bound_hamiltonian(config, basis, include_decay=True)(0.3)
        rhs = -1j * (h @ rho - rho @ h.conj().T)
        for rate, op in jump_operators(config, basis):
            rhs += rate * (op @ rho @ op.conj().T)
        assert abs(np.trace(rhs)) <= 1e-14


class TestSpectralProperties:
    def test_single_excitation_block_has_analytic_spectrum(self):
        idx = [
            EFFECTIVE_BASIS.index("g1", 0),
            EFFECTIVE_BASIS.index("e", 0),
            EFFECTIVE_BASIS.index("g2", 1),
        ]
        for t in np.linspace(-3.0, 3.0, 13):
            h = hamiltonian_at(EFFECTIVE_STIRAP, EFFECTIVE_BASIS, t)
            block = h[np.ix_(idx, idx)]
            numeric = np.linalg.eigvalsh(block)
            omega_r, g = stirap_pair(PULSES, t)
            eig = analytic_eigensystem(omega_r, g, PULSES.delta)
            expected = np.sort(eig.eigenvalues)
            scale = max(1.0, np.max(np.abs(expected)))
            assert np.max(np.abs(numeric - expected)) <= 1e-10 * scale

    def test_correction_block_matches_generic_construction(self):
        def transfer(t):
            omega_r, g = stirap_pair(PULSES, t)
            return single_excitation_matrix(omega_r, g, PULSES.delta)

        for t in np.linspace(-2.5, 2.5, 11):
            h1 = generic_counterdiabatic(transfer, t, 1e-6)
            h = hamiltonian_at(EFFECTIVE_TQD, EFFECTIVE_BASIS, t)
            block = h[EFFECTIVE_BASIS.index("g1", 0), EFFECTIVE_BASIS.index("g2", 1)]
            assert abs(h1[0, 2] - block) <= 1e-6 * abs(block)
