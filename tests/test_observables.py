import numpy as np
import pytest

from cavityfock import (
    analytic_eigensystem,
    build_basis,
    number_operator,
    populations,
)
from cavityfock.observables import diagonal_weights, photon_statistics

from oracles import dark_state_overlaps

BASIS = build_basis("effective", 1)


def _density(diagonal):
    return np.diag(np.asarray(diagonal, dtype=complex))


def _placed(vector):
    """A vector on (|g1,0>, |e,0>, |g2,1>), as analytic_eigensystem gives
    it, placed in BASIS."""
    state = np.zeros(BASIS.dimension, dtype=complex)
    state[[BASIS.index("g1", 0), BASIS.index("e", 0), BASIS.index("g2", 1)]] = vector
    return state


def _dark_overlap(state, omega_r, g):
    """dark_state_overlaps of a stack of one state."""
    omega_r, g = np.array([omega_r]), np.array([g])
    return dark_state_overlaps(state[np.newaxis], state.ndim == 2, omega_r, g, BASIS)[0]


class TestPopulations:
    def test_basis_state(self):
        pops = populations(BASIS.state("g1", 0), BASIS)
        assert pops[("g1", 0)] == 1.0
        assert sum(pops.values()) == 1.0

    def test_even_superposition(self):
        psi = (BASIS.state("g1", 0) + BASIS.state("g2", 1)) / np.sqrt(2.0)
        pops = populations(psi, BASIS)
        assert pops[("g1", 0)] == pytest.approx(0.5, rel=1e-15)
        assert pops[("g2", 1)] == pytest.approx(0.5, rel=1e-15)

    def test_sum_matches_norm_for_random_states(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            psi = rng.normal(size=BASIS.dimension) + 1j * rng.normal(size=BASIS.dimension)
            psi /= np.linalg.norm(psi)
            pops = populations(psi, BASIS)
            assert all(p >= 0.0 for p in pops.values())
            assert sum(pops.values()) == pytest.approx(np.vdot(psi, psi).real, abs=1e-12)

    def test_density_matrix_diagonal(self):
        rho = _density([0.25, 0.0, 0.0, 0.0, 0.0, 0.75])
        pops = populations(rho, BASIS)
        assert pops[("g1", 0)] == 0.25
        assert pops[("g2", 1)] == 0.75


class TestMeanPhotonNumber:
    def test_one_photon_state(self):
        n_mean, _q = photon_statistics(diagonal_weights(BASIS.state("g2", 1), False), BASIS)
        assert n_mean == 1.0

    def test_vacuum_sector(self):
        states = np.array([BASIS.state(level, 0) for level in BASIS.levels])
        n_mean, _q = photon_statistics(diagonal_weights(states, False), BASIS)
        assert np.all(n_mean == 0.0)

    def test_equals_one_photon_population_in_single_excitation_manifold(self):
        rng = np.random.default_rng(9)
        idx = [BASIS.index("g1", 0), BASIS.index("e", 0), BASIS.index("g2", 1)]
        for _ in range(25):
            psi = np.zeros(BASIS.dimension, dtype=complex)
            amps = rng.normal(size=3) + 1j * rng.normal(size=3)
            amps /= np.linalg.norm(amps)
            psi[idx] = amps
            expected = populations(psi, BASIS)[("g2", 1)]
            n_mean, _q = photon_statistics(diagonal_weights(psi, False), BASIS)
            assert n_mean == pytest.approx(expected, abs=1e-12)


class TestMandelQ:
    def test_one_photon_fock_state(self):
        _n, q = photon_statistics(diagonal_weights(BASIS.state("g2", 1), False), BASIS)
        assert q == pytest.approx(-1.0, abs=1e-12)

    def test_vacuum_is_undefined(self):
        _n, q = photon_statistics(diagonal_weights(BASIS.state("g1", 0), False), BASIS)
        assert np.isnan(q)

    def test_even_mixture_from_hand_computed_moments(self):
        # <n> = 0.5, <n^2> = 0.5  ->  Q = -1 + 0.25/0.5 = -0.5
        rho = _density([0.5, 0.0, 0.0, 0.0, 0.0, 0.5])
        _n, q = photon_statistics(diagonal_weights(rho, True), BASIS)
        assert q == pytest.approx(-0.5, abs=1e-12)

    def test_bounded_below_when_defined(self):
        rng = np.random.default_rng(10)
        basis = build_basis("effective", 3)
        weights = rng.uniform(0.0, 1.0, size=(30, basis.dimension))
        rho = np.array([_density(row / row.sum()) for row in weights])
        _n, q = photon_statistics(diagonal_weights(rho, True), basis)
        assert np.all(q >= -1.0)  # NaN fails it


class TestDarkStateOverlap:
    def test_dark_state_itself(self):
        psi = _placed(analytic_eigensystem(1.5, 0.7, 1.0).dark)
        assert _dark_overlap(psi, 1.5, 0.7) == pytest.approx(1.0, rel=1e-14)

    def test_bright_state_is_orthogonal(self):
        psi = _placed(analytic_eigensystem(1.5, 0.7, 1.0).bright_upper)
        assert _dark_overlap(psi, 1.5, 0.7) == pytest.approx(0.0, abs=1e-14)

    def test_density_matrix_form(self):
        eig = analytic_eigensystem(2.0, 1.0, 0.5)
        dark, bright = _placed(eig.dark), _placed(eig.bright_lower)
        rho = 0.7 * np.outer(dark, dark.conj()) + 0.3 * np.outer(bright, bright.conj())
        assert _dark_overlap(rho, 2.0, 1.0) == pytest.approx(0.7, rel=1e-12)


class TestColumnar:
    """The stacked forms used for trajectories agree with single-state
    references, on pure states and on density matrices."""

    @staticmethod
    def _stacks(basis, rng, count):
        pure = rng.normal(size=(count, basis.dimension)) + 1j * rng.normal(
            size=(count, basis.dimension)
        )
        pure[0] = basis.state("g1", 0)  # empty cavity: Q undefined
        pure /= np.linalg.norm(pure, axis=1, keepdims=True)
        mixed = np.einsum("si,sj->sij", pure, pure.conj())
        mixed[1:] = 0.6 * mixed[1:] + 0.4 * mixed[:0:-1]
        return {False: pure, True: mixed}

    @pytest.mark.parametrize("density", [False, True])
    def test_dark_state_overlaps_match_single_state(self, density):
        rng = np.random.default_rng(14)
        states = self._stacks(BASIS, rng, 12)[density]
        omega_r = rng.uniform(0.0, 3.0, size=12)
        g = rng.uniform(0.0, 3.0, size=12)
        omega_r[3] = 0.0
        omega_r[5] = g[5] = 0.0  # no field: the dark state is undefined
        overlaps = dark_state_overlaps(states, density, omega_r, g, BASIS)
        for state, w_r, w_g, overlap in zip(states, omega_r, g, overlaps):
            if w_r == 0.0 and w_g == 0.0:
                assert np.isnan(overlap)
            else:
                dark = _placed(analytic_eigensystem(w_r, w_g, 1.0).dark)
                if density:
                    expected = np.vdot(dark, state @ dark).real
                else:
                    expected = abs(np.vdot(dark, state)) ** 2
                assert overlap == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("density", [False, True])
    def test_photon_statistics_match_single_state(self, density):
        basis = build_basis("effective", 3)
        rng = np.random.default_rng(15)
        states = self._stacks(basis, rng, 9)[density]
        n_mean, q = photon_statistics(diagonal_weights(states, density), basis)
        assert np.isnan(q[0])
        number = number_operator(basis)
        for state, n_one, q_one in zip(states, n_mean, q):
            # <n> and <n^2> as operator expectations, not from the diagonal
            rho = state if density else np.outer(state, state.conj())
            expected_n = np.trace(number @ rho).real
            expected_n2 = np.trace(number @ number @ rho).real
            assert n_one == pytest.approx(expected_n, abs=1e-15)
            if expected_n < 1e-12:
                assert np.isnan(q_one)
            else:
                expected_q = -1.0 + (expected_n2 - expected_n**2) / expected_n
                assert q_one == pytest.approx(expected_q, rel=1e-12)
