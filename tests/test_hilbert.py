import math

import numpy as np
import pytest

from cavityfock import (
    ModelMismatchError,
    ParameterDomainError,
    ProductBasis,
    analytic_eigensystem,
    build_basis,
    ladder_operators,
    number_operator,
    transition_operator,
)

from oracles import single_excitation_matrix


class TestBuildBasis:
    @pytest.mark.parametrize(
        "model,n_max,dimension",
        [("effective", 1, 6), ("full", 1, 8), ("effective", 3, 12), ("effective", 10, 33)],
    )
    def test_dimensions(self, model, n_max, dimension):
        assert build_basis(model, n_max).dimension == dimension

    @pytest.mark.parametrize("n_max", [0, 11])
    def test_rejects_n_max_outside_range(self, n_max):
        with pytest.raises(ParameterDomainError, match="n_max must be in 1..10"):
            build_basis("effective", n_max)

    @pytest.mark.parametrize("n_max", [1.5, 2.0, True], ids=["1.5", "2.0", "True"])
    def test_rejects_n_max_that_is_not_an_integer(self, n_max):
        """A float, even a whole one, and a bool are no integer cutoff."""
        with pytest.raises(ParameterDomainError, match="n_max must be an integer"):
            build_basis("effective", n_max)

    def test_rejects_unknown_model(self):
        with pytest.raises(ParameterDomainError):
            build_basis("bogus", 1)

    def test_rejects_a_model_name_that_is_not_a_string(self):
        with pytest.raises(ParameterDomainError, match="unknown model"):
            build_basis(["x"], 1)

    @pytest.mark.parametrize(
        "n_max, message",
        [
            (2.0, "an integer"),
            (1.5, "an integer"),
            (True, "an integer"),
            (0, "in 1..10"),
            (11, "in 1..10"),
        ],
        ids=["2.0", "1.5", "True", "0", "11"],
    )
    def test_the_dataclass_checks_its_own_n_max(self, n_max, message):
        """The exported ProductBasis rejects what build_basis rejects, so
        that no basis has a float dimension such as 9.0."""
        with pytest.raises(ParameterDomainError, match=f"n_max must be {message}"):
            ProductBasis(("g1", "e", "g2"), n_max)


class TestIndexing:
    def test_index_map_is_a_bijection(self):
        basis = build_basis("full", 3)
        indices = [basis.index(level, n) for level, n in basis.labels()]
        assert sorted(indices) == list(range(basis.dimension))

    def test_state_vectors_are_unit_basis_vectors(self):
        basis = build_basis("effective", 1)
        for level, n in basis.labels():
            vec = basis.state(level, n)
            assert np.linalg.norm(vec) == 1.0
            assert vec[basis.index(level, n)] == 1.0

    def test_bad_level_and_occupation_raise(self):
        basis = build_basis("effective", 1)
        with pytest.raises(ModelMismatchError):
            basis.index("em", 0)
        with pytest.raises(ParameterDomainError):
            basis.index("g1", 2)


class TestLadderOperators:
    def test_annihilation_lowers_one_photon(self):
        basis = build_basis("effective", 1)
        a, _ = ladder_operators(basis)
        lowered = a @ basis.state("g2", 1)
        assert lowered[basis.index("g2", 0)] == 1.0
        assert np.linalg.norm(lowered) == 1.0

    def test_annihilation_kills_vacuum(self):
        basis = build_basis("full", 2)
        a, _ = ladder_operators(basis)
        for level in basis.levels:
            assert np.linalg.norm(a @ basis.state(level, 0)) == 0.0

    def test_number_operator_counts_photons(self):
        basis = build_basis("effective", 3)
        n_op = number_operator(basis)
        diag = np.real(np.diagonal(n_op))
        for level, n in basis.labels():
            assert diag[basis.index(level, n)] == float(n)

    def test_matrix_elements_are_exact_roots(self):
        basis = build_basis("effective", 3)
        a, a_dag = ladder_operators(basis)
        for level in basis.levels:
            for n in range(1, basis.n_fock):
                row = basis.index(level, n - 1)
                col = basis.index(level, n)
                assert a[row, col] == math.sqrt(n)
        assert np.array_equal(a_dag, a.conj().T)

    def test_commutator_is_identity_below_truncation(self):
        basis = build_basis("effective", 3)
        a, a_dag = ladder_operators(basis)
        comm = a @ a_dag - a_dag @ a
        for level, n in basis.labels():
            i = basis.index(level, n)
            expected = 1.0 if n < basis.n_max else -float(basis.n_max)
            assert comm[i, i] == pytest.approx(expected, abs=1e-12)
        assert np.count_nonzero(comm - np.diag(np.diagonal(comm))) == 0


class TestTransitionOperator:
    def test_pump_raising_definition(self):
        basis = build_basis("effective", 1)
        s1_dag = transition_operator(basis, "e", "g1")
        raised = s1_dag @ basis.state("g1", 0)
        assert raised[basis.index("e", 0)] == 1.0

    def test_raising_preserves_photon_number(self):
        basis = build_basis("effective", 1)
        s2_dag = transition_operator(basis, "e", "g2")
        raised = s2_dag @ basis.state("g2", 1)
        assert raised[basis.index("e", 1)] == 1.0

    def test_wrong_source_level_gives_zero(self):
        basis = build_basis("effective", 1)
        s1_dag = transition_operator(basis, "e", "g1")
        assert np.linalg.norm(s1_dag @ basis.state("g2", 0)) == 0.0

    def test_auxiliary_level_needs_full_model(self):
        basis = build_basis("effective", 1)
        with pytest.raises(ModelMismatchError):
            transition_operator(basis, "em", "g1")
        full = build_basis("full", 1)
        f2_dag = transition_operator(full, "em", "g2")
        assert (f2_dag @ full.state("g2", 1))[full.index("em", 1)] == 1.0

    def test_unknown_name_raises(self):
        with pytest.raises(ModelMismatchError):
            transition_operator(build_basis("full", 1), "e3", "g1")


class TestAnalyticEigensystem:
    def test_equal_couplings_give_balanced_dark_state(self):
        eig = analytic_eigensystem(1.0, 1.0, 0.3)
        assert eig.theta == pytest.approx(math.pi / 4)
        assert abs(eig.dark[0]) == pytest.approx(abs(eig.dark[2]))
        assert eig.dark[1] == 0.0

    def test_eigenvalues_against_numerical_diagonalization(self):
        """Oracle: dense diagonalization of the 3x3 transfer Hamiltonian."""
        eig = analytic_eigensystem(1.0, 1.0, 1.0)
        numeric = np.linalg.eigvalsh(single_excitation_matrix(1.0, 1.0, 1.0))
        assert sorted(eig.eigenvalues) == pytest.approx(list(numeric), abs=1e-12)
        # frozen values computed from the oracle
        assert sorted(eig.eigenvalues) == pytest.approx([-1.0, 0.0, 2.0], abs=1e-12)

    def test_pump_off_limit(self):
        eig = analytic_eigensystem(0.0, 1.0, 0.5)
        assert eig.theta == 0.0
        assert np.allclose(eig.dark, [1.0, 0.0, 0.0])

    def test_no_drive_raises(self):
        with pytest.raises(ParameterDomainError):
            analytic_eigensystem(0.0, 0.0, 1.0)

    def test_random_triples_match_numerical_diagonalization(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            omega_r = rng.uniform(0.05, 5.0)
            g = rng.uniform(0.05, 5.0)
            delta = rng.uniform(-5.0, 5.0)
            eig = analytic_eigensystem(omega_r, g, delta)
            h0 = single_excitation_matrix(omega_r, g, delta)

            evals, evecs = np.linalg.eigh(h0)
            order = np.argsort(eig.eigenvalues)
            analytic_vectors = [eig.dark, eig.bright_upper, eig.bright_lower]
            for rank, idx in enumerate(order):
                assert abs(eig.eigenvalues[idx] - evals[rank]) <= 1e-10
                numeric = evecs[:, rank]
                analytic = analytic_vectors[idx]
                overlap = np.vdot(numeric, analytic)
                residual = analytic - (overlap / abs(overlap)) * numeric
                assert np.linalg.norm(residual) <= 1e-10

            assert np.linalg.norm(h0 @ eig.dark) <= 1e-10

    def test_vectors_orthonormal(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            eig = analytic_eigensystem(
                rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0), rng.uniform(-3.0, 3.0)
            )
            matrix = np.column_stack([eig.dark, eig.bright_upper, eig.bright_lower])
            gram = matrix.conj().T @ matrix
            assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
