"""Independent references that only the tests compare the package against.

* ``generic_counterdiabatic``: the correction term of any Hermitian schedule,
  built numerically, the oracle for the closed-form correction amplitude;
* ``single_excitation_matrix``: the transfer Hamiltonian on the
  single-excitation subspace, the oracle for the analytic eigensystem;
* ``dark_state_overlaps``: the dark-state population of a stack of full
  states, the bit-for-bit reference of ``dynamics._dark_overlaps``, which
  computes it from the recorded coordinates;
* ``em_residual``: the largest population of the level em, summed over n,
  of a full-model trajectory.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from cavityfock.errors import CavityFockError, ParameterDomainError
from cavityfock.hilbert import ProductBasis

# Minimum eigenvalue gap, relative to the spectral norm, below which
# generic_counterdiabatic refuses to divide by level spacings.
DEGENERACY_RTOL = 1e-9


class DegenerateSpectrumError(CavityFockError):
    """Spectrum too close to degenerate for eigenvector differencing."""


def generic_counterdiabatic(
    hamiltonian: Callable[[float], np.ndarray], t: float, dt: float
) -> np.ndarray:
    """Numerical correction term i * sum_n |d/dt lambda_n><lambda_n|.

    The schedule is differentiated by a central difference of the Hamiltonian
    itself over [t - dt/2, t + dt/2]; the eigenvector derivatives then follow
    from first-order perturbation theory in the instantaneous eigenbasis,

        <lambda_m | d/dt lambda_n> = <lambda_m| dH/dt |lambda_n> / (E_n - E_m),

    which fixes the gauge without any explicit eigenvector phase alignment
    and keeps the eigensolver's rounding noise from being amplified by 1/dt.
    The diagonal (pure re-phasing) part never enters, and the result is
    symmetrized so it is Hermitian by construction.

    Raises DegenerateSpectrumError when the smallest eigenvalue gap at t is
    below DEGENERACY_RTOL times the spectral norm.
    """
    if dt <= 0:
        raise ParameterDomainError(f"dt must be positive, got {dt}")
    h_mid = np.asarray(hamiltonian(t), dtype=complex)
    evals, vecs = np.linalg.eigh(h_mid)
    if evals.size > 1:
        gap = float(np.min(np.diff(evals)))
        scale = float(np.max(np.abs(evals)))
        if gap <= 0.0 or gap < DEGENERACY_RTOL * scale:
            raise DegenerateSpectrumError(
                f"eigenvalue gap {gap:.3e} below "
                f"{DEGENERACY_RTOL:g} * ||H|| = {DEGENERACY_RTOL * scale:.3e} "
                f"at t = {t}"
            )
    h_plus = np.asarray(hamiltonian(t + 0.5 * dt), dtype=complex)
    h_minus = np.asarray(hamiltonian(t - 0.5 * dt), dtype=complex)
    h_dot = (h_plus - h_minus) / dt
    h_dot = 0.5 * (h_dot + h_dot.conj().T)
    coupling = vecs.conj().T @ h_dot @ vecs
    denom = evals[np.newaxis, :] - evals[:, np.newaxis]  # E_n - E_m at (m, n)
    np.fill_diagonal(denom, 1.0)  # diagonal is zeroed below, value irrelevant
    in_eigenbasis = 1j * coupling / denom
    np.fill_diagonal(in_eigenbasis, 0.0)
    h1 = vecs @ in_eigenbasis @ vecs.conj().T
    return 0.5 * (h1 + h1.conj().T)


def single_excitation_matrix(omega_r: float, g: float, delta: float) -> np.ndarray:
    """Transfer Hamiltonian on the subspace (|g1,0>, |e,0>, |g2,1>)."""
    return np.array(
        [
            [0.0, omega_r, 0.0],
            [omega_r, delta, g],
            [0.0, g, 0.0],
        ],
        dtype=complex,
    )


def _overlaps(states: np.ndarray, vectors: np.ndarray, density: bool) -> np.ndarray:
    """Population |<v|psi>|^2 (pure) or <v|rho|v> (mixed) of each vector in
    the matching state, over the leading axes."""
    if density:
        return np.real(np.einsum("...i,...ij,...j->...", vectors.conj(), states, vectors))
    return np.abs(np.einsum("...i,...i->...", vectors.conj(), states)) ** 2


def dark_state_overlaps(
    states: np.ndarray, density: bool, omega_r: np.ndarray, g: np.ndarray, basis: ProductBasis
) -> np.ndarray:
    """Dark-state population of each state, the dark state at the matching
    controls being cos(theta)|g1,0> - sin(theta)|g2,1> with
    tan(theta) = omega_r/g (as in hilbert.analytic_eigensystem).  NaN where
    both fields are off and the dark state is undefined."""
    theta = np.arctan2(omega_r, g)
    dark = np.zeros((len(theta), basis.dimension), dtype=complex)
    dark[:, basis.index("g1", 0)] = np.cos(theta)
    dark[:, basis.index("g2", 1)] = -np.sin(theta)
    driven = (omega_r != 0.0) | (g != 0.0)
    return np.where(driven, _overlaps(states, dark, density), np.nan)


def em_residual(trajectory) -> float:
    """The largest recorded population of the level em, summed over n: that
    of |em,0>, once it is checked that no |em, n >= 1> was kept, so that
    their populations are exactly zero."""
    basis = trajectory.basis
    em = [basis.index("em", n) for n in range(1, basis.n_fock)]
    assert not np.isin(trajectory.kept, em).any()
    return float(trajectory.population_series("em", 0).max())
