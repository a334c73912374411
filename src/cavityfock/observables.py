"""Derived quantities: populations, cavity photon statistics, dark-state
overlap.  The columnar functions take a stack of states and an explicit
``density`` flag, since a stack of pure states has the shape of a density
matrix, and give NaN where a value is undefined.  ``populations`` and
``dark_state_overlap`` take one pure state vector or density matrix and
tell them apart by dimension; the latter is the independent reference for
``dark_state_overlaps``."""

from __future__ import annotations

import numpy as np

from .hilbert import EigenSystem, ProductBasis, number_operator

# Below this mean photon number the Mandel Q factor is reported as undefined
# rather than as a divergent float.
MANDEL_Q_THRESHOLD = 1e-12


def _is_density(state: np.ndarray) -> bool:
    return state.ndim == 2


def diagonal_weights(states: np.ndarray, density: bool) -> np.ndarray:
    """Population of every basis state, along the last axis: |psi_i|^2 of
    pure states (..., d), or the real diagonal of density matrices (..., d, d)."""
    if density:
        return np.real(np.diagonal(states, axis1=-2, axis2=-1))
    return np.abs(states) ** 2


def photon_statistics(
    weights: np.ndarray, basis: ProductBasis
) -> tuple[np.ndarray, np.ndarray]:
    """Mean photon number <n> and Mandel Q factor -1 + (<n^2> - <n>^2) / <n>
    from diagonal weights (..., d).  Q is NaN where the cavity is essentially
    empty (<n> below MANDEL_Q_THRESHOLD) and the ratio is undefined."""
    numbers = np.real(np.diagonal(number_operator(basis)))
    n_mean = weights @ numbers
    n_sq = weights @ (numbers * numbers)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -1.0 + (n_sq - n_mean * n_mean) / n_mean
    return n_mean, np.where(n_mean < MANDEL_Q_THRESHOLD, np.nan, q)


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


def populations(state: np.ndarray, basis: ProductBasis) -> dict[tuple[str, int], float]:
    """Population per product-basis label |level, n>."""
    weights = diagonal_weights(state, _is_density(state))
    return {label: float(weights[i]) for i, label in enumerate(basis.labels())}


def dark_state_overlap(
    state: np.ndarray, eigensystem: EigenSystem, basis: ProductBasis
) -> float:
    """Dark-state population |<dark|psi>|^2 (pure) or <dark|rho|dark> (mixed)."""
    return float(_overlaps(state, eigensystem.embed(basis), _is_density(state)))
