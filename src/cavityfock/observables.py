"""Derived quantities: populations and cavity photon statistics.  The
columnar functions take a stack of states and an explicit ``density`` flag,
since a stack of pure states has the shape of a density matrix, and give NaN
where a value is undefined.  ``populations`` takes one pure state vector or
density matrix and tells them apart by dimension.  The dark-state overlap is
computed from the recorded coordinates (``dynamics._dark_overlaps``); its
reference on full states is in ``tests/oracles.py``."""

from __future__ import annotations

import numpy as np

from .hilbert import ProductBasis, number_operator

# Below this mean photon number the Mandel Q factor is reported as undefined
# rather than as a divergent float.
MANDEL_Q_THRESHOLD = 1e-12


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


def populations(state: np.ndarray, basis: ProductBasis) -> dict[tuple[str, int], float]:
    """Population per product-basis label |level, n>."""
    weights = diagonal_weights(state, state.ndim == 2)
    return {label: float(weights[i]) for i, label in enumerate(basis.labels())}

