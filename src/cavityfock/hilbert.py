"""Truncated atom (x) Fock product bases and the operators acting on them."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ModelMismatchError, ParameterDomainError, _check_numbers

# The atomic levels of each model: the full one adds the auxiliary excited
# level em, through which it synthesizes the correction coupling.
LEVELS = {"effective": ("g1", "e", "g2"), "full": ("g1", "e", "g2", "em")}

# Largest Fock cutoff.  Every preset conserves the excitation number, so any
# n_max >= 1 gives the same physics, and the stepper works on the few basis
# states that the initial state reaches.  What grows with the dimension d are
# the d x d operators, Trajectory.populations (S, d) and Trajectory.states
# once lifted: 8 001 x 33^2 x 16 B, about 139 MB, at n_max = 10 (d = 33) and
# stride 1.
N_MAX_LIMIT = 10


@dataclass(frozen=True)
class ProductBasis:
    """Atomic-major, Fock-minor flat indexing of |level, n> product states."""

    levels: tuple[str, ...]
    n_max: int

    def __post_init__(self):
        _check_numbers(integer=True, n_max=self.n_max)
        if not 1 <= self.n_max <= N_MAX_LIMIT:
            raise ParameterDomainError(f"n_max must be in 1..{N_MAX_LIMIT}, got {self.n_max}")

    @property
    def n_fock(self) -> int:
        return self.n_max + 1

    @property
    def dimension(self) -> int:
        return len(self.levels) * self.n_fock

    def index(self, level: str, n: int) -> int:
        if level not in self.levels:
            raise ModelMismatchError(f"level {level!r} not in basis {self.levels}")
        if not 0 <= n <= self.n_max:
            raise ParameterDomainError(
                f"Fock occupation {n} outside 0..{self.n_max}"
            )
        return self.levels.index(level) * self.n_fock + n

    def labels(self) -> list[tuple[str, int]]:
        return [(level, n) for level in self.levels for n in range(self.n_fock)]

    def state(self, level: str, n: int) -> np.ndarray:
        """Unit vector for the product state |level, n>."""
        vec = np.zeros(self.dimension, dtype=complex)
        vec[self.index(level, n)] = 1.0
        return vec


def build_basis(model: str, n_max: int) -> ProductBasis:
    if model not in LEVELS:
        raise ParameterDomainError(f"unknown model {model!r}")
    return ProductBasis(LEVELS[model], n_max)


def _read_only(matrix: np.ndarray) -> np.ndarray:
    matrix.setflags(write=False)
    return matrix


@lru_cache(maxsize=None)
def ladder_operators(basis: ProductBasis):
    """Cavity annihilation and creation operators (a, a_dag) on the basis."""
    a_fock = np.diag(np.sqrt(np.arange(1.0, basis.n_fock)), k=1).astype(complex)
    a = np.kron(np.eye(len(basis.levels)), a_fock)
    return _read_only(a), _read_only(a.conj().T.copy())


@lru_cache(maxsize=None)
def number_operator(basis: ProductBasis) -> np.ndarray:
    # built directly so photon counts are exact integers, not sqrt(n)**2
    counts = [float(n) for _level in basis.levels for n in range(basis.n_fock)]
    return _read_only(np.diag(np.asarray(counts, dtype=complex)))


@lru_cache(maxsize=None)
def transition_operator(basis: ProductBasis, upper: str, lower: str) -> np.ndarray:
    """|upper><lower| tensored with the Fock identity."""
    op = np.zeros((basis.dimension, basis.dimension), dtype=complex)
    for n in range(basis.n_fock):
        op[basis.index(upper, n), basis.index(lower, n)] = 1.0
    return _read_only(op)


@dataclass(frozen=True)
class EigenSystem:
    """Instantaneous eigensystem of the transfer Hamiltonian restricted to
    the single-excitation subspace (|g1,0>, |e,0>, |g2,1>).

    The mixing angles satisfy tan(theta) = omega_r/g and
    tan(2*phi) = 2*omega/delta with omega = sqrt(omega_r**2 + g**2).
    Eigenvalues are ordered (dark, bright_upper, bright_lower).
    """

    theta: float
    phi: float
    eigenvalues: tuple[float, float, float]
    dark: np.ndarray
    bright_upper: np.ndarray
    bright_lower: np.ndarray


def analytic_eigensystem(omega_r: float, g: float, delta: float) -> EigenSystem:
    """Closed-form eigensystem of the single-excitation transfer Hamiltonian.

    The dark state carries no amplitude on |e,0> and is annihilated exactly:
    cos(theta)|g1,0> - sin(theta)|g2,1>.
    """
    omega = math.hypot(omega_r, g)
    if omega == 0.0:
        raise ParameterDomainError(
            "mixing angle undefined: omega_r and g are both zero"
        )
    theta = math.atan2(omega_r, g)
    phi = 0.5 * math.atan2(2.0 * omega, delta)
    root = math.hypot(delta, 2.0 * omega)
    lam_upper = 0.5 * (delta + root)
    lam_lower = 0.5 * (delta - root)
    sin_t, cos_t = math.sin(theta), math.cos(theta)
    sin_p, cos_p = math.sin(phi), math.cos(phi)
    dark = np.array([cos_t, 0.0, -sin_t], dtype=complex)
    bright_upper = np.array([sin_t * sin_p, cos_p, cos_t * sin_p], dtype=complex)
    bright_lower = np.array([sin_t * cos_p, -sin_p, cos_t * cos_p], dtype=complex)
    return EigenSystem(
        theta=theta,
        phi=phi,
        eigenvalues=(0.0, lam_upper, lam_lower),
        dark=dark,
        bright_upper=bright_upper,
        bright_lower=bright_lower,
    )
