"""Fixed-step time integration for pure states and density matrices.

A classical 4th-order Runge-Kutta scheme with a fixed step is used for both
the Schroedinger equation and the master equation; ``propagate`` takes the
master equation for a model with Lindblad jumps.  The step is fixed rather
than adaptive on purpose: the schedules are smooth Gaussians, the matrices
are tiny, and a fixed step makes every trajectory bitwise reproducible.

Time is taken in chunks of CHUNK_STEPS steps: the controls at all half
steps of a chunk come from one call, H(t) is one stack of matrices, and
pure states take exact RK4 one-step matrices built by batched products.
Observables and conservation checks are computed once per run, from the
stack of recorded states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IntegrationError, ModelMismatchError, ParameterDomainError
from .hamiltonians import Jumps, LinearHamiltonian
from .hilbert import ProductBasis
from .observables import (
    dark_state_overlaps,
    diagonal_weights,
    photon_statistics,
    populations,
)
from .pulses import ControlValues

# Hard failure thresholds for conservation checks at recorded samples.
NORM_DRIFT_LIMIT = 1e-6
NEGATIVITY_LIMIT = -1e-6

# Steps per chunk.  Memory for the controls, H(t) and step matrices is
# bounded by the chunk, not by the grid; longer chunks are no faster.
CHUNK_STEPS = 64


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid over [t_start, t_end] with output stride."""

    t_start: float
    t_end: float
    dt: float
    stride: int = 1

    def __post_init__(self):
        # every check is written so that NaN fails it
        if not 0.0 < self.dt < math.inf:
            raise ParameterDomainError(f"dt must be finite and positive, got {self.dt}")
        if self.stride < 1:
            raise ParameterDomainError(f"stride must be at least 1, got {self.stride}")
        steps = (self.t_end - self.t_start) / self.dt
        if not 0.0 < steps < math.inf:  # also an infinite t_start or t_end
            raise ParameterDomainError(
                f"window [{self.t_start}, {self.t_end}] must be finite and of positive length"
            )
        tolerance = 1e-9 * max(1.0, steps)
        if not tolerance < 0.5:
            raise ParameterDomainError(
                f"{steps:.3g} steps of dt={self.dt} are too many to resolve a fractional step"
            )
        if not abs(steps - round(steps)) <= tolerance:
            raise ParameterDomainError(
                f"window [{self.t_start}, {self.t_end}] is not an integer "
                f"number of steps of dt={self.dt}"
            )

    @property
    def n_steps(self) -> int:
        return int(round((self.t_end - self.t_start) / self.dt))

    def time(self, step):
        return self.t_start + step * self.dt

    @property
    def sample_steps(self) -> np.ndarray:
        """Steps after which the state is recorded: every stride-th and the last."""
        steps = np.arange(0, self.n_steps + 1, self.stride)
        return steps if steps[-1] == self.n_steps else np.append(steps, self.n_steps)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Columnar record of a run: each array holds one entry per recorded
    sample along its first axis.

    ``states`` are pure states (S, d) or density matrices (S, d, d).
    ``populations`` (S, d) are the basis-state populations in the order of
    ``basis.labels()``.  ``controls`` holds each channel as an (S,) array,
    or is None for a constant Hamiltonian.  ``dark_overlap`` and
    ``mandel_q`` are NaN where undefined: no drive field on, a full-model or
    constant-Hamiltonian run, or an empty cavity.
    """

    basis: ProductBasis
    is_density: bool
    model: str | None
    times: np.ndarray
    states: np.ndarray
    controls: ControlValues | None
    populations: np.ndarray
    norm_or_trace: np.ndarray
    dark_overlap: np.ndarray
    mean_photon_n: np.ndarray
    mandel_q: np.ndarray

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    @property
    def final_populations(self) -> dict[tuple[str, int], float]:
        return populations(self.final_state, self.basis)

    def population_series(self, level: str, n: int) -> np.ndarray:
        return self.populations[:, self.basis.index(level, n)]

    def max_population(self, level: str, n: int | None = None) -> float:
        """Largest recorded population of |level, n>, or of the whole level
        (summed over n) when n is None."""
        if n is None:
            first = self.basis.index(level, 0)
            series = self.populations[:, first : first + self.basis.n_fock].sum(axis=1)
        else:
            series = self.population_series(level, n)
        return float(np.max(series))


def _rk4_step_matrices(h: np.ndarray, dt: float) -> np.ndarray:
    """Exact RK4 one-step matrices I + dt/6 (A0 + 2 B2 + 2 B3 + B4) of
    d psi/dt = A psi, A = -iH, for the H stack h at the half steps
    t_0, t_0 + dt/2, ..., t_n of n steps: one (n, d, d) stack."""
    a = -1j * h
    start, mid, end = a[:-1:2], a[1::2], a[2::2]
    b2 = mid + (0.5 * dt) * (mid @ start)
    b3 = mid + (0.5 * dt) * (mid @ b2)
    b4 = end + dt * (end @ b3)
    steps = (dt / 6.0) * (start + 2.0 * b2 + 2.0 * b3 + b4)
    steps += np.eye(h.shape[-1])
    return steps


def _integrate(
    hamiltonian: LinearHamiltonian,
    state: np.ndarray,
    grid: TimeGrid,
    advance: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> Trajectory:
    """Integrate over the grid one chunk at a time and record the samples.

    ``advance(state, h, out)`` takes ``len(out)`` steps through the stack h
    of H at their 2 len(out) + 1 half steps, writes the state after each
    step to ``out`` and returns the last one.  Each half step is evaluated
    once: a chunk starts from the end point of the one before.
    """
    samples = grid.sample_steps
    states = np.empty((len(samples),) + state.shape, dtype=complex)
    states[0] = state
    values, h = hamiltonian.evaluate(np.array([grid.t_start]))
    controls = None
    if values is not None:
        controls = np.empty((len(samples), len(values)))
        controls[0] = np.stack(values, axis=-1)[0]
    chunk = np.empty((CHUNK_STEPS,) + state.shape, dtype=complex)
    for first in range(0, grid.n_steps, CHUNK_STEPS):
        last = min(first + CHUNK_STEPS, grid.n_steps)
        half_steps = np.arange(2 * first + 1, 2 * last + 1)
        values, h_chunk = hamiltonian.evaluate(grid.t_start + (0.5 * grid.dt) * half_steps)
        h = np.concatenate((h[-1:], h_chunk))
        state = advance(state, h, chunk[: last - first])
        lo, hi = np.searchsorted(samples, (first + 1, last + 1))
        taken = samples[lo:hi] - first  # steps into the chunk
        states[lo:hi] = chunk[taken - 1]
        if controls is not None:
            controls[lo:hi] = np.stack(values, axis=-1)[2 * taken - 1]
    if controls is not None:
        controls = ControlValues(*controls.T)
    return _record(hamiltonian, grid.time(samples), states, controls)


def _record(
    hamiltonian: LinearHamiltonian,
    times: np.ndarray,
    states: np.ndarray,
    controls: ControlValues | None,
) -> Trajectory:
    """Check the recorded states and derive the observables from them.

    Every check is written so that NaN fails it.
    """
    basis = hamiltonian.basis
    is_density = states.ndim == 3
    weights = diagonal_weights(states, is_density)
    weight = weights.sum(axis=-1)
    kind = "trace" if is_density else "norm"
    bad = ~(np.abs(weight - 1.0) <= NORM_DRIFT_LIMIT)
    if bad.any():
        i = int(np.argmax(bad))
        raise IntegrationError(f"{kind} drifted to {weight[i]:.12f} at t={times[i]:g}; reduce dt")
    if is_density:
        smallest = np.linalg.eigvalsh(states)[:, 0]
        bad = ~(smallest >= NEGATIVITY_LIMIT)
        if bad.any():
            i = int(np.argmax(bad))
            raise IntegrationError(
                f"density matrix developed negative eigenvalue {smallest[i]:.3e} "
                f"at t={times[i]:g}; reduce dt"
            )
    model = None if hamiltonian.schedule is None else hamiltonian.schedule.model
    if model == "effective":
        dark = dark_state_overlaps(states, is_density, controls.omega_r, controls.g, basis)
    else:
        dark = np.full(len(times), np.nan)
    n_mean, q = photon_statistics(weights, basis)
    return Trajectory(
        basis, is_density, model, times, states, controls, weights, weight, dark, n_mean, q
    )


def propagate(model: LinearHamiltonian, psi0: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Integrate the model from the pure state psi0 over the grid.

    A model without jumps follows the Schroedinger equation
    i d|psi>/dt = H(t)|psi>, and the trajectory records pure states.  A
    model with Lindblad jumps (rate_j, L_j) follows the master equation
    from rho0 = |psi0><psi0|,

        d rho/dt = -i (H' rho - rho H'^dag) + sum_j rate_j L_j rho L_j^dag,

    where the non-Hermitian H' carries the matching decay terms
    -i/2 sum_j rate_j L_j^dag L_j so that the trace is preserved, and the
    trajectory records density matrices.  The initial state must be
    finite and normalized; an IntegrationError is raised if the norm or
    trace drifts by more than NORM_DRIFT_LIMIT at any recorded sample.
    """
    dim = model.basis.dimension
    psi = np.asarray(psi0, dtype=complex).copy()
    if psi.shape != (dim,):
        raise ParameterDomainError(
            f"state dimension {psi.shape} does not match basis dimension {dim}"
        )
    if not abs(np.linalg.norm(psi) - 1.0) <= 1e-6:  # NaN and inf fail it
        raise ParameterDomainError("initial state must be finite and normalized")
    if model.jumps:
        advance = _master_equation_advance(model.jumps, dim, grid.dt)
        return _integrate(model, np.outer(psi, psi.conj()), grid, advance)

    def advance(psi, h, out):
        for step, after in zip(_rk4_step_matrices(h, grid.dt), out):
            psi = np.matmul(step, psi, out=after)
        return psi

    return _integrate(model, psi, grid, advance)


def _master_equation_advance(jumps: Jumps, dim: int, dt: float) -> Callable:
    """``advance`` of _integrate for the master equation.

    Each RK4 stage takes one matrix product: with G = -iH' and rho
    Hermitian, -i (H' rho - rho H'^dag) = G rho + (G rho)^dag.  The jumps
    act through one static superoperator on the row-major vec(rho), using
    vec(A rho B) = (A kron B^T) vec(rho).  After every step rho is replaced
    by its Hermitian part to suppress floating-point drift.
    """
    dissipator = sum(rate * np.kron(op, op.conj()) for rate, op in jumps)

    def rhs(generator: np.ndarray, state: np.ndarray) -> np.ndarray:
        product = generator @ state
        out = (dissipator @ state.reshape(-1)).reshape(dim, dim)
        out += product
        out += product.conj().T
        return out

    def advance(rho, h, out):
        generator = -1j * h
        for j, after in enumerate(out):
            start, mid, end = generator[2 * j : 2 * j + 3]
            k1 = rhs(start, rho)
            k2 = rhs(mid, rho + (0.5 * dt) * k1)
            k3 = rhs(mid, rho + (0.5 * dt) * k2)
            k4 = rhs(end, rho + dt * k3)
            rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            rho = np.multiply(0.5, rho + rho.conj().T, out=after)
        return rho

    return advance


def elimination_residual(trajectory: Trajectory) -> float:
    """Largest recorded population of the auxiliary excited level.

    Small values certify that eliminating the far-detuned level is a good
    approximation for the run in question.
    """
    if trajectory.model != "full":
        raise ModelMismatchError(
            "elimination residual requires a full-model trajectory"
        )
    return trajectory.max_population("em")
