"""Fixed-step time integration for pure states and density matrices.

A classical 4th-order Runge-Kutta scheme with a fixed step is used for both
the Schroedinger equation and the master equation; ``propagate`` takes the
master equation for a model with Lindblad jumps.  The step is fixed rather
than adaptive on purpose: the schedules are smooth Gaussians, the matrices
are tiny, and a fixed step makes every trajectory bitwise reproducible.

Time is taken in chunks of CHUNK_STEPS steps, and the controls at all
half steps of a chunk come from one call.  Pure states take exact RK4
one-step matrices, built by batched products from the stack of -iH(t) at
the chunk's half steps.  Density matrices are stepped in their d^2 real coordinates (diagonal, real
upper triangle, imaginary upper triangle), where the master equation is one
real matrix linear in the controls, L_static + sum_k c_k(t) L_k: each RK4
stage is one product with the stacked (L_static; L_1; ...; L_K), built once
per run, and H(t) is never formed.  A matrix rebuilt from real coordinates
is exactly Hermitian.  Observables and conservation checks are computed
once per run, from the stack of recorded states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import IntegrationError, ModelMismatchError, ParameterDomainError
from .hamiltonians import LinearHamiltonian
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


def _integrate(
    hamiltonian: LinearHamiltonian,
    state: np.ndarray,
    grid: TimeGrid,
    advance: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    restore: Callable[[np.ndarray], np.ndarray] = np.asarray,
) -> tuple[np.ndarray, ControlValues | None]:
    """Integrate over the grid one chunk at a time; return the states and
    the control values at the recorded samples.

    ``advance(state, columns, out)`` takes ``len(out)`` steps through the
    control columns (2 len(out) + 1, K) at their half steps, writes the
    state after each step to ``out`` and returns the last one.  Each half
    step is evaluated once: a chunk starts from the end point of the one
    before.  ``restore`` turns a stack of stepped states into the states
    recorded, one chunk at a time.
    """
    samples = grid.sample_steps
    initial = restore(state[None])
    states = np.empty((len(samples),) + initial.shape[1:], dtype=complex)
    states[0] = initial[0]
    values, columns = hamiltonian.evaluate(np.array([grid.t_start]))
    controls = None
    if values is not None:
        controls = np.empty((len(samples), len(values)))
        controls[0] = np.stack(values, axis=-1)[0]
    chunk = np.empty((CHUNK_STEPS,) + state.shape, dtype=state.dtype)
    # A diverging run overflows to inf and NaN; _record reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, grid.n_steps, CHUNK_STEPS):
            last = min(first + CHUNK_STEPS, grid.n_steps)
            half_steps = np.arange(2 * first + 1, 2 * last + 1)
            values, chunk_columns = hamiltonian.evaluate(
                grid.t_start + (0.5 * grid.dt) * half_steps
            )
            columns = np.concatenate((columns[-1:], chunk_columns))
            state = advance(state, columns, chunk[: last - first])
            lo, hi = np.searchsorted(samples, (first + 1, last + 1))
            taken = samples[lo:hi] - first  # steps into the chunk
            states[lo:hi] = restore(chunk[taken - 1])
            if controls is not None:
                controls[lo:hi] = np.stack(values, axis=-1)[2 * taken - 1]
    if controls is not None:
        controls = ControlValues(*controls.T)
    return states, controls


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
    times = grid.time(grid.sample_steps)
    if model.jumps:
        x0 = _coordinates(np.outer(psi, psi.conj()))
        advance = _master_equation_advance(model, grid.dt)
        return _record(model, times, *_integrate(model, x0, grid, advance, _density_matrices))

    advance = _schroedinger_advance(model, grid.dt)
    return _record(model, times, *_integrate(model, psi, grid, advance))


def _schroedinger_advance(model: LinearHamiltonian, dt: float) -> Callable:
    """``advance`` of _integrate for pure states.

    The generator A = -iH at the chunk's half steps is one product of the
    control columns with the stacked -i X_k, plus -i H_static (a product
    with -i only swaps and negates components, so this is -iH exactly).
    The exact RK4 one-step matrices I + dt/6 (A0 + 2 B2 + 2 B3 + B4) are
    built from it for the whole chunk by batched products, and a
    matrix-vector scan applies them.  Everything is written into buffers
    allocated once per run: a chunk that allocated its large arrays anew
    could make the heap shrink and fault them back in, chunk after chunk.
    """
    d = model.basis.dimension
    static = -1j * model.static
    terms = -1j * np.reshape(list(model.terms.values()), (len(model.terms), d * d))
    generators = np.empty((2 * CHUNK_STEPS + 1, d * d), dtype=complex)
    buffers = np.empty((4, CHUNK_STEPS, d, d), dtype=complex)
    identity = np.eye(d)

    def advance(psi, columns, out):
        n = len(out)
        a = np.matmul(columns, terms, out=generators[: 2 * n + 1]).reshape(2 * n + 1, d, d)
        a += static
        start, mid, end = a[:-1:2], a[1::2], a[2::2]
        b2, b3, b4, steps = buffers[:, :n]
        # B2 = mid + dt/2 mid start, B3 = mid + dt/2 mid B2, B4 = end + dt end B3
        stages = ((b2, mid, start, 0.5 * dt), (b3, mid, b2, 0.5 * dt), (b4, end, b3, dt))
        for b, left, right, scale in stages:
            np.matmul(left, right, out=b)
            b *= scale
            b += left
        np.multiply(2.0, b2, out=steps)
        steps += start
        b3 *= 2.0
        steps += b3
        steps += b4
        steps *= dt / 6.0
        steps += identity
        for step, after in zip(steps, out):
            psi = np.matmul(step, psi, out=after)
        return psi

    return advance


def _triangles(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of a d x d matrix: its diagonal, its upper triangle,
    and the mirror image of each upper entry in the lower triangle."""
    rows, cols = np.triu_indices(dim, 1)
    return np.arange(dim) * (dim + 1), rows * dim + cols, cols * dim + rows


def _coordinates(rho: np.ndarray) -> np.ndarray:
    """Real coordinates (..., d^2) of Hermitian matrices (..., d, d): the
    diagonal, then the real parts of the upper triangle, then their
    imaginary parts."""
    dim = rho.shape[-1]
    diagonal, upper, _ = _triangles(dim)
    flat = rho.reshape(rho.shape[:-2] + (dim * dim,))
    return np.concatenate(
        (flat[..., diagonal].real, flat[..., upper].real, flat[..., upper].imag), axis=-1
    )


def _density_matrices(x: np.ndarray) -> np.ndarray:
    """The Hermitian matrices (..., d, d) of real coordinates x (..., d^2).
    Each lower entry is the conjugate of the same two reals as its upper
    mirror, so every matrix is exactly Hermitian."""
    dim = math.isqrt(x.shape[-1])
    diagonal, upper, lower = _triangles(dim)
    re, im = np.split(x[..., dim:], 2, axis=-1)
    rho = np.empty(x.shape[:-1] + (dim * dim,), dtype=complex)
    rho[..., np.concatenate((diagonal, upper, lower))] = np.concatenate(
        (x[..., :dim], re + 1j * im, re - 1j * im), axis=-1
    )
    return rho.reshape(x.shape[:-1] + (dim, dim))


def _real_liouvillian(model: LinearHamiltonian) -> np.ndarray:
    """The master equation in real coordinates, linear in the controls:
    dx/dt = (L_static + sum_k c_k(t) L_k) x, as the real stack
    (L_static; L_1; ...; L_K) of shape ((K+1) d^2, d^2).

    Column i of each block holds the coordinates of the matrix-form
    generator applied to the i-th coordinate unit matrix E_i, one batched
    product per block: with G = -iH' and E Hermitian,
    L_static E = G E + (G E)^dag + sum_j rate_j L_j E L_j^dag, and with
    G_k = -iX_k, L_k E = G_k E + (G_k E)^dag = -i [X_k, E].
    """
    dim = model.basis.dimension
    units = _density_matrices(np.eye(dim * dim))
    generators = [-1j * h for h in (model.static, *model.terms.values())]
    blocks = np.empty((len(generators), dim * dim, dim * dim))  # (block, coordinate, unit)
    for block, generator in zip(blocks, generators):
        images = generator @ units
        images += images.conj().swapaxes(-1, -2)
        block[...] = _coordinates(images).T
    for rate, op in model.jumps:
        blocks[0] += rate * _coordinates(op @ units @ op.conj().T).T
    return blocks.reshape(-1, dim * dim)


def _master_equation_advance(model: LinearHamiltonian, dt: float) -> Callable:
    """``advance`` of _integrate for the master equation in real coordinates.

    Each RK4 stage takes one product of the real stack with the stage's
    coordinates, giving the term of every block at once.  Contracted with
    the next stage's step fraction times (1, c_1, ..., c_K), and added to
    the step's start, it gives the next stage's coordinates; the step's
    increment contracts the products of all four stages with the RK4
    weights.  The coefficient rows of a whole chunk are built at once.
    (``np.dot`` has less call overhead than ``np.matmul`` on these sizes.)
    """
    stack = _real_liouvillian(model)
    size = stack.shape[1]
    blocks = len(stack) // size
    products = np.empty((4, blocks * size))  # stack @ coordinates at each stage
    product1, product2, product3, product4 = products
    terms1, terms2, terms3, _ = products.reshape(4, blocks, size)
    all_terms = products.reshape(4 * blocks, size)
    shift = np.empty(size)
    stage = np.empty(size)
    dot, add = np.dot, np.add

    def advance(x, columns, out):
        coefficients = np.concatenate((np.ones((len(columns), 1)), columns), axis=1)
        start, mid, end = coefficients[:-1:2], coefficients[1::2], coefficients[2::2]
        nudges = np.stack(((0.5 * dt) * start, (0.5 * dt) * mid, dt * mid), axis=1)
        weights = (dt / 6.0) * np.concatenate((start, 2.0 * mid, 2.0 * mid, end), axis=1)
        for (nudge1, nudge2, nudge3), weight, after in zip(nudges, weights, out):
            dot(stack, x, out=product1)
            add(x, dot(nudge1, terms1, out=shift), out=stage)
            dot(stack, stage, out=product2)
            add(x, dot(nudge2, terms2, out=shift), out=stage)
            dot(stack, stage, out=product3)
            add(x, dot(nudge3, terms3, out=shift), out=stage)
            dot(stack, stage, out=product4)
            x = add(x, dot(weight, all_terms, out=shift), out=after)
        return x

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
