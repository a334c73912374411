"""Fixed-step time integration for pure states and density matrices.

A classical 4th-order Runge-Kutta scheme with a fixed step is used for both
the Schroedinger equation and the master equation; ``propagate`` takes the
master equation for a model with Lindblad jumps.  The step is fixed rather
than adaptive on purpose: the schedules are smooth Gaussians, the matrices
are tiny, and a fixed step makes every trajectory bitwise reproducible.

Both equations are one real linear ODE dx/dt = (A_static + sum_k c_k A_k) x,
and one stepper takes them.  A pure state steps in x = (Re psi, Im psi), where
-iH is the block [[Im H, Re H], [-Re H, Im H]]; a density matrix in its d^2
real coordinates (diagonal, real and imaginary upper triangle), where the
blocks are the real Liouvillian of each term, so H(t) is never formed and a
matrix rebuilt from them is exactly Hermitian.  The blocks are built only on
the basis states that the initial state reaches through H', the X_k and the
jumps, and only the coordinates that it reaches through the blocks' nonzero
patterns are stepped: the Jaynes-Cummings coupling conserves the excitation
number and loss only feeds populations, so every preset builds on 3 or 4
basis states and steps 6, 8 or 10 coordinates whatever n_max is.

Time is taken in chunks of whole strides, and the controls at all half steps
of a chunk come from one call.  The RK4 one-step matrices of a chunk come
from batched products, each stride of them is folded into one block, and
the recorded states from prefix products within groups of blocks and a
doubling scan over the group totals, about one product per block.

The recorded states are the real coordinates of the state on the basis
states the model was built on, zero where a coordinate was not stepped.
Observables and conservation checks are computed once per run from them,
positivity by a Cholesky certificate, and the recorded controls from one
schedule call at the recorded times; full states are lifted only when they
are read.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import IntegrationError, ParameterDomainError
from .hamiltonians import LinearHamiltonian
from .hilbert import ProductBasis, _read_only
from .observables import diagonal_weights, photon_statistics, populations
from .pulses import ControlValues

# Hard failure thresholds for conservation checks at recorded samples.
NORM_DRIFT_LIMIT = 1e-6
NEGATIVITY_LIMIT = -1e-6


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
        if isinstance(self.stride, bool) or not isinstance(self.stride, numbers.Integral):
            raise ParameterDomainError(f"stride must be an integer, got {self.stride}")
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

    ``coordinates`` are the real coordinates of the state on the k basis
    states ``kept``: (Re psi, Im psi), (S, 2k), or those of a density
    matrix (_coordinates), (S, k^2); each is exactly zero where it was not
    stepped.  ``states`` lifts them to pure states (S, d) or density
    matrices (S, d, d) on first access, and ``final_state`` lifts the last
    sample alone.  ``populations`` (S, d), in the order of
    ``basis.labels()``, lift ``kept_populations`` (S, k) likewise.
    ``model`` is the schedule's model, "effective" or "full", and
    ``controls`` holds each of its channels as an (S,) array.
    ``dark_overlap`` and ``mandel_q`` are NaN where undefined: no drive
    field on, a full-model run, or an empty cavity.
    """

    basis: ProductBasis
    is_density: bool
    model: str
    times: np.ndarray
    coordinates: np.ndarray
    kept: np.ndarray
    controls: ControlValues
    kept_populations: np.ndarray
    norm_or_trace: np.ndarray
    dark_overlap: np.ndarray
    mean_photon_n: np.ndarray
    mandel_q: np.ndarray

    @cached_property
    def states(self) -> np.ndarray:
        return self._lifted(self.coordinates)

    @cached_property
    def populations(self) -> np.ndarray:
        full = np.zeros((len(self.times), self.basis.dimension))
        full[:, self.kept] = self.kept_populations
        return full

    @property
    def final_state(self) -> np.ndarray:
        return self._lifted(self.coordinates[-1:])[0]

    def _lifted(self, coordinates: np.ndarray) -> np.ndarray:
        """The states of the given samples, scattered into zeros of the
        full dimension."""
        states = _kept_states(coordinates, len(self.kept), self.is_density)
        axes = states.ndim - 1
        full = np.zeros(states.shape[:1] + (self.basis.dimension,) * axes, dtype=complex)
        full[(slice(None),) + np.ix_(*[self.kept] * axes)] = states
        return full

    @property
    def final_populations(self) -> dict[tuple[str, int], float]:
        return populations(self.final_state, self.basis)

    def population_series(self, level: str, n: int) -> np.ndarray:
        """P(level, n) at every sample, zero if |level, n> was not kept."""
        column = np.flatnonzero(self.kept == self.basis.index(level, n))
        return self.kept_populations[:, column[0]] if len(column) else np.zeros(len(self.times))

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
    hamiltonian: LinearHamiltonian, grid: TimeGrid, blocks: np.ndarray, x0: np.ndarray
) -> np.ndarray:
    """Integrate dx/dt = (A_static + sum_k c_k(t) A_k) x from x0 over the
    grid one chunk at a time; return the recorded coordinates (S, len(x0)).

    ``blocks`` is the stack (A_static, A_1, ..., A_K).  Only the
    coordinates that x0 reaches (_reachable) are stepped; every other one
    stays exactly zero.  The controls of a chunk are evaluated at all its
    half steps in one call, and each half step once: a chunk starts from
    the end point of the one before.  A chunk is a whole number of strides,
    so its blocks of ``stride`` steps end at recorded steps; a longer
    stride is cut into chunks of one block that end at its recorded step.
    """
    samples, stride = grid.sample_steps, grid.stride
    reached = _reachable(blocks, x0)
    # Room for as many r x r step matrices as 256 take at r = 10, the largest
    # preset, and at a larger r for 256 but no more than 64 take at r = 144
    r = len(reached)
    capacity = max(1, 256 * 10**2 // r**2, min(256, 64 * 144**2 // r**2))
    advance = _linear_advance(blocks[:, reached[:, None], reached], grid.dt, capacity)
    chunk = np.empty((capacity, r))
    length = stride * (capacity // stride) or capacity
    period = max(length, stride)  # no chunk crosses a multiple of it
    states = np.zeros((len(samples), len(x0)))
    states[0, reached] = state = x0[reached]
    columns = hamiltonian.evaluate(np.array([grid.t_start]))
    first = 0
    # A diverging run overflows to inf and NaN; _record reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        while first < grid.n_steps:
            last = min(first + length, (first // period + 1) * period, grid.n_steps)
            n = last - first
            block = min(stride, n)
            half_steps = np.arange(2 * first + 1, 2 * last + 1)
            chunk_columns = hamiltonian.evaluate(grid.t_start + (0.5 * grid.dt) * half_steps)
            columns = np.concatenate((columns[-1:], chunk_columns))
            state = advance(state, columns, block, chunk[: -(-n // block)])
            lo, hi = np.searchsorted(samples, (first + 1, last + 1))
            states[lo:hi, reached] = chunk[(samples[lo:hi] - first - 1) // block]
            first = last
    return states


def _reachable(blocks: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """Indices of the coordinates that dx/dt = A(t) x can make nonzero from
    x0 for any controls: the support of x0, grown through the union of the
    blocks' nonzero patterns until it stops changing.  Every other
    coordinate has a zero derivative as long as all reached ones do."""
    pattern = (blocks != 0).any(axis=0)  # (to, from)
    reached = x0 != 0
    while True:
        grown = reached | pattern[:, reached].any(axis=1)
        if np.array_equal(grown, reached):
            return np.flatnonzero(reached)
        reached = grown


def _linear_advance(blocks: np.ndarray, dt: float, length: int) -> Callable:
    """``advance(x, columns, block, out)`` for dx/dt = (A_static +
    sum_k c_k A_k) x, with ``blocks`` the real stack (A_static, A_1, ...,
    A_K) of shape (K+1, r, r), in chunks of at most ``length`` steps,
    padding included.

    It takes n steps through the control columns (2n + 1, K) at their half
    steps, writes the state after each run of ``block`` steps to the
    m = ceil(n / block) rows of ``out`` and returns the last one.  One
    product of the columns, with ones for A_static and, at whole steps,
    for I, gives I + X_s, X_m and I + X_e, X = (dt/2) A; the RK4 one-step
    matrix S = I + (X_s + X_e)/3 + 2/3 (Y2 + Y3 + X_e Y3), with Y2 = X_m +
    X_m X_s and Y3 = X_m + X_m Y2, takes three batched products and four
    passes.  Each run of ``block`` of them, the last padded with
    identities, is folded by a pairwise tree.  In groups of g = isqrt(m)
    block products, g - 1 batched products give the prefixes within each
    group, a doubling scan (Hillis & Steele, CACM 29, 1170 (1986)) those of
    the group totals, and one batched product the states: about
    m + (m/g) log2(m/g) products, not m log2 m (Blelloch, CMU-CS-90-190
    (1990)).  An operand that overlaps its product's output is read from a
    copy, as numpy does.  The buffers are allocated once per run: large
    arrays allocated anew per chunk could be faulted back in every chunk.
    """
    size = blocks.shape[-1]
    scaled = np.concatenate((0.5 * dt * blocks, np.eye(size)[None])).reshape(len(blocks) + 1, -1)
    mix = np.zeros((2 * length + 1, len(scaled)))  # weights of the rows of scaled
    mix[:, 0] = mix[::2, -1] = 1.0
    halves = np.empty((2 * length + 1, size * size))  # I + X or X at each half step
    buffers = np.empty((3, length, size, size))

    def advance(x, columns, block, out):
        n, m = len(columns) // 2, len(out)
        mix[: 2 * n + 1, 1:-1] = columns
        a = np.matmul(mix[: 2 * n + 1], scaled, out=halves[: 2 * n + 1]).reshape(-1, size, size)
        start, mid, end = a[:-1:2], a[1::2], a[2::2]  # I + X_s, X_m, I + X_e
        y2, y3, steps = buffers[:, :n]
        np.matmul(mid, start, out=y2)
        np.matmul(mid, y2, out=y3)
        y3 += mid
        np.matmul(end, y3, out=steps)
        steps += y2
        steps *= 2.0 / 3.0
        ends = mix[: 2 * n + 1 : 2, :-1]
        np.matmul((ends[:-1] + ends[1:]) / 3.0, scaled[:-1], out=y3.reshape(n, -1))
        steps += y3
        steps.reshape(n, -1)[:, :: size + 1] += 1.0
        buffers[2, n : m * block] = np.eye(size)
        product, spare, width = buffers[2], buffers[0], block
        while width > 1:
            pairs, rest = divmod(width, 2)
            factors = product[: m * width].reshape(m, width, size, size)
            folded = spare[: m * (pairs + rest)].reshape(m, pairs + rest, size, size)
            # the later step of each pair on the left
            np.matmul(factors[:, 1::2], factors[:, : 2 * pairs : 2], out=folded[:, :pairs])
            if rest:
                folded[:, pairs] = factors[:, -1]
            product, spare, width = spare, product, pairs + rest
        group = math.isqrt(m)
        for k in range(1, group):  # each block becomes its prefix within its group
            np.matmul(product[k:m:group], product[k - 1 : m - 1 : group], out=product[k:m:group])
        totals = spare[: (m - 1) // group]  # of every group but the last
        totals[...] = product[group - 1 : m - 1 : group]
        shift = 1
        while shift < len(totals):
            np.matmul(totals[shift:], totals[:-shift], out=totals[shift:])
            shift *= 2
        starts = np.concatenate((x[None], totals @ x))  # x may be a row of out
        starts = np.repeat(starts, group, axis=0)[:m, :, None]
        return np.matmul(product[:m], starts, out=out[:, :, None])[-1, :, 0]

    return advance


def _record(
    hamiltonian: LinearHamiltonian, times: np.ndarray, coordinates: np.ndarray, kept: np.ndarray
) -> Trajectory:
    """Check the recorded coordinates, derive the observables from them,
    and evaluate the controls at the recorded times.

    The coordinates are those of the state on the basis states ``kept``, as
    in Trajectory; a model with jumps records density matrices.  The
    populations are the diagonal coordinates, or |psi_k|^2 on the kept
    basis states, and the norm or trace is their sum; only that sum and the
    photon statistics see them on all d basis states.  Density matrices are
    rebuilt on the kept basis states, 512 samples at a time by one product
    each (_kept_states), for _check_positive, and the dark overlap is a
    form on a few coordinates (_dark_overlaps).  Every check is written so
    that NaN fails it.
    """
    basis, is_density, size = hamiltonian.basis, bool(hamiltonian.jumps), len(kept)
    weights = np.zeros((len(times), basis.dimension))
    if is_density:
        weights[:, kept] = coordinates[:, :size]  # the diagonal coordinates come first
    else:
        weights[:, kept] = diagonal_weights(_kept_states(coordinates, size, False), False)
    weight = weights.sum(axis=-1)
    kind = "trace" if is_density else "norm"
    bad = ~(np.abs(weight - 1.0) <= NORM_DRIFT_LIMIT)
    if bad.any():
        i = int(np.argmax(bad))
        raise IntegrationError(f"{kind} drifted to {weight[i]:.12f} at t={times[i]:g}; reduce dt")
    n_mean, q = photon_statistics(weights, basis)
    weights = weights[:, kept]  # lifted again only when read
    if is_density:
        for start in range(0, len(times), 512):
            part = slice(start, start + 512)
            _check_positive(_kept_states(coordinates[part], size, True), times[part])
    model = hamiltonian.schedule.model
    controls = hamiltonian.schedule.values(times)
    if model == "effective":
        dark = _dark_overlaps(coordinates, kept, is_density, controls, basis)
    else:
        dark = np.full(len(times), np.nan)
    return Trajectory(
        basis, is_density, model, times, coordinates, kept, controls, weights, weight, dark,
        n_mean, q
    )


def _dark_overlaps(
    coordinates: np.ndarray,
    kept: np.ndarray,
    is_density: bool,
    controls: ControlValues,
    basis: ProductBasis,
) -> np.ndarray:
    """The dark-state population of each recorded state, from the
    coordinates of a = |g1,0> and b = |g2,1> alone.  With c = cos(theta)
    and s = -sin(theta) the dark state is c|a> + s|b>, and its population
    is c^2 rho_aa + c s Re rho_ab + s c Re rho_ab + s^2 rho_bb, or
    |c psi_a + s psi_b|^2, each product rounded and the terms summed in
    the order of the complex form, so that it equals the reference on full
    states in tests/oracles.py bit for bit.  A basis state not kept has
    zero coordinates."""
    size = len(kept)

    def column(p, shift=0):
        return 0.0 if p is None else coordinates[:, p + shift]

    where = {index: p for p, index in enumerate(kept.tolist())}
    a, b = where.get(basis.index("g1", 0)), where.get(basis.index("g2", 1))
    theta = np.arctan2(controls.omega_r, controls.g)
    c, s = np.cos(theta), -np.sin(theta)
    if is_density:
        # kept is sorted, so a < b and Re rho_ab is an upper-triangle coordinate
        upper = None if None in (a, b) else np.searchsorted(_triangles(size)[1], a * size + b)
        aa, bb, ab = column(a), column(b), column(upper, size)
        dark = (c * aa) * c + (c * ab) * s + (s * ab) * c + (s * bb) * s
    else:
        re_a, im_a, re_b, im_b = column(a), column(a, size), column(b), column(b, size)
        dark = np.abs((c * re_a + s * re_b) + 1j * (c * im_a + s * im_b)) ** 2
    driven = (controls.omega_r != 0.0) | (controls.g != 0.0)
    return np.where(driven, dark, np.nan)


def _check_positive(states: np.ndarray, times: np.ndarray) -> None:
    """Raise IntegrationError at the first density matrix of the stack
    (S, k, k) with an eigenvalue below NEGATIVITY_LIMIT.

    rho - NEGATIVITY_LIMIT * I has a Cholesky factor exactly when every
    eigenvalue of rho is above the limit, and a factorization in floating
    point succeeds only within a backward error of order k u |rho| of that
    (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    ch. 10).  So the stack passes when its factors are all finite, since
    NaN may give a NaN factor rather than an error; only a stack that
    fails is diagonalized, to name the sample and its eigenvalue.
    """
    shifted = states - NEGATIVITY_LIMIT * np.eye(states.shape[-1])
    try:
        if np.isfinite(np.linalg.cholesky(shifted)).all():
            return
    except np.linalg.LinAlgError:
        pass
    smallest = _smallest_eigenvalues(states)
    bad = ~(smallest >= NEGATIVITY_LIMIT)
    if bad.any():
        i = int(np.argmax(bad))
        raise IntegrationError(
            f"density matrix developed negative eigenvalue {smallest[i]:.3e} "
            f"at t={times[i]:g}; reduce dt"
        )


def _smallest_eigenvalues(states: np.ndarray) -> np.ndarray:
    """The smallest eigenvalue of each Hermitian matrix (S, k, k).  A
    matrix with a non-finite entry, which LAPACK may fail to diagonalize,
    gets NaN."""
    finite = np.isfinite(states).all(axis=(1, 2))
    smallest = np.linalg.eigvalsh(np.where(finite[:, None, None], states, 0.0))[:, 0]
    smallest[~finite] = np.nan
    return smallest


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
    # the basis states that psi reaches through H', the X_k and the jumps:
    # rho stays on them too, so both equations step only those
    operators = np.array([model.static, *model.terms.values(), *(op for _, op in model.jumps)])
    kept = _reachable(operators, psi)
    blocks, x0 = _linear_form(_restricted(model, kept), psi[kept])
    coordinates = _integrate(model, grid, blocks, x0)
    return _record(model, grid.time(grid.sample_steps), coordinates, kept)


def _restricted(model: LinearHamiltonian, kept: np.ndarray) -> LinearHamiltonian:
    """The model's matrices restricted to the basis states ``kept``, a set
    that H', every X_k and every jump map into itself; the basis stays the
    model's."""
    block = np.ix_(kept, kept)
    return replace(
        model,
        static=model.static[block],
        terms={name: term[block] for name, term in model.terms.items()},
        jumps=tuple((rate, op[block]) for rate, op in model.jumps),
    )


def _kept_states(coordinates: np.ndarray, size: int, is_density: bool) -> np.ndarray:
    """The states (S, k) or density matrices (S, k, k) on the k = ``size``
    kept basis states, from their real coordinates (S, 2k) or (S, k^2).  A
    density matrix is one product with the unit matrices, each entry one
    coordinate times +-1 plus zeros: exact on finite input, and Hermitian."""
    if is_density:
        units = _unit_matrices(size).reshape(size * size, -1).view(float)
        return (coordinates @ units).view(complex).reshape(-1, size, size)
    return coordinates[:, :size] + 1j * coordinates[:, size:]


def _linear_form(model: LinearHamiltonian, psi: np.ndarray) -> tuple:
    """The model as the real dx/dt = (A_static + sum_k c_k(t) A_k) x: the
    blocks (A_static, A_1, ..., A_K) and the initial coordinates x0.  A
    pure state steps in (Re psi, Im psi), with -iH the block
    [[Im H, Re H], [-Re H, Im H]]; a density matrix |psi><psi| in its d^2
    real coordinates, with _real_liouvillian."""
    if not model.jumps:
        h = np.array([model.static, *model.terms.values()])
        blocks = np.block([[h.imag, h.real], [-h.real, h.imag]])
        return blocks, np.concatenate((psi.real, psi.imag))
    size = len(psi) ** 2
    blocks = _real_liouvillian(model).reshape(-1, size, size)
    return blocks, _coordinates(np.outer(psi, psi.conj()))


@lru_cache(maxsize=None)
def _triangles(dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flat indices of a d x d matrix: its diagonal, its upper triangle,
    and the mirror image of each upper entry in the lower triangle."""
    rows, cols = np.triu_indices(dim, 1)
    indices = np.arange(dim) * (dim + 1), rows * dim + cols, cols * dim + rows
    return tuple(map(_read_only, indices))


@lru_cache(maxsize=None)
def _unit_matrices(dim: int) -> np.ndarray:
    """The d^2 coordinate unit matrices E_i (d^2, d, d), read-only: E_i has
    coordinate i (_coordinates) 1 and every other 0.  The entries are set
    by their real and imaginary parts, so that no zero is negative."""
    diagonal, upper, lower = _triangles(dim)
    re, im = np.split(np.arange(dim, dim * dim), 2)  # the upper entries' coordinates
    units = np.zeros((dim * dim, dim * dim), dtype=complex)
    units.real[np.arange(dim), diagonal] = 1.0
    units.real[re, upper] = units.real[re, lower] = units.imag[im, upper] = 1.0
    units.imag[im, lower] = -1.0
    return _read_only(units.reshape(-1, dim, dim))


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
    dim = len(model.static)
    units = _unit_matrices(dim)
    generators = [-1j * h for h in (model.static, *model.terms.values())]
    blocks = np.empty((len(generators), dim * dim, dim * dim))  # (block, coordinate, unit)
    for block, generator in zip(blocks, generators):
        images = generator @ units
        images += images.conj().swapaxes(-1, -2)
        block[...] = _coordinates(images).T
    for rate, op in model.jumps:
        blocks[0] += rate * _coordinates(op @ units @ op.conj().T).T
    return blocks.reshape(-1, dim * dim)
