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
the recorded states from prefix products within groups of blocks, each
group's applied to the state before it by one product.

The recorded states are the real coordinates of the state on the basis
states the model was built on, zero where a coordinate was not stepped.
Observables and conservation checks are computed once per run from them,
positivity by a Cholesky certificate.  The recorded controls are read
back from the stepper's weights at the recorded steps, so each half step is
evaluated once per run; full states are lifted only when they are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import IntegrationError, ParameterDomainError, _check_numbers
from .hamiltonians import LinearHamiltonian
from .hilbert import ProductBasis, _read_only
# populations is not called here: perfbench/run.py wraps cavityfock.dynamics.populations
# for its in-run probe, and tests/test_benchmark_names.py pins that name
from .observables import diagonal_weights, photon_statistics, populations
from .pulses import ControlSchedule

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
        _check_numbers(t_start=self.t_start, t_end=self.t_end, dt=self.dt)
        # every check is written so that NaN fails it
        if not 0.0 < self.dt < math.inf:
            raise ParameterDomainError(f"dt must be finite and positive, got {self.dt}")
        _check_numbers(integer=True, stride=self.stride)
        if self.stride < 1:
            raise ParameterDomainError(f"stride must be at least 1, got {self.stride}")
        if not 0.0 < self.t_end - self.t_start < math.inf:  # also an infinite t_start or t_end
            raise ParameterDomainError(
                f"window [{self.t_start}, {self.t_end}] must be finite and of positive length"
            )
        steps = (self.t_end - self.t_start) / self.dt  # inf if dt is too small to count them
        tolerance = 1e-9 * max(1.0, steps)
        if not tolerance < 0.5:
            raise ParameterDomainError(
                f"{steps:.3g} steps of dt={self.dt} are too many to resolve a fractional step"
            )
        if not (steps > 0.5 and abs(steps - round(steps)) <= tolerance):  # a whole number, not 0
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
        steps = np.arange(0, self.n_steps + 1, min(self.stride, self.n_steps))
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
    sample alone; a run reads neither.  ``populations`` (S, d) are in the
    order of ``basis.labels()``, zero on every basis state not kept, and
    their last row is the run's final populations.
    ``model`` is the schedule's model, "effective" or "full", and
    ``controls`` maps each of the schedule's channels to its (S,) column.
    ``dark_overlap`` and ``mandel_q`` are NaN where undefined: no drive
    field on, a full-model run, or an empty cavity.
    """

    basis: ProductBasis
    is_density: bool
    model: str
    times: np.ndarray
    coordinates: np.ndarray
    kept: np.ndarray
    controls: dict[str, np.ndarray]
    populations: np.ndarray
    norm_or_trace: np.ndarray
    dark_overlap: np.ndarray
    mean_photon_n: np.ndarray
    mandel_q: np.ndarray

    @cached_property
    def states(self) -> np.ndarray:
        return self._lifted(self.coordinates)

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

    def population_series(self, level: str, n: int) -> np.ndarray:
        """P(level, n) at every sample, zero if |level, n> was not kept."""
        return self.populations[:, self.basis.index(level, n)]


def _integrate(
    schedule: ControlSchedule, grid: TimeGrid, blocks: np.ndarray, x0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate dx/dt = (A_static + sum_k c_k(t) A_k) x from x0 over the
    grid one chunk at a time; return the recorded coordinates (S, len(x0))
    and the control columns c_k at the recorded steps (S, K).

    ``blocks`` is the stack (A_static, A_1, ..., A_K).  Only the r
    coordinates that x0 reaches (_reachable) are stepped; every other one
    stays exactly zero.  A chunk is a whole number of strides, so its
    blocks end at the next recorded steps; a longer stride is cut into
    chunks of one block, which write its recorded step's row until the
    last, which ends there.

    One call of ``schedule.values`` gives the controls at the half steps of
    a chunk of n steps, each half step once per run, straight into the
    weights ``mix`` of (X_static, X_1, ..., X_K, I), X = (dt/2) A: the n + 1
    whole steps, whose row 0 carries the last of the chunk before, then the
    n midpoints.  A recorded step k is half step 2k, at t_start + (dt/2)(2k),
    the same double as t_start + k dt, so its controls are read back from
    its whole-step row.  One product of the weights gives I + X at the
    whole steps and X_m.  The RK4 one-step matrix S = I + (X_s + X_e)/3 +
    2/3 (Y2 + Y3 + X_e Y3), with Y2 = X_m + X_m X_s and Y3 = X_m + X_m Y2,
    takes three batched products, four passes, and a product of the summed
    whole-step weights for I + (X_s + X_e)/3.  Each run of ``block`` of
    them, the last padded with identities, is folded by a pairwise tree.
    In groups of g = isqrt(m) block products, g - 1 batched products write
    the prefixes within each group into the spare buffer; then one 2-D
    product of a group's (g r, r) prefixes with the state before it gives
    its states: about 2 sqrt(m) calls, none of whose outputs overlaps an
    operand.  The buffers are allocated once per run: large arrays
    allocated anew per chunk could be faulted back in every chunk.
    """
    count, stride, dt = len(grid.sample_steps), grid.stride, grid.dt
    reached = _reachable(blocks, x0)
    # Chunks of 711 steps, since each costs one control call and one pass of
    # the stepper, but with r x r step matrices that take no more room than
    # 64 steps' at full support at n_max = 3, r = 144
    r = len(reached)
    capacity = max(1, min(711, 64 * 144**2 // r**2))
    identity = np.eye(r)
    scaled = 0.5 * dt * blocks[:, reached[:, None], reached]
    scaled = np.concatenate((scaled, identity[None])).reshape(len(blocks) + 1, -1)
    mix = np.ones((2 * capacity + 1, len(scaled)))  # weights of the rows of scaled
    halves = np.empty((2 * capacity + 1, r * r))  # I + X or X at each half step
    buffers = np.empty((3, capacity, r, r))
    chunk = np.empty((capacity + 1, r))  # row 0 holds the state before the chunk
    length = stride * (capacity // stride) or capacity
    period = max(length, stride)  # no chunk crosses a multiple of it
    states = np.zeros((count, len(x0)))
    stepped = slice(None) if r == len(x0) else reached  # a slice on every pure-state preset
    states[0, stepped] = chunk[0] = x0[reached]
    controls = np.empty((count, len(blocks) - 1))
    first, n_steps = 0, grid.n_steps
    # A diverging run overflows to inf and NaN; _record reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        while first < n_steps:
            last = min(first + length, (first // period + 1) * period, n_steps)
            n = last - first
            block = min(stride, n)
            m = -(-n // block)
            fresh = int(first > 0)  # row 0 holds the last whole step before, or t_start's
            half_steps = np.arange(2 * first + fresh, 2 * last + 1)
            values = schedule.values(grid.t_start + 0.5 * dt * half_steps)
            # a longer chunk left other I weights in these rows
            mix[fresh : n + 1, 1:-1], mix[: n + 1, -1] = values[fresh::2], 1.0
            mix[n + 1 : 2 * n + 1, 1:-1], mix[n + 1 : 2 * n + 1, -1] = values[1 - fresh :: 2], 0.0
            if not first:
                controls[0] = mix[0, 1:-1]
            a = np.matmul(mix[: 2 * n + 1], scaled, out=halves[: 2 * n + 1]).reshape(-1, r, r)
            ends, mid = a[: n + 1], a[n + 1 :]  # I + X at the whole steps, X_m
            y2, y3, steps = buffers[:, :n]
            np.matmul(mid, ends[:-1], out=y2)
            np.matmul(mid, y2, out=y3)
            y3 += mid
            np.matmul(ends[1:], y3, out=steps)
            steps += y2
            steps *= 2.0 / 3.0
            outer = (mix[:n] + mix[1 : n + 1]) / 3.0
            outer[:, -1] = 1.0
            np.matmul(outer, scaled, out=y3.reshape(n, -1))  # I + (X_s + X_e)/3
            steps += y3
            buffers[2, n : m * block] = identity
            product, spare, width = buffers[2], buffers[0], block
            while width > 1:
                pairs, rest = divmod(width, 2)
                factors = product[: m * width].reshape(m, width, r, r)
                folded = spare[: m * (pairs + rest)].reshape(m, pairs + rest, r, r)
                # the later step of each pair on the left
                np.matmul(factors[:, 1::2], factors[:, : 2 * pairs : 2], out=folded[:, :pairs])
                if rest:
                    folded[:, pairs] = factors[:, -1]
                product, spare, width = spare, product, pairs + rest
            group = math.isqrt(m)
            spare[:m:group] = product[:m:group]  # each group's prefixes, from its first block
            for k in range(1, group):
                np.matmul(product[k:m:group], spare[k - 1 : m - 1 : group], out=spare[k:m:group])
            flat = chunk[1:].reshape(-1)  # a view, as chunk is C-contiguous
            for lo in range(0, m, group):  # a (g r, r) product per group, from the state before it
                hi = min(lo + group, m)
                np.dot(spare[lo:hi].reshape(-1, r), chunk[lo], out=flat[lo * r : hi * r])
            lo = first // stride + 1  # the row of the next recorded step
            states[lo : lo + m, stepped] = chunk[1 : m + 1]
            controls[lo : lo + n // block] = mix[block : n + 1 : block, 1:-1]
            controls[lo + m - 1] = mix[n, 1:-1]  # the last block may be partial
            chunk[0], mix[0] = chunk[m], mix[n]
            first = last
    return states, controls


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


def _record(
    hamiltonian: LinearHamiltonian,
    grid: TimeGrid,
    coordinates: np.ndarray,
    columns: np.ndarray,
    kept: np.ndarray,
) -> Trajectory:
    """Check the coordinates recorded at the grid's sample steps and derive
    the observables from them and from the control columns at those steps.

    The coordinates are those of the state on the basis states ``kept``, as
    in Trajectory; a model with jumps records density matrices.  The
    columns (S, K) are the stepper's (_integrate), one per channel that is
    on in the schedule's order, and are recorded as they are: the
    schedule is not evaluated again.  The populations (S, d) are the
    diagonal coordinates, or |psi_k|^2, on the kept basis states and zero
    on the others; the norm or trace and the photon statistics are taken
    from them.  Density matrices are rebuilt on the kept basis states, 512
    samples at a time by one product each (_kept_states), for
    _check_positive, and the dark overlap is a form on a few coordinates
    (_dark_overlaps).  Every check is written so that NaN fails it.
    """
    basis, is_density, size = hamiltonian.basis, bool(hamiltonian.jumps), len(kept)
    steps = grid.sample_steps
    times = grid.time(steps)
    weights = np.zeros((len(times), basis.dimension))
    # A diverging run's inf and NaN reach these; the check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        if is_density:
            weights[:, kept] = coordinates[:, :size]  # the diagonal coordinates come first
        else:
            weights[:, kept] = diagonal_weights(_kept_states(coordinates, size, False), False)
        weight = weights.sum(axis=-1)
    kind = "trace" if is_density else "norm"
    bad = ~(np.abs(weight - 1.0) <= NORM_DRIFT_LIMIT)
    if bad.any():
        i = int(np.argmax(bad))
        raise IntegrationError(
            f"{kind} drifted to {weight[i]:.6e} at step {steps[i]}, t={times[i]:g}; reduce dt"
        )
    n_mean, q = photon_statistics(weights, basis)
    if is_density:
        for start in range(0, len(times), 512):
            part = slice(start, start + 512)
            _check_positive(_kept_states(coordinates[part], size, True), steps[part], grid)
    model = hamiltonian.schedule.model
    controls = dict(zip(hamiltonian.schedule.channels, columns.T.copy()))
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
    controls: dict[str, np.ndarray],
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
    theta = np.arctan2(controls["omega_r"], controls["g"])
    c, s = np.cos(theta), -np.sin(theta)
    if is_density:
        # kept is sorted, so a < b and Re rho_ab is an upper-triangle coordinate
        upper = None if None in (a, b) else np.searchsorted(_triangles(size)[1], a * size + b)
        aa, bb, ab = column(a), column(b), column(upper, size)
        dark = (c * aa) * c + (c * ab) * s + (s * ab) * c + (s * bb) * s
    else:
        re_a, im_a, re_b, im_b = column(a), column(a, size), column(b), column(b, size)
        dark = np.abs((c * re_a + s * re_b) + 1j * (c * im_a + s * im_b)) ** 2
    driven = (controls["omega_r"] != 0.0) | (controls["g"] != 0.0)
    return np.where(driven, dark, np.nan)


def _check_positive(states: np.ndarray, steps: np.ndarray, grid: TimeGrid) -> None:
    """Raise IntegrationError at the first density matrix of the stack
    (S, k, k) with an eigenvalue below NEGATIVITY_LIMIT, naming its step.

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
            f"at step {steps[i]}, t={grid.time(steps[i]):g}; reduce dt"
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
    blocks, x0 = _linear_form(model, psi, kept)
    coordinates, columns = _integrate(model.schedule, grid, blocks, x0)
    return _record(model, grid, coordinates, columns, kept)


def _kept_states(coordinates: np.ndarray, size: int, is_density: bool) -> np.ndarray:
    """The states (S, k) or density matrices (S, k, k) on the k = ``size``
    kept basis states, from their real coordinates (S, 2k) or (S, k^2).  A
    density matrix is one product with the unit matrices, each entry one
    coordinate times +-1 plus zeros: exact on finite input, and Hermitian."""
    if is_density:
        units = _unit_matrices(size).reshape(size * size, -1).view(float)
        return (coordinates @ units).view(complex).reshape(-1, size, size)
    return coordinates[:, :size] + 1j * coordinates[:, size:]


def _linear_form(model: LinearHamiltonian, psi: np.ndarray, kept: np.ndarray) -> tuple:
    """The model and psi on the basis states ``kept``, a set that H', every
    X_k and every jump map into itself, as the real dx/dt = (A_static +
    sum_k c_k(t) A_k) x: the blocks (A_static, A_1, ..., A_K) and the
    initial coordinates x0.  A pure state steps in (Re psi, Im psi), with
    -iH the block [[Im H, Re H], [-Re H, Im H]]; a density matrix
    |psi><psi| in its k^2 real coordinates, with _real_liouvillian."""
    terms = [model.terms[channel] for channel in model.schedule.channels]  # in column order
    h = np.array([model.static, *terms])[:, kept[:, None], kept]
    psi = psi[kept]
    if not model.jumps:
        blocks = np.block([[h.imag, h.real], [-h.real, h.imag]])
        return blocks, np.concatenate((psi.real, psi.imag))
    jumps = [(rate, op[kept[:, None], kept]) for rate, op in model.jumps]
    size = len(kept) ** 2
    blocks = _real_liouvillian(h, jumps).reshape(-1, size, size)
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


def _real_liouvillian(h: np.ndarray, jumps) -> np.ndarray:
    """The master equation of the stack h = (H', X_1, ..., X_K) and the
    jumps (rate_j, L_j) in real coordinates, linear in the controls:
    dx/dt = (L_static + sum_k c_k(t) L_k) x, as the real stack
    (L_static; L_1; ...; L_K) of shape ((K+1) d^2, d^2).

    Column i of each block holds the coordinates of the matrix-form
    generator applied to the i-th coordinate unit matrix E_i, one batched
    product per block: with G = -iH' and E Hermitian,
    L_static E = G E + (G E)^dag + sum_j rate_j L_j E L_j^dag, and with
    G_k = -iX_k, L_k E = G_k E + (G_k E)^dag = -i [X_k, E].
    """
    dim = h.shape[-1]
    units = _unit_matrices(dim)
    blocks = np.empty((len(h), dim * dim, dim * dim))  # (block, coordinate, unit)
    for block, generator in zip(blocks, -1j * h):
        images = generator @ units
        images += images.conj().swapaxes(-1, -2)
        block[...] = _coordinates(images).T
    for rate, op in jumps:
        blocks[0] += rate * _coordinates(op @ units @ op.conj().T).T
    return blocks.reshape(-1, dim * dim)
