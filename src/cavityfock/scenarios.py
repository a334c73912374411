"""Named scenario presets, free-form configuration, CSV emission, sweeps."""

from __future__ import annotations

import errno
import math
import numbers
import operator
import os
import stat
import time
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from .dynamics import TimeGrid, Trajectory, propagate
from .errors import ConfigError, _is_of_kind
from .hamiltonians import Dissipation, LinearHamiltonian, ModelConfig, linear_hamiltonian
from .hilbert import _read_only, build_basis
from .pulses import CHANNELS, PulseParameters

# The basis states whose populations the CSV and the run summary report
_REPORTED_STATES = (("g1", 0), ("e", 0), ("g2", 1), ("g2", 0), ("em", 0))
# The control channels whose columns end the CSV, in its order, and their columns
_CONTROLS = dict(omega_r="omega_r_T", g="g_T", omega1="omega1_T", g_m="gm_T", omega_m="omegam_T")
CSV_COLUMNS = (
    "t_over_T",
    *(f"p_{level}_{n}" for level, n in _REPORTED_STATES),
    *("dark_overlap", "n_mean", "mandel_q", "norm_or_trace"),
    *_CONTROLS.values(),
)


@dataclass
class SimulationConfig:
    """Flat, unit-annotated run configuration (all rates in 1/T, times in T)."""

    scenario: str = "custom"
    model: str = "effective"
    drive: str = "stirap"
    omega0_T: float = 2.0
    delta_T: float = 1.0
    delta_m_T: float = 18.0
    tau_p_over_T: float = 0.5
    tau_s_over_T: float = 0.5
    gamma_T: float = 0.0
    kappa_T: float = 0.0
    t_start_over_T: float = -4.0
    t_end_over_T: float = 4.0
    dt_over_T: float = 1e-3
    n_max: int = 1
    output_path: str = "trajectory.csv"
    stride: int = 10


# Each field's kind, by its annotation (a string, as annotations are not
# evaluated in this module): the values it takes, by errors._is_of_kind, and
# how messages name them.
_KINDS = {
    "float": (numbers.Real, "a number"),
    "int": (numbers.Integral, "an integer"),
    "str": (str, "a string"),
}
FIELD_KINDS = {f.name: _KINDS[f.type] for f in fields(SimulationConfig)}
# The fields that a sweep may vary
NUMERIC_FIELDS = frozenset(name for name, (kind, _) in FIELD_KINDS.items() if kind is not str)

PRESETS: dict[str, dict] = {
    "fig2_stirap": dict(model="effective", drive="stirap", omega0_T=2.0),
    "fig2_tqd": dict(model="effective", drive="tqd", omega0_T=2.0),
    "fig2e_lossless": dict(model="effective", drive="tqd", omega0_T=5.0),
    "fig2f_dissipative_stirap": dict(
        model="effective", drive="stirap", omega0_T=5.0, gamma_T=5.0, kappa_T=0.05
    ),
    "fig2f_dissipative_tqd": dict(
        model="effective", drive="tqd", omega0_T=5.0, gamma_T=5.0, kappa_T=0.05
    ),
    "fig3_full": dict(model="full", drive="tqd", omega0_T=2.0, delta_m_T=18.0),
}


def resolve_preset(name: str) -> SimulationConfig:
    """Fully populated configuration for a named preset."""
    if name == "custom":
        return SimulationConfig()
    if not isinstance(name, str) or name not in PRESETS:
        raise ConfigError(
            f"unknown preset {name!r}; available presets: "
            + ", ".join(sorted(PRESETS))
        )
    return SimulationConfig(scenario=name, **PRESETS[name])


def model_config(sim: SimulationConfig) -> ModelConfig:
    pulses = PulseParameters(
        omega0=sim.omega0_T,
        tau_p=sim.tau_p_over_T,
        tau_s=sim.tau_s_over_T,
        delta=sim.delta_T,
        delta_m=sim.delta_m_T,
    )
    dissipation = Dissipation(gamma=sim.gamma_T, kappa=sim.kappa_T)
    return ModelConfig(sim.model, sim.drive, pulses, dissipation)


def time_grid(sim: SimulationConfig) -> TimeGrid:
    return TimeGrid(sim.t_start_over_T, sim.t_end_over_T, sim.dt_over_T, sim.stride)


# Each printed figure of merit by name: the CSV column (_table) that it
# reduces, and how: to its last entry, its maximum, or its largest |x - 1|
_last = operator.itemgetter(-1)
_FIGURES = {
    **{f"final_p_{level}_{n}": (f"p_{level}_{n}", _last) for level, n in _REPORTED_STATES},
    "max_p_e_0": ("p_e_0", np.max),
    "max_p_em_0": ("p_em_0", np.max),
    "final_n": ("n_mean", _last),
    "final_q": ("mandel_q", _last),
    "norm_or_trace_drift": ("norm_or_trace", lambda column: np.max(np.abs(column - 1.0))),
}


@dataclass
class RunSummary:
    """End-of-run figures: ``figures_of_merit`` holds each of _FIGURES by
    name, reduced from the table that the CSV is written from, and
    ``final_populations`` the last row of the trajectory's populations by label."""

    scenario: str
    model: str
    drive: str
    final_populations: dict[tuple[str, int], float]
    figures_of_merit: dict[str, float]
    wall_time_s: float

    def figures(self) -> dict[str, str]:
        """Every summary entry by name, as printed: a NaN figure is empty."""
        return {
            "scenario": self.scenario,
            "model": self.model,
            "drive": self.drive,
            **{name: _fmt(value) for name, value in self.figures_of_merit.items()},
            "wall_time_s": f"{self.wall_time_s:.3f}",
        }

    def lines(self) -> list[str]:
        return [f"{name}={value}" for name, value in self.figures().items()]


def _setup(sim: SimulationConfig) -> tuple[LinearHamiltonian, TimeGrid]:
    """The model and grid of a configuration: the one place where a
    configuration is checked, raising on any value outside its domain.  Each
    field must first hold a value of its type; nothing is coerced."""
    for name, (kind, expected) in FIELD_KINDS.items():
        value = getattr(sim, name)
        if not _is_of_kind(value, kind):
            raise ConfigError(f"{name} expects {expected}, got {value!r}")
    config = model_config(sim)
    basis = build_basis(sim.model, sim.n_max)
    return linear_hamiltonian(config, basis), time_grid(sim)


def simulate(
    sim: SimulationConfig, setup: tuple[LinearHamiltonian, TimeGrid] | None = None
) -> tuple[Trajectory, RunSummary]:
    """Run the configured simulation and summarize it (no file output).
    ``setup`` is the model and grid of ``sim`` if _setup has built them."""
    return _simulate(sim, *(setup or _setup(sim)))


def _simulate(
    sim: SimulationConfig, model: LinearHamiltonian, grid: TimeGrid
) -> tuple[Trajectory, RunSummary]:
    """simulate, with the model and grid of ``sim`` built by _setup."""
    started = time.perf_counter()
    trajectory = propagate(model, model.basis.state("g1", 0), grid)
    wall = time.perf_counter() - started
    table = _table(trajectory)
    figures = {name: float(reduce(table[column])) for name, (column, reduce) in _FIGURES.items()}
    summary = RunSummary(
        scenario=sim.scenario,
        model=sim.model,
        drive=sim.drive,
        final_populations=dict(zip(model.basis.labels(), trajectory.populations[-1].tolist())),
        figures_of_merit=figures,
        wall_time_s=wall,
    )
    return trajectory, summary


def run(sim: SimulationConfig) -> tuple[str, RunSummary]:
    """Simulate and write the trajectory CSV to the configured output path.
    The configuration is checked first, then the output path
    (_check_output), and only then is the model run."""
    setup = _setup(sim)
    _check_output(sim.output_path)
    trajectory, summary = simulate(sim, setup)
    write_trajectory_csv(trajectory, sim.output_path)
    return sim.output_path, summary


def _check_output(path: str) -> None:
    """Raise the OSError that opening ``path`` for writing would raise
    because of where it is.  A path that exists must be no directory and
    writable itself, as a file in a read-only directory or os.devnull may
    be.  Otherwise its directory must be one that exists and can be written.
    A path that ends in a separator names a directory once its directory
    is found.  The empty path names no file.  Nothing is created."""
    try:
        if not path:
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
        directory = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        if os.path.isdir(path):
            raise directory
        if os.path.exists(path):  # never so with a trailing separator
            target, mode = path, os.W_OK
        else:
            target = os.path.dirname(path.rstrip(os.sep)) or os.curdir
            mode = os.W_OK | os.X_OK
            if not stat.S_ISDIR(os.stat(target).st_mode):  # raises as open would
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
            if path.endswith(os.sep):
                raise directory
        if not os.access(target, mode):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as error:
        raise type(error)(error.errno, error.strerror, path) from None


def _fmt(value: float) -> str:
    return "" if math.isnan(value) else f"{value:.16e}"


def _table(trajectory: Trajectory) -> dict[str, np.ndarray]:
    """Each CSV column of the trajectory by name, in CSV order: its own
    arrays, not copies, a broadcast zero for a channel of the model that is
    off, and a broadcast NaN for a level or channel that the model lacks.
    Every column is NaN wherever its value is undefined."""
    levels, channels = trajectory.basis.levels, CHANNELS[trajectory.model]
    undefined = np.broadcast_to(np.nan, trajectory.times.shape)
    off = np.broadcast_to(0.0, trajectory.times.shape)
    controls = trajectory.controls
    columns = [
        trajectory.times,
        *(
            trajectory.population_series(level, n) if level in levels else undefined
            for level, n in _REPORTED_STATES
        ),
        trajectory.dark_overlap,
        trajectory.mean_photon_n,
        trajectory.mandel_q,
        trajectory.norm_or_trace,
        *(controls.get(c, off) if c in channels else undefined for c in _CONTROLS),
    ]
    return dict(zip(CSV_COLUMNS, columns))


def write_trajectory_csv(trajectory: Trajectory, path: str) -> None:
    """Write the trajectory's table (_table) with the fixed column schema.

    Columns that do not apply to the trajectory's model are left empty, as
    are undefined dark_overlap / mandel_q entries.  Every other cell is
    byte for byte the text of ``"%.16e" % x``, made by a numpy kernel
    (_e16_cells) for 801 rows of the 15 columns at a time, so the memory
    used does not grow with the row count.  The kernel takes the 17 digits
    of each |x| from an exact double-double product with a power of ten,
    rounds them to nearest as correctly rounded dtoa does, and lays out the
    bytes of all cells at once.  A finite cell whose rounding it cannot prove -
    within 2^-40 of a tie, subnormal, or with |x| outside [1e-283, 1e299) -
    is formatted by ``"%.16e" % x`` itself; on the presets that is no cell
    at all.  Each distinct column is formatted once (_csv_blocks), as one
    of two kinds: a column of one value in every row is one text, empty for
    NaN, as in a level or channel the model lacks, and any other column is
    a column of the kernel's table, which a column that repeats an earlier
    one bit for bit shares.  Every block of rows is laid out by column
    slices (_block_rows).
    """
    table = _table(trajectory)
    with open(path, "wb") as handle:
        handle.write((",".join(table) + "\n").encode())
        handle.writelines(_csv_blocks(list(table.values())))


# Rows are formatted 12 015 cells at a time, 801 trajectory rows, so that a
# trajectory at the default stride is one block, and the temporaries stay
# under 1 MB.  Blocks of 16 384 cells grew the heap on every stride-1 write
# that followed a simulation.
_BLOCK_CELLS = 12015
# Decimal exponents E whose scale 10^(16-E), and the numbers of that
# exponent, split into halves without overflow; the fast path takes
# 1e-283 <= |x| < 1e299, whose exponents all lie in this range.
_EXP_MIN, _EXP_MAX = -284, 299
_FAST_MIN, _FAST_MAX = 1e-283, 1e299
_SPLITTER = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
# The scaled fraction carries an error below 2^-47; fractions closer than
# this to 1/2, the true ties among them, are left to "%.16e".
_TIE_BOUND = 2.0**-40
_CELL = 24  # sign, d.dddddddddddddddd, e, exponent sign, 2 or 3 digits
_FIXED = (0, 2, 19), np.frombuffer(b"-.e", dtype=np.uint8)  # bytes of every cell; "-" if signed


def _csv_blocks(columns: list[np.ndarray]):
    """The rows of equal-length float columns as CSV bytes, one block of
    rows at a time: each cell as ``"%.16e" % x``, NaN cells empty.

    Each column is classified once, into one entry of a layout.  A column
    whose float64 bits are the same in every row is the text of ``"%.16e"``
    of that value, empty for NaN.  Any other column is the index of its
    column in the table that _e16_cells formats block by block, which a
    column that repeats an earlier one bit for bit shares with it (int64
    views, so -0.0 and +0.0 stay apart).  Every block is laid out by
    _block_rows.  The table and cell buffers are allocated, and the bytes
    that every cell writes are laid out, once per call.
    """
    rows = len(columns[0])
    varying, layout = [], []
    for column in columns:
        bits = column.view(np.int64)
        if bits[0] == bits[-1] and (bits == bits[0]).all():
            layout.append(np.frombuffer(_fmt(column[0]).encode(), dtype=np.uint8))
            continue
        for p, other in enumerate(varying):
            other = other.view(np.int64)
            if bits[0] == other[0] and bits[-1] == other[-1] and np.array_equal(bits, other):
                layout.append(p)
                break
        else:
            layout.append(len(varying))
            varying.append(column)
    step = max(1, min(rows, _BLOCK_CELLS // len(columns)))
    table = np.empty((step, len(varying)))
    cells = np.empty((step * len(varying), _CELL), dtype=np.uint8)
    cells[:, _FIXED[0]] = _FIXED[1]
    for first in range(0, rows, step):
        part = table[: min(step, rows - first)]
        for p, column in enumerate(varying):
            part[:, p] = column[first : first + step]
        kind = _e16_cells(part, cells).reshape(part.shape)
        yield _block_rows(cells, kind, layout)


def _block_rows(cells: np.ndarray, kind: np.ndarray, layout: list) -> bytearray:
    """The CSV bytes of a block of rows laid out by column slices.

    ``kind`` (rows, table columns) holds the kinds of the cells of
    ``cells`` (_e16_cells).  Each entry of ``layout`` (_csv_blocks) is a
    column's one text, a uint8 array written in every row, or the index of
    its column in the table.  A column of the table is copied into the
    rows as one slice of its cells' slots: the text span of its kind
    (_decimal_tables) when every cell of the column in this block has one
    kind, and the whole slot otherwise; in each cell of such a mixed column
    the bytes that its kind does not write are set to NUL, which no text
    holds.  The separators are written once.  Only a block with a mixed
    column is then compressed, its bytes taken without their NULs.  The
    rows are laid out in a bytearray, so that the packing reads them in
    place.
    """
    count = len(kind)
    kept, spans = _decimal_tables()[4:]
    mixed = (kind != kind[0]).any(axis=0)
    starts, stops = np.where(mixed[:, None], (0, _CELL), spans[kind[0]]).T
    slots = cells[: kind.size].reshape(kind.shape + (_CELL,))
    texts = [
        entry if isinstance(entry, np.ndarray) else slots[:, entry, starts[entry] : stops[entry]]
        for entry in layout
    ]
    ends = np.cumsum([text.shape[-1] + 1 for text in texts])  # one past each separator
    block = bytearray(count * int(ends[-1]))
    rows = np.frombuffer(block, dtype=np.uint8).reshape(count, -1)
    rows[:, ends - 1] = ord(",")
    rows[:, -1] = ord("\n")
    for end, text, entry in zip(ends.tolist(), texts, layout):
        row_cells = rows[:, end - 1 - text.shape[-1] : end - 1]
        row_cells[...] = text
        if isinstance(entry, int) and mixed[entry]:
            row_cells &= np.take(kept, kind[:, entry], axis=0)
    return block.replace(b"\0", b"") if mixed.any() else block


@lru_cache(maxsize=None)
def _decimal_tables() -> tuple[np.ndarray, ...]:
    """Lookup tables of _e16_cells and of the CSV row layouts, built on
    first use.

    ``scales`` has four rows over the exponents E in [_EXP_MIN, _EXP_MAX]:
    the nearest double h to 10^(16-E), the Veltkamp halves of h, and the
    nearest double to the remainder 10^(16-E) - h; both roundings are the
    correct ones of Python integer division.  ``quads`` holds the ASCII of
    0000..9999 as one uint32 each, and ``exponents`` that of the sign and
    the digits of each exponent in [-400, 400], left-aligned: two digits
    fill the first two of the three places; ``widths`` holds the kind bit
    of each one's width, 2 for three digits and 0 for two.  A cell of kind
    k has a minus sign if k & 1, a three-digit exponent if k & 2, is NaN,
    with no text, if k & 4, and infinite if k & 8.  Its text is bytes
    [start, stop) of its slot, row k of ``spans``, and row k of ``kept``
    is 0xFF on those bytes and 0 on the others.
    """
    scales = []
    for exponent in range(_EXP_MIN, _EXP_MAX + 1):
        k = 16 - exponent
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        high = num / den
        p, q = high.as_integer_ratio()
        split = _SPLITTER * high
        top = split - (split - high)
        scales.append((high, top, high - top, (num * q - p * den) / (den * q)))
    numbers = np.arange(10_000)
    ascii = np.empty((len(numbers), 4), dtype=np.uint8)
    for place, unit in enumerate((1000, 100, 10, 1)):
        ascii[:, place] = numbers // unit % 10 + ord("0")
    magnitude = np.abs(numbers[:801] - 400)
    exponents = ascii[magnitude]
    exponents[magnitude < 100, 1:3] = exponents[magnitude < 100, 2:]
    exponents[:, 0] = np.where(numbers[:801] < 400, ord("-"), ord("+"))
    widths = np.where(magnitude < 100, 0, 2).astype(np.uint8)
    kinds = numbers[:10]  # the finite and NaN kinds, then the two infinities
    spans = np.stack((1 - kinds % 2, 23 + kinds // 2 % 2), axis=1)
    spans[4:8] = 0, 0
    spans[8:] = (4, 7), (3, 7)  # "inf" and "-inf" in the digit bytes
    inside = (spans[:, :1] <= numbers[:_CELL]) & (numbers[:_CELL] < spans[:, 1:])
    kept = np.where(inside, 255, 0).astype(np.uint8)
    tables = (
        np.array(scales).T.copy(),
        ascii.view(np.uint32).ravel(),
        exponents.view(np.uint32).ravel(),
        widths,
        kept,
        spans,
    )
    return tuple(map(_read_only, tables))


def _scaled(a: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * 10^(16 - E) as p + lo, where index = E - _EXP_MIN is the column
    of E's scale (_decimal_tables): p = fl(a h) and lo the rest, from Dekker's
    exact product a h = p + err (Numer. Math. 18, 224 (1971)), with a split
    by Veltkamp as numpy has no fused multiply-add, plus a times the
    remainder 10^(16 - E) - h.  Each scale is gathered when it is needed,
    two into one buffer, so that seven arrays of len(a) are live at most."""
    high, high_top, high_bottom, rest = _decimal_tables()[0]
    p = a * high[index]
    top = a * _SPLITTER
    bottom = top - a
    top -= bottom
    np.subtract(a, top, out=bottom)
    half = high_top[index]
    err = top * half
    err -= p
    err += np.multiply(bottom, half, out=half)
    np.take(high_bottom, index, out=half, mode="clip")
    err += np.multiply(top, half, out=top)
    err += np.multiply(bottom, half, out=bottom)
    lo = np.multiply(a, np.take(rest, index, out=half, mode="clip"), out=top)
    lo += err
    return p, lo


def _decimal_digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 17 significant digits D (int64) and the decimal exponent E of
    each x, with |x| = D 10^(E-16) correctly rounded, and the mask of the
    cells that they decide: zeros (D = 0, E = 0) and finite |x| in
    [1e-283, 1e299) whose rounding is not a near-tie.

    E is floor(log10 |x|), corrected by one where the scaled value
    y = |x| 10^(16-E) falls outside [10^16, 10^17), which only a p at or
    past an end of that range can show.  y is a double-double (_scaled)
    whose error is far below _TIE_BOUND, so rounding it to the nearest
    integer is the correct rounding of Gay's dtoa (AT&T Numerical Analysis
    Manuscript 90-10 (1990)) whenever y is not within _TIE_BOUND of a half.
    A carry to 10^17 moves to the next exponent.

    No E leaves [_EXP_MIN, _EXP_MAX], and the D of each nonzero decided
    cell lies in [10^16, 10^17), with no clip or check: log10 is off by far
    less than one on [1e-283, 1e299), whose exponents the scales cover with
    one to spare at each end, the correction puts y in [10^16, 10^17), and
    every other cell is scaled as 1.0, which gives D = 10^16 and E = 0.
    Only the corrected exponents are clipped, as a guard.
    """
    a = np.abs(x)
    decided = (a >= _FAST_MIN) & (a < _FAST_MAX)  # False for NaN
    a[~decided] = 1.0
    exponent = np.log10(a)
    np.floor(exponent, out=exponent)
    exponent = exponent.astype(np.intp)
    exponent -= _EXP_MIN  # the index of its scale (_scaled), until E is returned
    p, lo = _scaled(a, exponent)
    ends = np.flatnonzero((p <= 1e16) | (p >= 1e17))  # where y may leave the range
    p_end, lo_end = p[ends], lo[ends]
    shift = ((p_end > 1e17) | ((p_end == 1e17) & (lo_end >= 0))).astype(np.intp)
    shift -= (p_end < 1e16) | ((p_end == 1e16) & (lo_end < 0))
    moved = ends[shift != 0]
    if len(moved):
        exponent[moved] = np.clip(exponent[moved] + shift[shift != 0], 0, _EXP_MAX - _EXP_MIN)
        p[moved], lo[moved] = _scaled(a[moved], exponent[moved])
    nearest = np.rint(lo)
    lo -= nearest  # y - D, exact near +-1/2
    digits = p.astype(np.int64)
    digits += nearest.astype(np.int64)
    carry = np.flatnonzero(digits == 10**17)
    digits[carry] = 10**16
    exponent[carry] += 1
    exponent += _EXP_MIN
    decided &= np.abs(lo, out=lo) < 0.5 - _TIE_BOUND
    zero = np.flatnonzero(x == 0)
    digits[zero] = 0  # E is 0 already, as for every cell out of range
    decided[zero] = True
    return digits, exponent, decided


def _e16_cells(table: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Lay out each cell of a (rows, columns) float table in its _CELL-byte
    slot, the rows of ``cells`` in the table's order, and return the kind
    of each cell (uint8, _decimal_tables): the text of ``"%.16e" % x`` is
    bytes [start, stop) of the slot of a cell of that kind, empty for NaN.

    The digits and exponents come from _decimal_digits.  The _FIXED bytes
    of every slot are in place; the digits are written four at a time from
    a lookup table, and the exponent's sign and digits as one uint32.  A
    kind is the width bit of the exponent, also from a table, and the sign
    bit; only the cells that are not finite take a NaN or infinity bit.
    Zeros keep their sign.  The finite cells that _decimal_digits leaves
    undecided - near-ties, subnormals and magnitudes out of range - are
    formatted with ``"%.16e"`` one by one, and each text goes where the
    kernel writes the cells of its sign and exponent width, whose kind it
    takes.  An infinity writes "-inf" into digit bytes 3-6, which the
    digits of every block rewrite; its kind's span starts after the sign
    unless it is negative.
    """
    x = table.ravel()
    cells = cells[: len(x)]
    digits, exponent, decided = _decimal_digits(x)
    finite = np.isfinite(x)
    slow = np.flatnonzero(finite > decided)
    special = np.flatnonzero(~finite)

    _, quads, exponents, widths = _decimal_tables()[:4]
    high = digits // 10**8
    digits -= high * 10**8
    lead = high // 10**8
    high -= lead * 10**8
    cells[:, 1] = lead + ord("0")
    quad = cells[:, 3:19].view(np.uint32)
    for column, part in enumerate((high, digits)):
        upper = part // 10**4
        quad[:, 2 * column] = quads[upper]
        part -= upper * 10**4
        quad[:, 2 * column + 1] = quads[part]
    exponent += 400
    cells[:, 20:24].view(np.uint32)[:, 0] = exponents[exponent]
    kind = widths[exponent]
    kind |= np.signbit(x).view(np.uint8)
    if len(slow):
        # the text of |x| follows the sign byte, and fills the slot if the
        # exponent has three digits
        texts = [_fmt(value).encode() for value in np.abs(x[slow]).tolist()]
        padded = np.array(texts, dtype=f"S{_CELL - 1}").view(np.uint8)
        cells[slow, 1:] = padded.reshape(len(slow), _CELL - 1)
        kind[slow] = kind[slow] & 1 | (cells[slow, -1] != 0).view(np.uint8) << 1
    if len(special):
        infinite = np.isinf(x[special])
        kind[special] |= np.where(infinite, np.uint8(8), np.uint8(4))
        cells[special[infinite], 3:7] = np.frombuffer(b"-inf", dtype=np.uint8)
    return kind


SWEEP_COLUMNS = ("parameter", "value", *_FIGURES)


def sweep(base: SimulationConfig, parameter: str, values, out_path: str) -> str:
    """Re-run the base configuration once per parameter value.

    One summary row is written per value, in input order.  Only numeric
    fields can be swept, with a number for each value.  Every value's model
    and grid are built, which checks it, and then the output path is
    checked (_check_output), before the first run.
    """
    if parameter not in NUMERIC_FIELDS:
        raise ConfigError(
            f"parameter {parameter!r} is not a numeric configuration field; "
            f"choose from {', '.join(sorted(NUMERIC_FIELDS))}"
        )
    configs = [replace(base, **{parameter: value}) for value in values]
    built = [_setup(config) for config in configs]
    _check_output(out_path)
    text = str if FIELD_KINDS[parameter][0] is numbers.Integral else _fmt  # exact at any size
    rows = [",".join(SWEEP_COLUMNS)]
    for config, setup in zip(configs, built):
        figures = _simulate(config, *setup)[1].figures_of_merit.values()
        rows.append(",".join([parameter, text(getattr(config, parameter)), *map(_fmt, figures)]))
    with open(out_path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(rows) + "\n")
    return out_path
