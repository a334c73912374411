"""The trajectory CSV writer formats every cell exactly as "%.16e" % x.

The oracle is the row-by-row writer that the vectorized kernel replaced,
kept here as it was, and Python's own "%.16e" for single values.
"""

import math
import os
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityfock import PRESETS, resolve_preset, simulate
from cavityfock import scenarios
from cavityfock.scenarios import CSV_COLUMNS, _csv_blocks, write_trajectory_csv


def reference_write_trajectory_csv(trajectory, path):
    """The row-by-row writer: one "%.16e" template per row, then every
    "nan" removed.  A channel of the model that is off, which the
    trajectory does not record, is written as zeros; one that the model
    lacks, as empty cells."""
    full = trajectory.model == "full"
    undefined = np.full(len(trajectory.times), np.nan)
    zeros = np.zeros(len(trajectory.times))
    controls = trajectory.controls

    def population(level, n):
        if level not in trajectory.basis.levels:
            return undefined
        return trajectory.population_series(level, n)

    table = np.column_stack(
        [
            trajectory.times,
            population("g1", 0),
            population("e", 0),
            population("g2", 1),
            population("g2", 0),
            population("em", 0),
            trajectory.dark_overlap,
            trajectory.mean_photon_n,
            trajectory.mandel_q,
            trajectory.norm_or_trace,
            controls["omega_r"],
            controls["g"],
            undefined if full else controls.get("omega1", zeros),
            controls.get("g_m", zeros) if full else undefined,
            controls.get("omega_m", zeros) if full else undefined,
        ]
    )
    row = ",".join(["%.16e"] * len(CSV_COLUMNS)) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(CSV_COLUMNS) + "\n")
        handle.writelines((row % tuple(cells)).replace("nan", "") for cells in table.tolist())


def expected_rows(table):
    """The CSV bytes of a 2-D float table by Python's "%.16e"."""
    return "".join(
        ",".join(("%.16e" % value).replace("nan", "") for value in row) + "\n"
        for row in np.asarray(table).tolist()
    ).encode()


def is_tie(value):
    """Whether |value| lies exactly halfway between two 17-digit decimals."""
    scaled = Fraction(abs(value)) * Fraction(10) ** (16 - math.floor(math.log10(abs(value))))
    while scaled >= 10**17:
        scaled /= 10
    while scaled < 10**16:
        scaled *= 10
    return scaled - math.floor(scaled) == Fraction(1, 2)


def formatted(table):
    """The CSV bytes of a 2-D float table by the vectorized writer."""
    table = np.asarray(table, dtype=float)
    return b"".join(bytes(block) for block in _csv_blocks(list(table.T)))


@pytest.fixture
def fallbacks(monkeypatch):
    """The magnitude of every value that the kernel leaves to "%.16e"."""
    seen = []
    original = scenarios._fmt

    def counting(value):
        seen.append(value)
        return original(value)

    monkeypatch.setattr(scenarios, "_fmt", counting)
    return seen


@pytest.fixture
def mixed(monkeypatch):
    """For each block, in order, how many of its live columns change kind."""
    seen = []
    original = scenarios._block_rows

    def recording(cells, kind, *layout):
        seen.append(int((kind != kind[0]).any(axis=0).sum()))
        return original(cells, kind, *layout)

    monkeypatch.setattr(scenarios, "_block_rows", recording)
    return seen


@pytest.fixture
def digits(monkeypatch):
    """The number of cells that reach the digit kernel."""
    seen = []
    original = scenarios._decimal_digits

    def counting(x):
        seen.append(len(x))
        return original(x)

    monkeypatch.setattr(scenarios, "_decimal_digits", counting)
    return seen


class TestAgainstRowWriter:
    @pytest.mark.parametrize("stride", [1, 7, 10])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_is_byte_identical(self, name, stride, tmp_path):
        trajectory, _summary = simulate(replace(resolve_preset(name), stride=stride))
        self._assert_identical(trajectory, tmp_path)

    def test_larger_cutoff_is_byte_identical(self, tmp_path):
        trajectory, _summary = simulate(replace(resolve_preset("fig2f_dissipative_tqd"), n_max=3))
        self._assert_identical(trajectory, tmp_path)

    @pytest.mark.parametrize("stride", [1, 7, 10])
    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_earlier_start_is_byte_identical(self, name, stride, tmp_path):
        """From t = -16 T the populations' exponents drop from three digits
        to two within blocks of rows (TestLayouts counts those blocks at
        stride 1)."""
        config = replace(resolve_preset(name), stride=stride, t_start_over_T=-16.0)
        trajectory, _summary = simulate(config)
        self._assert_identical(trajectory, tmp_path)

    @staticmethod
    def _assert_identical(trajectory, tmp_path):
        write_trajectory_csv(trajectory, str(tmp_path / "new.csv"))
        reference_write_trajectory_csv(trajectory, str(tmp_path / "old.csv"))
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def blocks(rows, width=len(CSV_COLUMNS)):
    """The number of blocks that _csv_blocks cuts ``rows`` rows into."""
    return -(-rows // (scenarios._BLOCK_CELLS // width))


class TestLayouts:
    """Every block is laid out by column slices, and only a block with a
    column that changes kind is compressed by a mask; a column that is NaN
    in every row is never formatted."""

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_stride_ten_is_one_block(self, name, mixed):
        trajectory, _summary = simulate(resolve_preset(name))
        write_trajectory_csv(trajectory, os.devnull)
        assert len(trajectory.times) == 801
        assert len(mixed) == blocks(801) == 1

    @pytest.mark.parametrize("name", ["fig2_tqd", "fig3_full"])
    def test_all_nan_columns_never_reach_the_digits(self, name, digits):
        """The effective model lacks p_em_0, gm_T and omegam_T; the full
        model omega1_T, and its dark_overlap is undefined.  Of the 12 and
        13 other columns, p_g2_0 is zero in every row and is written as the
        text of "%.16e", and n_mean repeats p_g2_1, and the full model's
        omegam_T its gm_T, bit for bit: 10 columns reach the digits."""
        trajectory, _summary = simulate(replace(resolve_preset(name), stride=1))
        write_trajectory_csv(trajectory, os.devnull)
        assert sum(digits) == 10 * len(trajectory.times)

    def test_stride_one_blocks_change_kind_in_two_columns(self, mixed):
        """t changes sign in one block and mandel_q stops being NaN in
        another; in the other blocks of 8 001 rows (8 of 10) every column
        keeps one kind."""
        trajectory, _summary = simulate(replace(resolve_preset("fig2_tqd"), stride=1))
        write_trajectory_csv(trajectory, os.devnull)
        assert sorted(mixed) == [0] * (blocks(8001) - 2) + [1, 1]

    def test_earlier_start_changes_exponent_widths_within_blocks(self, mixed):
        """From t = -16 T, 20 001 rows: 7 of the 25 blocks have a column
        whose exponents drop from three digits to two, and none has more
        than 2 columns that change kind."""
        config = replace(resolve_preset("fig2_tqd"), stride=1, t_start_over_T=-16.0)
        trajectory, _summary = simulate(config)
        write_trajectory_csv(trajectory, os.devnull)
        assert (len(mixed), np.count_nonzero(mixed), max(mixed)) == (blocks(20001), 7, 2)

    @pytest.mark.parametrize("runs", [2, 17, 300])
    def test_columns_that_change_kind_against_percent_format(self, runs, mixed):
        """A column that changes sign, and another that changes exponent
        width, between runs of rows, from once per block to every other
        row: the block takes the mask in both columns."""
        rows = 600
        run = np.arange(rows) * runs // rows
        ramp = np.linspace(1.0, 2.0, rows)
        sign = np.where(run % 2, -1.0, 1.0)
        table = np.column_stack([sign * ramp, ramp * 10.0 ** (run % 2 * 120), np.exp(ramp)])
        assert formatted(table) == expected_rows(table)
        assert mixed == [2]

    @staticmethod
    def _table():
        """Two blocks of _BLOCK_CELLS // 15 rows.  The first holds one sign
        flip of t and a column that is NaN in some rows; in the second every
        column keeps one kind: each sign with two- and three-digit
        exponents, and a column that is NaN in this block only."""
        rows = 2 * (scenarios._BLOCK_CELLS // 15)
        t = np.linspace(-0.5, 1.5, rows)
        ramp = np.linspace(1.0, 2.0, rows)
        first = np.arange(rows) < rows // 2
        partial, second = np.where(first & (t < 0), np.nan, ramp), np.where(first, ramp, np.nan)
        nan = np.full(rows, np.nan)
        columns = [t, ramp, -ramp, 1e-120 * ramp, -1e150 * ramp, partial, nan, 3e-7 * ramp]
        columns += [-ramp * 1e5, np.full(rows, -0.0), np.zeros(rows), nan, second, nan, ramp**2]
        return np.column_stack(columns)

    def test_sign_flip_and_every_kind_against_percent_format(self, mixed):
        table = self._table()
        assert formatted(table) == expected_rows(table)
        assert mixed == [2, 0]

    def test_columns_that_percent_format_writes(self, mixed, fallbacks):
        """Columns wholly of cells that "%.16e" writes, or, in the first of
        two blocks, of infinities, are laid out by the spans of their kinds.
        The infinite columns end finite, so that they hold more than one
        value and reach the kernel."""
        step = scenarios._BLOCK_CELLS // 6
        rows = step + 40
        ramp = np.linspace(1.0, 2.0, rows)
        subnormal, large = ramp * 5e-320, ramp * 1e300
        infinite = np.where(np.arange(rows) < step, math.inf, ramp)
        table = np.column_stack([subnormal, -subnormal, large, -large, infinite, -infinite])
        assert formatted(table) == expected_rows(table)
        assert mixed == [0, 0]
        assert len(fallbacks) == 4 * rows

    def test_all_nan_table_is_separators_alone(self, fallbacks):
        assert formatted(np.full((3, 4), np.nan)) == b",,,\n" * 3
        assert not fallbacks


class TestAgainstPercentFormat:
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True))
    def test_single_value(self, value):
        """The value and, below it, its negation: the column never holds
        one value, so the kernel formats both cells."""
        table = [[value], [-value]]
        assert formatted(table) == expected_rows(table)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=20))
    def test_one_row(self, values):
        """The row and, below it, its negation, as above."""
        table = [values, [-value for value in values]]
        assert formatted(table) == expected_rows(table)

    def test_random_bit_patterns(self, fallbacks):
        """10^6 seeded random 64-bit patterns, every class of double among
        them.  Outside the kernel's range [1e-283, 1e299) every finite
        one goes to "%.16e"; inside it only near-ties do, and those are
        rare."""
        rng = np.random.default_rng(20)
        values = rng.integers(0, 2**64, size=10**6, dtype=np.uint64).view(np.float64)
        step = scenarios._BLOCK_CELLS
        for first, block in zip(range(0, len(values), step), _csv_blocks([values])):
            assert bytes(block) == expected_rows(values[first : first + step, None])
        magnitudes = np.abs(values)
        in_range = (magnitudes >= 1e-283) & (magnitudes < 1e299)
        inside = [value for value in fallbacks if 1e-283 <= abs(value) < 1e299]
        assert len(fallbacks) - len(inside) == np.count_nonzero(~in_range & np.isfinite(values))
        assert len(inside) < 1e-3 * np.count_nonzero(in_range)

    def test_edge_values(self, fallbacks):
        powers = [float(f"1e{e}") for e in range(-323, 309)]
        neighbours = [np.nextafter(p, direction) for p in powers for direction in (0.0, math.inf)]
        carries = [float(f"9.99999999999999995e{k}") for k in range(-300, 300)]
        ties = [
            1278675322477191.75,  # 10x ends in .5: half to even rounds up
            1278675322477192.25,  # and here down
        ]
        special = ties + [
            5e-324,
            2.2250738585072014e-308,
            1.7976931348623157e308,
            1e-283,
            1e299,
            0.0,
            math.inf,
            math.nan,
        ]
        values = np.array(powers + neighbours + carries + special)
        values = np.concatenate((values, -values))
        assert formatted(values[:, None]) == expected_rows(values[:, None])
        # inside its range the kernel leaves only exact ties to "%.16e",
        # and carries to the next power of ten are no ties
        undecided = {abs(value) for value in fallbacks if 1e-283 <= abs(value) < 1e299}
        assert set(ties) <= undecided
        assert all(is_tie(value) for value in undecided)

    def test_ties_round_half_to_even(self):
        assert formatted([[1278675322477191.75, 1278675322477192.25]]) == (
            b"1.2786753224771918e+15,1.2786753224771922e+15\n"
        )

    def test_negative_zero_and_nan(self):
        assert formatted([[-0.0, 0.0, math.nan, -math.nan]]) == (
            b"-0.0000000000000000e+00,0.0000000000000000e+00,,\n"
        )


def edge_values():
    """The values of TestAgainstPercentFormat.test_edge_values: every power
    of ten of the double range, its two neighbours, the carries to the next
    power, ties and the ends of each class of double, and their negations."""
    powers = [float(f"1e{e}") for e in range(-323, 309)]
    neighbours = [np.nextafter(p, direction) for p in powers for direction in (0.0, math.inf)]
    carries = [float(f"9.99999999999999995e{k}") for k in range(-300, 300)]
    special = [1278675322477191.75, 1278675322477192.25, 5e-324, 2.2250738585072014e-308]
    special += [1.7976931348623157e308, 1e-283, 1e299, 0.0, math.inf, math.nan]
    values = np.array(powers + neighbours + carries + special)
    return np.concatenate((values, -values))


class TestDecimalDigits:
    """The exponents and digits of _decimal_digits need no clip or range
    check: every E lies in [_EXP_MIN, _EXP_MAX], which the exponent tables
    cover, every D in [0, 10^17), which the digit tables cover, and the D of
    every decided cell but zero in [10^16, 10^17)."""

    @pytest.mark.parametrize("source", ["random_bit_patterns", "edge_values"])
    def test_exponents_and_digits_lie_in_range(self, source):
        if source == "edge_values":
            values = edge_values()
        else:  # those of TestAgainstPercentFormat.test_random_bit_patterns
            rng = np.random.default_rng(20)
            values = rng.integers(0, 2**64, size=10**6, dtype=np.uint64).view(np.float64)
        step = scenarios._BLOCK_CELLS
        for first in range(0, len(values), step):
            x = values[first : first + step]
            digits, exponent, decided = scenarios._decimal_digits(x)
            assert scenarios._EXP_MIN <= exponent.min() <= exponent.max() <= scenarios._EXP_MAX
            assert 0 <= digits.min() <= digits.max() < 10**17
            significant = digits[decided & (x != 0)]
            assert np.all((significant >= 10**16) & (significant < 10**17))
            magnitudes = np.abs(x)
            in_range = (magnitudes >= 1e-283) & (magnitudes < 1e299)
            assert not np.any(decided & ~in_range & (x != 0))


class TestDistinctColumns:
    """Each distinct column is formatted once: a column that repeats an
    earlier one's float64 bits reuses its cells, and a column of one value
    is the text of "%.16e" of that value, made once; every table is still
    byte for byte "%.16e"."""

    ROWS = 1200  # one block of up to 6 columns

    def check(self, columns, cells, digits):
        table = np.column_stack(columns)
        assert formatted(table) == expected_rows(table)
        assert sum(digits) == cells

    def test_negative_and_positive_zero_stay_apart(self, digits, fallbacks):
        """Constant columns of -0.0 and +0.0, and two columns that differ
        only in the sign of a zero mid-column, which compare equal as
        floats but not as bits."""
        ramp = np.linspace(1.0, 2.0, self.ROWS)
        signed = ramp.copy()
        signed[600] = -0.0
        unsigned = ramp.copy()
        unsigned[600] = 0.0
        columns = [np.full(self.ROWS, -0.0), np.zeros(self.ROWS), signed, unsigned]
        self.check(columns, 2 * self.ROWS, digits)
        assert fallbacks == [-0.0, 0.0]

    def test_columns_that_differ_in_their_last_row_stay_apart(self, digits):
        ramp = np.linspace(1.0, 2.0, self.ROWS)
        last = ramp.copy()
        last[-1] = np.nextafter(last[-1], 3.0)
        self.check([ramp, last], 2 * self.ROWS, digits)

    def test_a_constant_column_is_formatted_once(self, digits, fallbacks):
        ramp = np.linspace(1.0, 2.0, self.ROWS)
        self.check([ramp, np.full(self.ROWS, 0.1), ramp], self.ROWS, digits)
        assert fallbacks == [0.1]

    def test_a_duplicated_column_is_formatted_once(self, digits):
        ramp = np.linspace(-1e-5, 3.0, self.ROWS) ** 3
        self.check([ramp, -ramp, ramp.copy(), -ramp], 2 * self.ROWS, digits)

    def test_a_duplicate_of_a_column_that_changes_kind(self, digits, mixed):
        """t crosses 0 within the block, so its duplicate changes kind there
        too: both take the byte mask, from the one formatted column."""
        t = np.linspace(-1.0, 1.0, self.ROWS)
        self.check([t, np.exp(t), t.copy()], 2 * self.ROWS, digits)
        assert mixed == [1]


class TestMemory:
    def _peak(self, stride, tmp_path):
        trajectory, _summary = simulate(replace(resolve_preset("fig2_tqd"), stride=stride))
        path = str(tmp_path / "trajectory.csv")
        write_trajectory_csv(trajectory, path)  # build the lookup tables
        tracemalloc.start()
        try:
            write_trajectory_csv(trajectory, path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_peak_allocation_is_bounded_and_does_not_grow_with_rows(self, tmp_path):
        """Rows are written a block at a time: the row writer's peak was
        5.4 MB on 8 001 rows, most of it one Python list of the table."""
        dense = self._peak(1, tmp_path)
        sparse = self._peak(10, tmp_path)
        assert dense <= 2.5e6
        assert dense <= 1.5 * sparse
