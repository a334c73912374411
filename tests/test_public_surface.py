"""The package's public surface: its exported names and its version."""

import dataclasses
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import cavityfock

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
MODULES = [cavityfock] + [
    importlib.import_module(f"cavityfock.{info.name}")
    for info in pkgutil.iter_modules(cavityfock.__path__)
]
# References that only the tests use; they live in tests/oracles.py
TEST_ORACLES = (
    "generic_counterdiabatic",
    "DEGENERACY_RTOL",
    "DegenerateSpectrumError",
    "single_excitation_matrix",
    "dark_state_overlap",
    "dark_state_overlaps",
    "em_residual",
)


# Names that per-model tables replaced: pulses.CHANNELS, hilbert.LEVELS and
# the channel couplings of hamiltonians
REPLACED_BY_TABLES = ("EFFECTIVE_LEVELS", "FULL_LEVELS", "_coupling_terms", "_sweep_value")
# The second CSV row layout, its cell kind for "%.16e" text, the raising
# operators and level projectors that transition_operator gives, the
# field-kind sets and field names that scenarios.FIELD_KINDS gives, the
# padded record of every channel, which the schedule's columns replaced, and
# the stepper's closure, which _integrate runs itself
REMOVED = (
    "_sliced_rows",
    "_masked_rows",
    "_FALLBACK",
    "atomic_raising",
    "_RAISING_PAIRS",
    "level_projector",
    "OPTIONAL_FLOAT_FIELDS",
    "INT_FIELDS",
    "_FIELD_TYPES",
    "config_field_names",
    "ControlValues",
    "_linear_advance",
)


def test_exported_names_are_unique_and_resolve():
    names = cavityfock.__all__
    assert len(set(names)) == len(names)
    assert [name for name in names if not hasattr(cavityfock, name)] == []


def test_version_matches_pyproject():
    # a regex rather than tomllib, which Python 3.10 lacks
    text = PYPROJECT.read_text(encoding="utf-8")
    versions = re.findall(r'^version\s*=\s*"([^"]*)"\s*$', text, flags=re.MULTILINE)
    assert versions == [cavityfock.__version__]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_test_oracles_are_not_in_the_package(module):
    assert [name for name in TEST_ORACLES if hasattr(module, name)] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_names_replaced_by_the_model_tables_are_gone(module):
    assert [name for name in REPLACED_BY_TABLES if hasattr(module, name)] == []


def test_trajectory_holds_no_stepped_coordinate_indices():
    assert "reached" not in {f.name for f in dataclasses.fields(cavityfock.Trajectory)}


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_one_decoder_of_density_coordinates(module):
    assert not hasattr(module, "_density_matrices")


def test_schedule_has_channels_and_no_per_model_flags():
    assert isinstance(cavityfock.ControlSchedule.channels, property)
    for flag in ("correction_active", "auxiliary_active"):
        assert not hasattr(cavityfock.ControlSchedule, flag)


def test_schedule_values_are_the_only_control_columns():
    """ControlSchedule.values gives the stepper's columns; the model does
    not restack them."""
    assert not hasattr(cavityfock.LinearHamiltonian, "evaluate")


def test_eigensystem_is_not_placed_in_a_basis_by_the_package():
    assert not hasattr(cavityfock.EigenSystem, "embed")


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_one_csv_row_layout_and_no_raising_wrapper(module):
    assert [name for name in REMOVED if hasattr(module, name)] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_no_restricted_copy_of_the_model(module):
    """propagate restricts the matrix stack itself, in _linear_form."""
    assert not hasattr(module, "_restricted")


def test_trajectory_has_one_population_series_and_no_maximum():
    assert not hasattr(cavityfock.Trajectory, "max_population")


def test_trajectory_keeps_one_population_record():
    """The (S, d) populations are a field; no (S, k) copy of them is kept."""
    names = {field.name for field in dataclasses.fields(cavityfock.Trajectory)}
    assert "populations" in names
    assert "kept_populations" not in names
