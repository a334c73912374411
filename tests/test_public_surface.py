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
)


# Names that per-model tables replaced: pulses.CHANNELS, hilbert.LEVELS and
# the channel couplings of hamiltonians
REPLACED_BY_TABLES = ("EFFECTIVE_LEVELS", "FULL_LEVELS", "_coupling_terms", "_sweep_value")


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


def test_eigensystem_is_not_placed_in_a_basis_by_the_package():
    assert not hasattr(cavityfock.EigenSystem, "embed")
