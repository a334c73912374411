"""Property test of the command line over every numeric configuration field.

A run either succeeds with finite figures or fails with a typed error and its
exit code: 2 for a rejected configuration, 3 for an integration failure.  It
never raises and never prints NaN as a result, and a non-finite setting is
always rejected as a configuration error.  An integration failure is one of
the step, not of its inputs: the controls at every half step were finite.
"""

import contextlib
import io
import math
import os
import tempfile
from dataclasses import replace

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cavityfock import PRESETS, resolve_preset
from cavityfock.cli import main
from cavityfock.dynamics import NORM_DRIFT_LIMIT
from cavityfock.scenarios import _setup

# Finite ranges reach past the physical domain and into unstable steps, and
# the pulse parameters reach every finite float; the window stays a whole
# number of coarse steps.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
OVERRIDES = {
    "omega0_T": st.floats(-1.0, 1e3) | FINITE,
    "delta_T": st.floats(-1e3, 1e3),
    "delta_m_T": st.floats(-50.0, 1e3) | FINITE,
    "tau_p_over_T": st.floats(-2.0, 2.0) | FINITE,
    "tau_s_over_T": st.floats(-2.0, 2.0) | FINITE,
    "gamma_T": st.just(0.0) | st.floats(-1.0, 1e3),
    "kappa_T": st.just(0.0) | st.floats(-1.0, 1e3),
    "t_start_over_T": st.sampled_from([-4.0, -2.0, 0.0]),
    "t_end_over_T": st.sampled_from([-1.0, 2.0, 4.0]),
    "n_max": st.integers(0, 2),
    "stride": st.integers(0, 40),
}
FLOAT_FIELDS = sorted(set(OVERRIDES) - {"n_max", "stride"})
# At most one field set to a non-finite value, which must be rejected.
NON_FINITE = st.none() | st.tuples(
    st.sampled_from(FLOAT_FIELDS), st.sampled_from([math.nan, math.inf, -math.inf])
)


def _assert_finite_controls(preset, overrides):
    """The stepper's control columns of the run, at all half steps of its
    grid, are finite: an exit 3 came from the step, not from NaN inputs."""
    model, grid = _setup(replace(resolve_preset(preset), dt_over_T=0.01, **overrides))
    half_steps = grid.t_start + (0.5 * grid.dt) * np.arange(2 * grid.n_steps + 1)
    with np.errstate(all="ignore"):
        columns = model.schedule.values(half_steps)
    assert np.isfinite(columns).all(), (preset, overrides)


def _summary(stdout: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in stdout.splitlines())


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(
    preset=st.sampled_from(sorted(PRESETS)),
    overrides=st.fixed_dictionaries({}, optional=OVERRIDES),
    non_finite=NON_FINITE,
)
# pulses too far apart to overlap, whose correction once overflowed to NaN
# and was reported as a norm drift
@example(preset="fig2_tqd", overrides={"tau_p_over_T": 1e308}, non_finite=None)
def test_run_succeeds_with_finite_figures_or_fails_typed(preset, overrides, non_finite):
    if non_finite is not None:
        overrides[non_finite[0]] = non_finite[1]
    sets = ["dt_over_T=0.01"] + [f"{key}={value!r}" for key, value in overrides.items()]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "run.csv")
        argv = ["run", "--preset", preset, "--out", out]
        for setting in sets:
            argv += ["--set", setting]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            with np.errstate(all="ignore"):
                code = main(argv)
        assert code in (0, 2, 3), stderr.getvalue()
        assert non_finite is None or code == 2, stderr.getvalue()
        if code != 0:
            assert stderr.getvalue().startswith("error: ")
            if code == 3:
                _assert_finite_controls(preset, overrides)
            return
        figures = _summary(stdout.getvalue())
        for name in ("final_p_g1_0", "final_p_g2_1", "max_p_e_0", "final_n"):
            assert math.isfinite(float(figures[name])), figures
        assert float(figures["norm_or_trace_drift"]) <= NORM_DRIFT_LIMIT
        with open(out, encoding="utf-8") as handle:
            handle.readline()
            cells = [cell for line in handle for cell in line.rstrip("\n").split(",") if cell]
        assert all(math.isfinite(float(cell)) for cell in cells)
