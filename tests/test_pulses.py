import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavityfock import (
    ControlSchedule,
    ParameterDomainError,
    PulseParameters,
    counterdiabatic_amplitude,
    gaussian_pulse,
    physical_pulse_pair,
    stirap_pair,
)
from cavityfock.pulses import _FAR_APART, TAIL_CLAMP

from oracles import (
    DegenerateSpectrumError,
    generic_counterdiabatic,
    single_excitation_matrix,
)

STANDARD = PulseParameters(omega0=2.0)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestPulseParameters:
    def test_rejects_negative_amplitude(self):
        with pytest.raises(ParameterDomainError):
            PulseParameters(omega0=-0.1)

    @pytest.mark.parametrize("name", ["omega0", "tau_p", "tau_s", "delta", "delta_m"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_values(self, name, value):
        with pytest.raises(ParameterDomainError):
            PulseParameters(**{"omega0": 2.0, name: value})

    @pytest.mark.parametrize("name", ["omega0", "tau_p", "tau_s", "delta", "delta_m"])
    @pytest.mark.parametrize(
        "value", [True, False, "2", None, 2j], ids=["True", "False", "str", "None", "complex"]
    )
    def test_rejects_values_that_are_not_real_numbers(self, name, value):
        """A bool is not taken as 1.0 or 0.0, and text fails typed."""
        with pytest.raises(ParameterDomainError, match=f"{name} must be a real number"):
            PulseParameters(**{"omega0": 2.0, name: value})

    def test_takes_integers_and_numpy_reals(self):
        assert PulseParameters(2, np.int64(1), np.float64(0.5)) == PulseParameters(2.0, 1.0, 0.5)


class TestGaussianPulse:
    def test_peak_at_center(self):
        assert gaussian_pulse(2.0, 0.5, 0.5) == pytest.approx(2.0, abs=0)

    def test_one_width_from_center(self):
        expected = 2.0 * math.exp(-1.0)
        assert gaussian_pulse(2.0, 0.5, 1.5) == pytest.approx(expected, rel=1e-15)

    def test_symmetric_about_center(self):
        left = gaussian_pulse(2.0, 0.5, -0.5)
        right = gaussian_pulse(2.0, 0.5, 1.5)
        assert left == pytest.approx(right, rel=1e-15)

    def test_vectorized_matches_scalar(self):
        times = np.linspace(-3.0, 3.0, 13)
        values = gaussian_pulse(1.5, 0.2, times)
        for t, value in zip(times, values):
            assert value == gaussian_pulse(1.5, 0.2, float(t))


class TestStirapPair:
    def test_channels_cross_at_mid(self):
        omega_r, g = stirap_pair(STANDARD, 0.0)
        expected = 2.0 * math.exp(-0.25)
        assert omega_r == pytest.approx(expected, rel=1e-15)
        assert g == pytest.approx(expected, rel=1e-15)

    def test_values_at_stokes_peak(self):
        omega_r, g = stirap_pair(STANDARD, -0.5)
        assert g == pytest.approx(2.0, abs=0)
        assert omega_r == pytest.approx(2.0 * math.exp(-1.0), rel=1e-15)

    def test_mirror_symmetry_swaps_channels(self):
        rng = np.random.default_rng(11)
        for t in rng.uniform(-4.0, 4.0, size=25):
            omega_r, g = stirap_pair(STANDARD, t)
            omega_r_m, g_m = stirap_pair(STANDARD, -t)
            assert omega_r == pytest.approx(g_m, rel=1e-14)
            assert g == pytest.approx(omega_r_m, rel=1e-14)


class TestCounterdiabaticAmplitude:
    def test_peak_value(self):
        # closed form: equal pulses at t=0 give 2*(tau_p+tau_s)/T^2 * 1/2
        assert counterdiabatic_amplitude(STANDARD, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_matches_mixing_angle_derivative(self):
        """Oracle: central difference of arctan(omega_r/g) with step 1e-6."""
        h = 1e-6
        times = np.linspace(-3.0, 3.0, 2001)
        value = counterdiabatic_amplitude(STANDARD, times)

        def theta(t):
            omega_r, g = stirap_pair(STANDARD, t)
            return np.arctan2(omega_r, g)

        derivative = (theta(times + h) - theta(times - h)) / (2.0 * h)
        mask = value > 1e-8
        rel = np.abs(value[mask] - derivative[mask]) / value[mask]
        assert np.max(rel) <= 1e-6

    def test_tails_clamp_to_exact_zero(self):
        assert counterdiabatic_amplitude(STANDARD, 10.0) == 0.0
        assert counterdiabatic_amplitude(STANDARD, -10.0) == 0.0

    def test_nonnegative_and_peaked_at_mid(self):
        times = np.linspace(-6.0, 6.0, 4001)
        values = counterdiabatic_amplitude(STANDARD, times)
        assert np.all(values >= 0.0)
        assert np.argmax(values) == 2000

    def test_smooth_on_grid(self):
        dt = 1e-3
        times = np.arange(-4.0, 4.0 + dt, dt)
        values = counterdiabatic_amplitude(STANDARD, times)
        jumps = np.abs(np.diff(values))
        slope = np.abs(values[2:] - values[:-2]) / (2.0 * dt)
        assert np.max(jumps) <= np.max(slope) * dt * (1.0 + 1e-3)


def closed_form_pulse_pair(params, t):
    """The paper's closed form of the equal auxiliary pulses,
    alpha * exp(-(t**2 + tau_s**2)/T**2) / beta with
    beta**2 = exp(-2(t+tau_s)**2/T**2) + exp(-2(t-tau_p)**2/T**2) and
    alpha**2 = 2*delta_m/T, valid for tau_p = tau_s = T/2 only; beta is
    factored as exp(peak/2) * sqrt(...) so both exponentials may underflow."""
    T = 1.0  # the unit of time
    tt = np.asarray(t, dtype=float)
    t_sq = T * T
    alpha = math.sqrt(2.0 * params.delta_m / T)
    u = -2.0 * (tt + params.tau_s) ** 2 / t_sq
    v = -2.0 * (tt - params.tau_p) ** 2 / t_sq
    peak = np.maximum(u, v)
    beta_scaled = np.sqrt(np.exp(u - peak) + np.exp(v - peak))
    log_num = -(tt * tt + params.tau_s * params.tau_s) / t_sq
    return alpha * np.exp(log_num - 0.5 * peak) / beta_scaled


class TestPhysicalPulsePair:
    def test_channels_constructed_equal(self):
        times = np.linspace(-4.0, 4.0, 101)
        g_m, omega_m = physical_pulse_pair(STANDARD, times)
        assert np.array_equal(g_m, omega_m)

    def test_raman_product_reproduces_correction(self):
        times = np.linspace(-4.0, 4.0, 5001)
        g_m, omega_m = physical_pulse_pair(STANDARD, times)
        product = g_m * omega_m / STANDARD.delta_m
        target = counterdiabatic_amplitude(STANDARD, times)
        mask = target > 1e-8
        rel = np.abs(product[mask] - target[mask]) / target[mask]
        assert np.max(rel) <= 1e-12

    def test_matches_closed_form_at_half_width_offsets(self):
        times = np.linspace(-4.0, 4.0, 8001)
        g_m, omega_m = physical_pulse_pair(STANDARD, times)
        expected = closed_form_pulse_pair(STANDARD, times)
        for channel in (g_m, omega_m):
            assert np.max(np.abs(channel - expected) / expected) <= 1e-14

    def test_peak_from_direct_evaluation(self):
        alpha = math.sqrt(2.0 * STANDARD.delta_m)
        beta0 = math.sqrt(2.0 * math.exp(-2.0 * 0.25))  # sqrt(2) * exp(-1/4)
        expected = alpha * math.exp(-0.25) / beta0
        g_m, _ = physical_pulse_pair(STANDARD, 0.0)
        assert g_m == pytest.approx(expected, rel=1e-14)

    def test_finite_and_reproduce_correction_in_far_tails(self):
        # omega1 is clamped to exactly zero beyond |t| of about 8.8 T, and
        # the pair with it
        times = np.linspace(-50.0, 50.0, 201)
        g_m, omega_m = physical_pulse_pair(STANDARD, times)
        target = counterdiabatic_amplitude(STANDARD, times)
        assert np.all(np.isfinite(g_m)) and np.all(np.isfinite(omega_m))
        assert np.array_equal(g_m[target == 0.0], np.zeros(np.sum(target == 0.0)))
        assert np.any(target == 0.0) and np.any(target > 0.0)
        product = g_m * omega_m / STANDARD.delta_m
        assert np.allclose(product, target, rtol=1e-13, atol=0.0)

    def test_sign_follows_correction_for_reversed_order(self):
        params = PulseParameters(omega0=2.0, tau_p=-0.6, tau_s=0.2)
        times = np.linspace(-4.0, 4.0, 801)
        g_m, omega_m = physical_pulse_pair(params, times)
        target = counterdiabatic_amplitude(params, times)
        assert np.all(target < 0.0)
        assert np.all(omega_m > 0.0) and np.all(g_m < 0.0)
        rel = np.abs(g_m * omega_m / params.delta_m - target) / np.abs(target)
        assert np.max(rel) <= 1e-12

    def test_rejects_nonpositive_detuning(self):
        bad = PulseParameters(omega0=2.0, delta_m=0.0)
        with pytest.raises(ParameterDomainError):
            physical_pulse_pair(bad, 0.0)


def _transfer_hamiltonian(t):
    omega_r, g = stirap_pair(STANDARD, t)
    return single_excitation_matrix(omega_r, g, STANDARD.delta)


class TestGenericCounterdiabatic:
    def test_static_schedule_gives_zero(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = raw + raw.conj().T

        result = generic_counterdiabatic(lambda t: h, 0.7, 1e-6)
        assert np.max(np.abs(result)) == 0.0

    def test_hermitian_for_random_smooth_schedules(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            parts = []
            for _ in range(3):
                raw = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
                parts.append(raw + raw.conj().T)
            a, b, c = parts

            def schedule(t):
                return a + math.sin(t) * b + math.cos(0.7 * t) * c

            h1 = generic_counterdiabatic(schedule, rng.uniform(-2, 2), 1e-6)
            assert np.max(np.abs(h1 - h1.conj().T)) <= 1e-12

    def test_matches_closed_form_coupling(self):
        for t in np.linspace(-3.0, 3.0, 61):
            h1 = generic_counterdiabatic(_transfer_hamiltonian, t, 1e-6)
            expected = 1j * counterdiabatic_amplitude(STANDARD, t)
            assert abs(h1[0, 2] - expected) <= 1e-6 * abs(expected)

    def test_no_excited_coupling_at_crossing(self):
        h1 = generic_counterdiabatic(_transfer_hamiltonian, 0.0, 1e-6)
        assert abs(h1[0, 1]) <= 1e-9
        assert abs(h1[1, 2]) <= 1e-9
        assert abs(h1[0, 2]) == pytest.approx(1.0, rel=1e-8)

    def test_degenerate_spectrum_raises(self):
        with pytest.raises(DegenerateSpectrumError):
            generic_counterdiabatic(lambda t: np.eye(3, dtype=complex), 0.0, 1e-6)
        with pytest.raises(DegenerateSpectrumError):
            generic_counterdiabatic(lambda t: np.zeros((3, 3)), 0.0, 1e-6)

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ParameterDomainError):
            generic_counterdiabatic(_transfer_hamiltonian, 0.0, 0.0)


def plain_controls(params, t):
    """Every channel by the plain formulas of the module's docstrings, one
    whole-array operation at a time: the reference for the kernel that
    ControlSchedule.values shares with the public pulse functions."""
    with np.errstate(over="ignore", invalid="ignore"):
        exponent_p, exponent_s = -((t - params.tau_p) ** 2), -((t + params.tau_s) ** 2)
        damp = np.exp(-np.abs(exponent_p - exponent_s))
        separation = min(max(params.tau_p + params.tau_s, -_FAR_APART), _FAR_APART)
        omega1 = 2.0 * separation * damp / (1.0 + damp * damp)
        switched_off = (exponent_p < math.log(TAIL_CLAMP)) & (exponent_s < math.log(TAIL_CLAMP))
        omega1 = np.where(switched_off, 0.0, omega1)
        omega_m = 8.0 * np.sqrt(params.delta_m / 64.0 * np.abs(omega1))
        return {
            "omega_r": params.omega0 * np.exp(exponent_p),
            "g": params.omega0 * np.exp(exponent_s),
            "omega1": omega1,
            "g_m": np.copysign(omega_m, omega1),
            "omega_m": omega_m,
        }


class TestControlSchedule:
    def test_correction_silent_without_tqd(self):
        """A STIRAP schedule evaluates the pump/Stokes pair alone, on
        either model: no correction channel is on."""
        for model in ("effective", "full"):
            schedule = ControlSchedule(STANDARD, model=model, drive="stirap")
            for t in np.linspace(-4.0, 4.0, 41):
                assert np.array_equal(schedule.values(t), stirap_pair(STANDARD, t))

    def test_effective_tqd_drives_correction_channel(self):
        schedule = ControlSchedule(STANDARD, model="effective", drive="tqd")
        for t in (-1.0, 0.0, 0.5, 2.0):
            omega_r, g, omega1 = schedule.values(t)
            assert omega1 == counterdiabatic_amplitude(STANDARD, t)
            assert (omega_r, g) == stirap_pair(STANDARD, t)
        assert schedule.channels == ("omega_r", "g", "omega1")

    def test_full_tqd_drives_auxiliary_channels(self):
        schedule = ControlSchedule(STANDARD, model="full", drive="tqd")
        for t in (-1.0, 0.0, 1.3):
            # four columns: the correction omega1 is not a channel of the full model
            omega_r, g, g_m, omega_m = schedule.values(t)
            assert (g_m, omega_m) == physical_pulse_pair(STANDARD, t)
            assert (omega_r, g) == stirap_pair(STANDARD, t)

    def test_all_channels_finite_over_window(self):
        for model in ("effective", "full"):
            for drive in ("stirap", "tqd"):
                schedule = ControlSchedule(STANDARD, model=model, drive=drive)
                for t in np.linspace(-4.0, 4.0, 17):
                    assert np.isfinite(schedule.values(t)).all()

    def test_array_of_times_matches_each_time(self):
        times = np.linspace(-4.0, 4.0, 33)
        for model in ("effective", "full"):
            for drive in ("stirap", "tqd"):
                schedule = ControlSchedule(STANDARD, model=model, drive=drive)
                columns = schedule.values(times)
                assert columns.shape == (len(times), len(schedule.channels))
                for i, t in enumerate(times):
                    assert np.array_equal(columns[i], schedule.values(float(t)))

    @pytest.mark.parametrize(
        "params",
        [
            STANDARD,
            PulseParameters(omega0=3.7, tau_p=-0.9, tau_s=-0.2, delta_m=25.0),
            PulseParameters(omega0=2.0, tau_p=30.0, tau_s=30.0),
            PulseParameters(omega0=2.0, tau_p=1e308, tau_s=0.5),
            PulseParameters(omega0=1e300, tau_p=1e200, tau_s=1e200, delta_m=1e308),
        ],
        ids=["standard", "reversed", "far_apart", "clipped", "extreme"],
    )
    def test_values_are_the_plain_formulas_bit_for_bit(self, params):
        """Every column of every model and drive, and every public pulse
        function, equals the plain formulas bit for bit, the sign of each
        zero included.  The times reach the tails, where the correction is
        clamped to zero, and past the float range of the squares; the
        parameters include separations past _FAR_APART, which is clipped."""
        t = np.concatenate((np.linspace(-70.0, 70.0, 2801), [-1e200, 1e200, -np.inf, np.inf]))
        expected = plain_controls(params, t)
        public = dict(zip(("omega_r", "g"), stirap_pair(params, t)))
        public.update(zip(("g_m", "omega_m"), physical_pulse_pair(params, t)))
        public.update(omega1=counterdiabatic_amplitude(params, t))
        assert public.keys() == expected.keys()
        for channel, column in public.items():
            assert column.tobytes() == expected[channel].tobytes(), channel
        pump = gaussian_pulse(params.omega0, params.tau_p, t)
        assert pump.tobytes() == expected["omega_r"].tobytes()
        for model in ("effective", "full"):
            for drive in ("stirap", "tqd"):
                schedule = ControlSchedule(params, model=model, drive=drive)
                columns = np.stack([expected[channel] for channel in schedule.channels], axis=-1)
                assert schedule.values(t).tobytes() == columns.tobytes(), (model, drive)

    @pytest.mark.parametrize(
        "t", [0.3, np.float64(-1.2), np.array(2.5)], ids=["float", "float64", "0-d"]
    )
    def test_a_scalar_time_gives_one_row_of_channels(self, t):
        """bound_hamiltonian calls values with one time, and gets one
        value per channel, as the same time in an array does."""
        for model in ("effective", "full"):
            for drive in ("stirap", "tqd"):
                schedule = ControlSchedule(STANDARD, model=model, drive=drive)
                row = schedule.values(t)
                assert row.shape == (len(schedule.channels),)
                assert np.array_equal(row, schedule.values(np.array([t]))[0])
                assert schedule.values(np.full((2, 3), t)).shape == (2, 3, len(schedule.channels))

    def test_rejects_unknown_model_or_drive(self):
        with pytest.raises(ParameterDomainError):
            ControlSchedule(STANDARD, model="bogus", drive="stirap")
        with pytest.raises(ParameterDomainError):
            ControlSchedule(STANDARD, model="effective", drive="bogus")

    @pytest.mark.parametrize("params", [None, (2.0, 0.5, 0.5)], ids=["None", "tuple"])
    def test_rejects_params_that_are_not_pulse_parameters(self, params):
        for model in ("effective", "full"):
            with pytest.raises(ParameterDomainError, match="must be a PulseParameters"):
                ControlSchedule(params, model=model, drive="tqd")

    def test_auxiliary_pulses_need_positive_detuning(self):
        params = PulseParameters(omega0=2.0, delta_m=-1.0)
        with pytest.raises(ParameterDomainError):
            ControlSchedule(params, model="full", drive="tqd").values(0.0)

    def test_schedule_with_auxiliary_pulses_rejects_detuning_when_built(self):
        params = PulseParameters(omega0=2.0, delta_m=0.0)
        with pytest.raises(ParameterDomainError, match="delta_m must be positive"):
            ControlSchedule(params, model="full", drive="tqd")
        # delta_m drives nothing here: no auxiliary channel is on
        for model, drive in (("full", "stirap"), ("effective", "tqd")):
            schedule = ControlSchedule(params, model=model, drive=drive)
            assert "g_m" not in schedule.channels
            assert schedule.values(0.0).shape == (len(schedule.channels),)

    def test_channels_are_the_model_channels_switched_on_by_the_drive(self):
        full = ControlSchedule(STANDARD, model="full", drive="tqd")
        assert full.channels == ("omega_r", "g", "g_m", "omega_m")
        for model in ("effective", "full"):
            stirap = ControlSchedule(STANDARD, model=model, drive="stirap")
            assert stirap.channels == ("omega_r", "g")


class TestEveryFiniteParameter:
    """Every finite pulse parameter gives finite controls at every finite
    time, and numpy warns of nothing on the way."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        omega0=st.floats(0.0, sys.float_info.max),
        tau_p=FINITE,
        tau_s=FINITE,
        delta_m=st.floats(0.0, sys.float_info.max, exclude_min=True),
        times=st.lists(FINITE, max_size=8),
    )
    def test_controls_are_finite_without_warnings(self, omega0, tau_p, tau_s, delta_m, times):
        params = PulseParameters(omega0, tau_p, tau_s, delta_m=delta_m)
        t = np.concatenate((np.linspace(-4.0, 4.0, 17), times))
        for model in ("effective", "full"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = ControlSchedule(params, model, "tqd").values(t)
            assert np.isfinite(values).all()

    @pytest.mark.parametrize("tau_p, tau_s", [(1e308, 0.5), (1e200, 0.5), (1e308, 1e308)])
    def test_pulses_far_apart_give_no_correction(self, tau_p, tau_s):
        # the pump never meets the Stokes pulse, so d/dt arctan(omega_r/g)
        # is zero to far below the smallest float
        params = PulseParameters(omega0=2.0, tau_p=tau_p, tau_s=tau_s)
        t = np.linspace(-4.0, 4.0, 9)
        omega_r, _, omega1 = ControlSchedule(params, "effective", "tqd").values(t).T
        assert np.array_equal(omega1, np.zeros(9))
        assert np.array_equal(omega_r, np.zeros(9))
        g_m, omega_m = physical_pulse_pair(params, t)
        assert np.array_equal(g_m, np.zeros(9)) and np.array_equal(omega_m, np.zeros(9))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(tau_p=st.floats(-50.0, 50.0), separation=st.floats(-100.0, 100.0))
    def test_clipping_the_separation_changes_no_value(self, tau_p, separation):
        # the ratio form on the unclipped separation, near both pulses
        params = PulseParameters(omega0=2.0, tau_p=tau_p, tau_s=separation - tau_p)
        near = np.linspace(-9.0, 9.0, 1801)
        t = np.concatenate((tau_p + near, -params.tau_s + near))
        exponent_p, exponent_s = -((t - params.tau_p) ** 2), -((t + params.tau_s) ** 2)
        damp = np.exp(-np.abs(exponent_p - exponent_s))
        direct = 2.0 * (params.tau_p + params.tau_s) * damp / (1.0 + damp * damp)
        direct[np.maximum(exponent_p, exponent_s) < math.log(TAIL_CLAMP)] = 0.0
        assert np.array_equal(counterdiabatic_amplitude(params, t), direct)

    def test_largest_detuning_gives_the_root_of_its_product(self):
        # delta_m |omega1| passes the float range where omega1 = 2; its
        # root does not
        params = PulseParameters(omega0=2.0, tau_p=1.0, tau_s=1.0, delta_m=sys.float_info.max)
        g_m, omega_m = physical_pulse_pair(params, 0.0)
        omega1 = counterdiabatic_amplitude(params, 0.0)
        assert omega_m == pytest.approx(math.sqrt(params.delta_m) * math.sqrt(omega1), rel=1e-15)
        assert g_m == omega_m
