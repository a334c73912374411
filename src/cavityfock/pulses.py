"""Control-field synthesis for the dark-state transfer scheme.

All rates are expressed in units of 1/T and all times in units of T, where T
is the common Gaussian width of the pump and Stokes pulses, so every width
is 1 here; converting to a physical pulse length is a presentation-layer
concern.  The module provides

* the counter-intuitively ordered pump/Stokes Gaussian pair,
* the closed-form correction amplitude that makes the transfer exactly
  follow the instantaneous dark state,
* the physically realizable auxiliary pulse pair that synthesizes the same
  correction through a far-detuned level, derived from it,
* CHANNELS, the one table of which control channels each model carries;
  a ControlSchedule switches them on by drive.

The numerical correction term of any Hermitian schedule, the independent
oracle for the closed form, lives with the tests in ``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .errors import ParameterDomainError, _check_numbers

# Both Gaussians below this fraction of their peak count as switched off;
# the correction amplitude is clamped to zero there instead of evaluating a
# 0/0 ratio.
TAIL_CLAMP = 1e-30
_LOG_TAIL_CLAMP = math.log(TAIL_CLAMP)
# Pulses whose centers are farther apart than this (in T) have a correction
# amplitude that underflows to exactly zero wherever either pulse is on, so
# their separation is clipped to it: that changes no value, and keeps the
# amplitude, at most this many 1/T, finite.
_FAR_APART = 40.0

# The control channels of each model, in the column order of ControlSchedule.values:
# the full model synthesizes the correction omega1 through the auxiliary level em.
CHANNELS = {"effective": ("omega_r", "g", "omega1"), "full": ("omega_r", "g", "g_m", "omega_m")}


@dataclass(frozen=True)
class PulseParameters:
    """Amplitudes, centers, and detunings of all drives.

    omega0   peak Rabi amplitude of the pump/Stokes pair (1/T)
    tau_p    pump-pulse center offset, pump peaks at +tau_p (T)
    tau_s    Stokes-pulse center offset, Stokes peaks at -tau_s (T)
    delta    one-photon detuning of the intermediate excited level (1/T)
    delta_m  detuning of the auxiliary excited level (1/T)
    """

    omega0: float
    tau_p: float = 0.5
    tau_s: float = 0.5
    delta: float = 1.0
    delta_m: float = 18.0

    def __post_init__(self):
        _check_numbers(**vars(self))
        if not all(math.isfinite(value) for value in astuple(self)):
            raise ParameterDomainError(f"pulse parameters must be finite, got {self}")
        if self.omega0 < 0:
            raise ParameterDomainError(
                f"omega0 must be non-negative, got {self.omega0}"
            )


def gaussian_pulse(omega0: float, center: float, t):
    """Gaussian envelope omega0 * exp(-(t - center)**2) of unit width."""
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):  # a square past the float range is inf, its exponential 0
        return (omega0 * np.exp(_exponent(t, center))).reshape(t.shape)[()]


def stirap_pair(params: PulseParameters, t):
    """Pump and cavity-coupling envelopes (omega_r, g) at time t.

    The cavity (Stokes) pulse peaks at -tau_s and therefore precedes the
    pump, which peaks at +tau_p: the counter-intuitive ordering required for
    dark-state transfer.
    """
    return tuple(np.moveaxis(ControlSchedule(params).values(t), -1, 0))


def counterdiabatic_amplitude(params: PulseParameters, t):
    """Closed-form correction amplitude for the Gaussian pump/Stokes pair.

    Equals d/dt arctan(omega_r / g).  The textbook ratio
    (g*domega_r - dg*omega_r) / (omega_r**2 + g**2) underflows to 0/0 in the
    far tails, so the equivalent form

        2 (tau_p + tau_s) / (r + 1/r),    r = omega_r / g

    is evaluated with the Gaussian ratio r taken in log space.  The result is
    exact in real arithmetic, has the sign of tau_p + tau_s, and decays to
    zero in the tails; it is clamped to exactly zero once both pulses are
    below TAIL_CLAMP * omega0.
    """
    return ControlSchedule(params, drive="tqd").values(t)[..., 2]


def physical_pulse_pair(params: PulseParameters, t):
    """Auxiliary pulse pair (g_m, omega_m) at time t.

    omega_m = sqrt(delta_m |omega1|) and g_m = sign(omega1) omega_m, with
    omega1 the correction amplitude, so that the far-detuned Raman product
    g_m * omega_m / delta_m reproduces omega1 for every pulse arrangement.
    Both pulses are exactly zero where omega1 is clamped to zero.  The
    product under the root is taken over 64, which is exact, so that it
    stays finite for every finite delta_m, as |omega1| <= _FAR_APART.
    """
    return tuple(np.moveaxis(ControlSchedule(params, "full", "tqd").values(t)[..., 2:], -1, 0))


def _exponent(t: np.ndarray, center: float) -> np.ndarray:
    """-(t - center)**2, the log of a unit Gaussian at center, as a new flat array."""
    u = t.reshape(-1) - center
    np.multiply(u, u, out=u)
    return np.negative(u, out=u)


@dataclass(frozen=True)
class ControlSchedule:
    """Evaluable record of every control channel for one model/drive choice.

    ``channels`` are the ones that are on: all of the model's CHANNELS with
    drive="tqd", the pump/Stokes pair alone with drive="stirap".  Only
    they are evaluated; a channel that is off has no value at all.
    """

    params: PulseParameters
    model: str = "effective"
    drive: str = "stirap"

    def __post_init__(self):
        if not isinstance(self.params, PulseParameters):
            raise ParameterDomainError(f"pulses must be a PulseParameters, got {self.params!r}")
        if self.model not in CHANNELS:
            raise ParameterDomainError(f"unknown model {self.model!r}")
        if self.drive not in ("stirap", "tqd"):
            raise ParameterDomainError(f"unknown drive {self.drive!r}")
        if "g_m" in self.channels and not self.params.delta_m > 0:
            raise ParameterDomainError(
                f"delta_m must be positive for physical pulses, got {self.params.delta_m}"
            )

    @property
    def channels(self) -> tuple[str, ...]:
        channels = CHANNELS[self.model]
        return channels if self.drive == "tqd" else channels[:2]

    def values(self, t) -> np.ndarray:
        """The ``channels`` at ``t``, a time or an array of times, as a new
        last axis, of which the public pulse pairs and omega1 are views.  They
        are the rows of one new array, each written whole and in place so
        that every exponential takes one contiguous path; each pulse's
        exponent serves its Gaussian and omega1, which makes the auxiliary pair."""
        params, t = self.params, np.asarray(t, dtype=float)
        rows = np.empty((len(self.channels), t.size))
        # A square past the float range is inf, its exponential exactly 0.  An
        # exponent of -inf makes the ratio 0 or inf and damp exactly 0; two
        # make it NaN, where both pulses are off and omega1 is clamped below.
        with np.errstate(over="ignore", invalid="ignore"):
            exponent_p, exponent_s = _exponent(t, params.tau_p), _exponent(t, -params.tau_s)
            np.exp(exponent_p, out=rows[0])
            np.exp(exponent_s, out=rows[1])
            rows[:2] *= params.omega0
            if len(rows) > 2:  # omega1, or the full model's g_m, made from it in place
                # 1 / (r + 1/r) from log(r) = log(omega_r / g), where omega0
                # cancels, rewritten so neither exponential can overflow
                damp = np.subtract(exponent_p, exponent_s, out=rows[2])
                np.exp(np.negative(np.abs(damp, out=damp), out=damp), out=damp)
                separation = min(max(params.tau_p + params.tau_s, -_FAR_APART), _FAR_APART)
                np.divide(damp * (2.0 * separation), damp * damp + 1.0, out=damp)
                np.copyto(damp, 0.0, where=np.maximum(exponent_p, exponent_s) < _LOG_TAIL_CLAMP)
            if len(rows) > 3:
                omega1, omega_m = rows[2:]
                np.sqrt(np.abs(omega1, out=omega_m) * (params.delta_m / 64.0), out=omega_m)
                omega_m *= 8.0
                np.copysign(omega_m, omega1, out=omega1)
        return rows.T.reshape(t.shape + (len(rows),))
