"""Time-dependent Hamiltonians of the four-level and effective three-level
atom-cavity models, assembled on a truncated product basis.

The cavity free-evolution term is absorbed into the detunings (the models
are written in the rotating frame), so both Hamiltonians contain only
detuning projectors and the drive couplings.  Both are linear in their
controls, H(t) = H_static + sum_k c_k(t) X_k (LinearHamiltonian).  The
table _COUPLINGS gives the X_k of every control channel; a model takes
those of the channels its schedule switches on (pulses.CHANNELS) on the
levels of its basis (hilbert.LEVELS), and its schedule's values(t) are
the c_k, one column per term.  All matrices are dense; the default
dimensions are 6 (effective) and 8 (full).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ModelMismatchError, ParameterDomainError, _check_numbers
from .hilbert import (
    LEVELS,
    ProductBasis,
    _read_only,
    ladder_operators,
    transition_operator,
)
from .pulses import ControlSchedule, PulseParameters


@dataclass(frozen=True)
class Dissipation:
    """Decay rates in units of 1/T: gamma for the intermediate excited
    level, kappa for the cavity field."""

    gamma: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        _check_numbers(**vars(self))
        if not (0.0 <= self.gamma < math.inf and 0.0 <= self.kappa < math.inf):
            raise ParameterDomainError(
                f"decay rates must be finite and non-negative, got "
                f"gamma={self.gamma}, kappa={self.kappa}"
            )


@dataclass(frozen=True)
class ModelConfig:
    """Which model and drive to simulate, with its pulse parameters and decay rates."""

    model: str
    drive: str
    pulses: PulseParameters
    dissipation: Dissipation = Dissipation()

    def __post_init__(self):
        if not isinstance(self.dissipation, Dissipation):
            raise ParameterDomainError(
                f"dissipation must be a Dissipation, got {self.dissipation!r}"
            )
        self.schedule()  # validates model, drive and, for the auxiliary pulses, delta_m

    def schedule(self) -> ControlSchedule:
        return ControlSchedule(self.pulses, self.model, self.drive)


# The coupling X_k of each control channel, phase |upper><lower| (a if the
# cavity takes part) + h.c., as (phase, upper, lower, cavity).
_COUPLINGS = {
    "omega_r": (1, "e", "g1", False),
    "g": (1, "e", "g2", True),
    "omega1": (1j, "g1", "g2", True),
    "g_m": (1, "em", "g2", True),
    # The auxiliary pump is driven in quadrature with the main pump; this
    # relative phase is what turns the far-detuned Raman exchange into the
    # correction coupling i*omega1 after elimination of |em>.
    "omega_m": (1j, "em", "g1", False),
}


@lru_cache(maxsize=None)
def _coupling(basis: ProductBasis, channel: str) -> np.ndarray:
    """The static Hermitian coupling matrix X_k of a control channel."""
    phase, upper, lower, cavity = _COUPLINGS[channel]
    raising = transition_operator(basis, upper, lower)
    if cavity:
        raising = raising @ ladder_operators(basis)[0]
    return _read_only(phase * raising + (phase * raising).conj().T)


Jumps = tuple[tuple[float, np.ndarray], ...]


def jump_operators(config: ModelConfig, basis: ProductBasis) -> Jumps:
    """Lindblad jumps (rate, L) on either model: cavity loss (kappa, a) and
    spontaneous emission of |e> into each ground level, (gamma/2, |g1><e|)
    and (gamma/2, |g2><e|), so that its total rate is gamma.  A zero rate
    adds no jump, and |em> does not decay.
    """
    a, _ = ladder_operators(basis)
    gamma, kappa = config.dissipation.gamma, config.dissipation.kappa
    jumps = (
        (kappa, a),
        (0.5 * gamma, transition_operator(basis, "g1", "e")),
        (0.5 * gamma, transition_operator(basis, "g2", "e")),
    )
    return tuple((rate, op) for rate, op in jumps if rate > 0)


@dataclass(frozen=True, eq=False)
class LinearHamiltonian:
    """H(t) = static + sum_k c_k(t) X_k with fixed matrices X_k: the list
    form [H0, [X1, c1(t)], [X2, c2(t)], ...] of QuTiP.

    ``terms`` maps each channel that is on, and no other, to its X_k, and
    ``schedule.values`` gives the columns c_k in ``schedule.channels``
    order.  An open system has ``jumps``, and ``static`` carries their
    decay terms -i/2 sum_j r_j L_j^dag L_j.
    """

    basis: ProductBasis
    static: np.ndarray
    terms: dict[str, np.ndarray]
    schedule: ControlSchedule
    jumps: Jumps = ()

    def __post_init__(self):
        if set(self.terms) != set(channels := self.schedule.channels):
            raise ModelMismatchError(f"terms {tuple(self.terms)} are not the channels {channels}")


def linear_hamiltonian(config: ModelConfig, basis: ProductBasis) -> LinearHamiltonian:
    """The model Hamiltonian of ``config`` on ``basis``.

    Full model:
        H = delta |e><e| + delta_m |em><em|
            + omega_r S1^dag + g S2^dag a + i omega_m F1^dag + g_m F2^dag a + h.c.
    Effective model, H0 + H1':
        H0 = delta |e><e| + omega_r S1^dag + g S2^dag a + h.c. carries the plain
        adiabatic transfer; H1' = i omega1 |g1><g2| a + h.c. is the correction
        channel, present only with drive="tqd".

    With a nonzero decay rate the model carries the jumps of jump_operators
    and the matching decay terms, so that the master equation preserves the
    trace.
    """
    if basis.levels != LEVELS[config.model]:
        raise ModelMismatchError(
            f"model {config.model!r} does not act on basis levels {basis.levels}"
        )
    schedule = config.schedule()
    pulses = config.pulses

    static = pulses.delta * transition_operator(basis, "e", "e")
    if "em" in basis.levels:
        static = static + pulses.delta_m * transition_operator(basis, "em", "em")
    jumps = jump_operators(config, basis)
    if jumps:
        static = static - 0.5j * sum(rate * (op.conj().T @ op) for rate, op in jumps)

    terms = {channel: _coupling(basis, channel) for channel in schedule.channels}
    return LinearHamiltonian(basis, static, terms, schedule, jumps)


def bound_hamiltonian(
    config: ModelConfig, basis: ProductBasis, include_decay: bool = False
) -> Callable[[float], np.ndarray]:
    """t -> H(t), one time at a time, of linear_hamiltonian(config, basis):
    with include_decay H' with its decay terms, else the model without them."""
    if not include_decay:
        config = replace(config, dissipation=Dissipation())
    model = linear_hamiltonian(config, basis)
    matrices = np.array(list(model.terms.values()))
    return lambda t: model.static + np.tensordot(model.schedule.values(t), matrices, axes=1)
