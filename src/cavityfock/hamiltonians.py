"""Time-dependent Hamiltonians of the four-level and effective three-level
atom-cavity models, assembled on a truncated product basis.

The cavity free-evolution term is absorbed into the detunings (the models
are written in the rotating frame), so both Hamiltonians contain only
detuning projectors and the drive couplings.  Both are linear in their
controls, H(t) = H_static + sum_k c_k(t) X_k (LinearHamiltonian).  All
matrices are dense; the default dimensions are 6 (effective) and 8 (full).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ModelMismatchError, ParameterDomainError
from .hilbert import (
    ProductBasis,
    atomic_raising,
    build_basis,
    ladder_operators,
    level_projector,
    transition_operator,
)
from .pulses import ControlSchedule, ControlValues, PulseParameters


@dataclass(frozen=True)
class Dissipation:
    """Decay rates in units of 1/T: gamma for the intermediate excited
    level, kappa for the cavity field."""

    gamma: float = 0.0
    kappa: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.gamma < math.inf and 0.0 <= self.kappa < math.inf):
            raise ParameterDomainError(
                f"decay rates must be finite and non-negative, got "
                f"gamma={self.gamma}, kappa={self.kappa}"
            )


@dataclass(frozen=True)
class ModelConfig:
    """Which model and drive to simulate, with its pulse parameters."""

    model: str
    drive: str
    pulses: PulseParameters
    dissipation: Dissipation | None = None

    def __post_init__(self):
        self.schedule()  # validates model, drive and the auxiliary detuning

    def schedule(self) -> ControlSchedule:
        return ControlSchedule(self.pulses, self.model, self.drive)


@lru_cache(maxsize=None)
def _coupling_terms(basis: ProductBasis) -> dict[str, np.ndarray]:
    """Static Hermitian coupling matrices, one per control channel."""
    a, _ = ladder_operators(basis)
    terms = {"p_e": level_projector(basis, "e")}
    s1_dag = atomic_raising(basis, "S1")
    s2_dag_a = atomic_raising(basis, "S2") @ a
    terms["x_omega_r"] = s1_dag + s1_dag.conj().T
    terms["x_g"] = s2_dag_a + s2_dag_a.conj().T
    if "em" in basis.levels:
        f1_dag = atomic_raising(basis, "F1")
        f2_dag_a = atomic_raising(basis, "F2") @ a
        terms["p_em"] = level_projector(basis, "em")
        # The auxiliary pump is driven in quadrature with the main pump;
        # this relative phase is what turns the far-detuned Raman exchange
        # into the correction coupling i*omega1 after elimination of |em>.
        terms["x_omega_m"] = 1j * (f1_dag - f1_dag.conj().T)
        terms["x_g_m"] = f2_dag_a + f2_dag_a.conj().T
    else:
        g1_g2_a = transition_operator(basis, "g1", "g2") @ a
        terms["x_omega1"] = 1j * (g1_g2_a - g1_g2_a.conj().T)
    for matrix in terms.values():
        matrix.setflags(write=False)
    return terms


def _check_basis(config: ModelConfig, basis: ProductBasis) -> None:
    if basis.levels != build_basis(config.model, basis.n_max).levels:
        raise ModelMismatchError(
            f"model {config.model!r} does not act on basis levels {basis.levels}"
        )


Jumps = tuple[tuple[float, np.ndarray], ...]


def jump_operators(config: ModelConfig, basis: ProductBasis) -> Jumps:
    """Lindblad jumps (rate, L) of the master equation: cavity loss
    (kappa, a) and spontaneous emission of the intermediate excited level
    into each ground level, (gamma/2, S1) and (gamma/2, S2), so that the
    total emission rate is gamma.  Empty without dissipation.
    """
    if config.dissipation is None:
        return ()
    if config.model != "effective":
        raise ModelMismatchError("dissipative dynamics is only defined for the effective model")
    a, _ = ladder_operators(basis)
    gamma, kappa = config.dissipation.gamma, config.dissipation.kappa
    return (
        (kappa, a),
        (0.5 * gamma, atomic_raising(basis, "S1").conj().T),
        (0.5 * gamma, atomic_raising(basis, "S2").conj().T),
    )


@dataclass(frozen=True, eq=False)
class LinearHamiltonian:
    """H(t) = static + sum_k c_k(t) X_k with fixed matrices X_k: the list
    form [H0, [X1, c1(t)], [X2, c2(t)], ...] of QuTiP.

    ``terms`` maps each control channel (a ControlValues field) to its X_k,
    and ``schedule`` evaluates the channels.  Without terms and schedule
    the Hamiltonian is the constant ``static``.  An open system has
    ``jumps``, and ``static`` carries their decay terms -i/2 sum_j r_j L_j^dag L_j.
    """

    basis: ProductBasis
    static: np.ndarray
    terms: dict[str, np.ndarray] = field(default_factory=dict)
    schedule: ControlSchedule | None = None
    jumps: Jumps = ()

    def evaluate(self, times: np.ndarray) -> tuple[ControlValues | None, np.ndarray]:
        """The control values at ``times``, all channels from one schedule
        call, and their columns c_k: a (len(times), K) array in the order of
        ``terms``.  A constant Hamiltonian has no values and no columns."""
        if self.schedule is None:
            return None, np.empty((len(times), 0))
        controls = self.schedule.values(times)
        return controls, np.stack([getattr(controls, name) for name in self.terms], axis=-1)


def linear_hamiltonian(config: ModelConfig, basis: ProductBasis) -> LinearHamiltonian:
    """The model Hamiltonian of ``config`` on ``basis``.

    Full model:
        H = delta |e><e| + delta_m |em><em|
            + omega_r S1^dag + g S2^dag a + i omega_m F1^dag + g_m F2^dag a + h.c.
    Effective model, H0 + H1':
        H0 = delta |e><e| + omega_r S1^dag + g S2^dag a + h.c. carries the plain
        adiabatic transfer; H1' = i omega1 |g1><g2| a + h.c. is the correction
        channel, present only with drive="tqd".

    With dissipation configured (effective model only) the model carries the
    jumps of jump_operators and the matching decay terms, so that the master
    equation preserves the trace.
    """
    _check_basis(config, basis)
    terms = _coupling_terms(basis)
    schedule = config.schedule()
    pulses = config.pulses

    static = pulses.delta * terms["p_e"]
    if config.model == "full":
        static = static + pulses.delta_m * terms["p_em"]
    jumps = jump_operators(config, basis)
    if jumps:
        static = static - 0.5j * sum(rate * (op.conj().T @ op) for rate, op in jumps)

    channels = {"omega_r": terms["x_omega_r"], "g": terms["x_g"]}
    if schedule.correction_active:
        channels["omega1"] = terms["x_omega1"]
    if schedule.auxiliary_active:
        channels["omega_m"] = terms["x_omega_m"]
        channels["g_m"] = terms["x_g_m"]
    return LinearHamiltonian(basis, static, channels, schedule, jumps)


def bound_hamiltonian(
    config: ModelConfig, basis: ProductBasis, include_decay: bool = False
) -> Callable[[float], np.ndarray]:
    """t -> H(t), one time at a time, of linear_hamiltonian(config, basis):
    with include_decay H' with its decay terms, else the model without them."""
    if not include_decay:
        config = replace(config, dissipation=None)
    elif config.dissipation is None:
        raise ModelMismatchError("dissipation is not configured")
    model = linear_hamiltonian(config, basis)
    d = basis.dimension
    matrices = np.reshape(list(model.terms.values()), (len(model.terms), d * d))
    return lambda t: model.static + (model.evaluate(np.array([t]))[1] @ matrices).reshape(d, d)


def effective_raman_coupling(omega_m: float, g_m: float, delta_m: float) -> float:
    """Far-detuned Raman coupling omega_m * g_m / delta_m."""
    if delta_m == 0:
        raise ParameterDomainError("delta_m must be non-zero")
    return omega_m * g_m / delta_m
