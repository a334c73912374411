"""Machine speed, measured by a fixed probe kernel during every timed call.

On a shared machine a single thread can run at very different speeds from
one second to the next (on the 2-vCPU development machine the same code
switched between two speeds about 60 % apart, in episodes of seconds to
tens of seconds).  Those swings would swamp any change in the program.  So
the runner times the probe at the start and end of each call, at the entry
and exit of every simulation inside it, and during a simulation at the
first recorded sample after each MARK_INTERVAL_S.  Each stretch of program
time between two probes is rescaled to a machine on which the probe takes
NOMINAL_S:

    normalized = wall * (NOMINAL_S / mean(probe before, probe after)) ** SENSITIVITY

Probe time itself is not program time.  The probe mixes what the program
spends its time on: interpreted Python and numpy calls on 6x6 complex
matrices.  SENSITIVITY < 1 because a probe is a short, noisy sample of the
speed over a stretch: regressing log program time on log probe time over
some 300 alternating probe/simulation pairs gave slopes of 0.71 to 0.89
(correlation 0.85 to 0.96) for Lindblad and Schroedinger simulations alike,
and 0.75 gave the steadiest run-to-run figures over the workloads.
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

NOMINAL_S = 1e-3
SENSITIVITY = 0.75
MARK_INTERVAL_S = 0.1
_ITERATIONS = 400
_REPEATS = 3
_MATRIX = 0.5 * np.eye(6, dtype=complex)
_VECTOR = np.ones(6, dtype=complex)


def _kernel() -> complex:
    x = _VECTOR
    total = 0.0
    for i in range(_ITERATIONS):
        x = _MATRIX @ x + 0.001 * x
        total += math.exp(-((i * 1e-3) ** 2))
    return complex(x[0]) + total


def probe() -> float:
    """Seconds the probe kernel takes now (fastest of a few runs)."""
    best = math.inf
    for _ in range(_REPEATS):
        begin = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - begin)
    return best


class Clock:
    """Raw and normalized program time of a call, probed at every ``mark``."""

    def __init__(self, probe=probe):
        self.probe = probe
        self.wall = 0.0
        self.normalized = 0.0
        self._speed = 0.0
        self._since = 0.0

    def start(self) -> None:
        self.wall = self.normalized = 0.0
        self._speed = self.probe()
        self._since = time.perf_counter()

    def mark(self) -> None:
        """Close the stretch of program time since the last probe."""
        stretch = time.perf_counter() - self._since
        speed = self.probe()
        self.wall += stretch
        probed = 0.5 * (self._speed + speed)
        self.normalized += stretch * (NOMINAL_S / probed) ** SENSITIVITY
        self._speed = speed
        self._since = time.perf_counter()

    def around(self, fn):
        """``fn`` with a mark at its entry and exit."""

        def marked(*args, **kwargs):
            self.mark()
            try:
                return fn(*args, **kwargs)
            finally:
                self.mark()

        return marked

    def when_due(self, fn):
        """``fn`` with a mark before it once MARK_INTERVAL_S has passed since the last."""

        def marked(*args, **kwargs):
            if time.perf_counter() - self._since >= MARK_INTERVAL_S:
                self.mark()
            return fn(*args, **kwargs)

        return marked


@contextlib.contextmanager
def replaced(modules, original, replacement):
    """Point every reference to ``original`` in ``modules`` at ``replacement``."""
    sites = [
        (module, attr)
        for module in modules
        for attr, obj in list(vars(module).items())
        if obj is original
    ]
    for module, attr in sites:
        setattr(module, attr, replacement)
    try:
        yield
    finally:
        for module, attr in sites:
            setattr(module, attr, original)
