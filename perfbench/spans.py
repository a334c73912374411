"""Spans recorded from outside the program, around calls into its modules.

``instrument`` replaces every public function of every ``cavityfock``
module, wherever another module refers to it, with a wrapper that records a
span: name, start, end and the span that was open when it was
called.  The H(t) closures that ``bound_hamiltonian`` returns and the
``ControlSchedule.values`` method are wrapped too.  Spans stay in memory in
flat arrays until ``save`` writes them out.
"""

from __future__ import annotations

import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

PACKAGE = "cavityfock"
INTRA = {PACKAGE + ".cli", PACKAGE + ".scenarios"}


class Tracer:
    """Span store.  Span ``i`` is open from ``starts[i]`` to ``ends[i]``;
    ``parents[i]`` is the index of the span that called it, or -1."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.stack: list[int] = []
        # Time points handed to pulse synthesis by callers outside pulses.
        self.pulse_points = 0

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, on_enter=None, on_result=None):
        """``fn`` with a span named ``name`` around every call."""
        nid = self.name_id(name)
        stack, starts, ends = self.stack, self.starts, self.ends
        parents, name_ids = self.parents, self.name_ids

        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(args)
            index = len(starts)
            parents.append(stack[-1] if stack else -1)
            name_ids.append(nid)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            begin = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                starts[index] = begin
                stack.pop()
            return result if on_result is None else on_result(result)

        traced.__wrapped__ = fn
        return traced

    def module_of(self, index: int) -> str:
        return self.names[self.name_ids[index]].split(".", 1)[0]

    def save(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_ids=np.frombuffer(self.name_ids, dtype=np.int32),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            parents=np.frombuffer(self.parents, dtype=np.int64),
        )


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Spans must be listed in order of start, as one thread records them.
    Overlapping children are covered once, and a child that outlives its
    parent is clipped to the parent.
    """
    starts, ends, parents = list(starts), list(ends), list(parents)
    covered = [0.0] * len(starts)
    reach = starts[:]  # end of the union of each span's children so far
    for i, parent in enumerate(parents):
        if parent < 0:
            continue
        lo = max(starts[i], reach[parent])
        hi = min(ends[i], ends[parent])
        if hi > lo:
            covered[parent] += hi - lo
            reach[parent] = hi
    return [end - start - cover for start, end, cover in zip(starts, ends, covered)]


def totals_by_name(tracer: Tracer) -> dict[str, tuple[float, int]]:
    """Summed self time and call count per span name."""
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    seconds: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for nid, value in zip(tracer.name_ids, own):
        seconds[tracer.names[nid]] += value
        calls[tracer.names[nid]] += 1
    return {name: (seconds[name], calls[name]) for name in seconds}


def _public_functions(module) -> dict[str, object]:
    return {
        attr: obj
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and callable(obj)
        and not isinstance(obj, type)
        and getattr(obj, "__module__", None) == module.__name__
    }


def program_modules() -> list:
    """The imported ``cavityfock`` package and its modules."""
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


def instrument(tracer: Tracer) -> None:
    """Wrap every public function of the imported ``cavityfock`` modules."""
    modules = program_modules()
    pulses = sys.modules[PACKAGE + ".pulses"]

    def count_points(args) -> None:
        stack = tracer.stack
        if not stack or tracer.module_of(stack[-1]) != "pulses":
            tracer.pulse_points += int(np.size(args[-1]))

    def wrap_hamiltonian(build):
        return tracer.wrap("hamiltonians.H(t)", build)

    wrappers = {}
    for module in modules:
        short = module.__name__.rsplit(".", 1)[-1]
        for attr, fn in _public_functions(module).items():
            wrappers[id(fn)] = module, tracer.wrap(
                f"{short}.{attr}",
                fn,
                on_enter=count_points if short == "pulses" else None,
                on_result=wrap_hamiltonian if attr == "bound_hamiltonian" else None,
            )
    # Calls between modules are traced.  Calls within a module are not, as
    # they would only add overhead inside one layer, except in the entry
    # layers cli and scenarios: there they are few, and they separate main,
    # run and sweep from simulate and the CSV writer.
    for module in modules:
        for attr, obj in list(vars(module).items()):
            home, wrapper = wrappers.get(id(obj), (None, None))
            if wrapper is not None and (home is not module or module.__name__ in INTRA):
                setattr(module, attr, wrapper)
    schedule = pulses.ControlSchedule
    schedule.values = tracer.wrap(
        "pulses.ControlSchedule.values", schedule.values, on_enter=count_points
    )
