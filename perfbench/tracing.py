"""Spans and counts recorded around calls into mfspec's public names.

Only the traced run imports this module.  ``install`` wraps, for the
duration of the traced calls, the public names that the calling module
looks up at call time (``mfspec.spectrum.CylinderTable`` as
``full_spectrum`` sees it, ``mfspec.cli.render_table`` as ``cli.run`` sees
it, ...), and ``traced_system`` copies a system with wrapped ``Branch``
callables.  No private name is touched.  Each span records its name, the
call it belongs to, its parent span, start and end; a layer's self time is
its span's duration minus its child spans'.
"""

from __future__ import annotations

import dataclasses
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import cached_property

# per-layer time metric -> span names whose self time it sums
TIME_METRICS = {
    "geometry.table_s": ("geometry.table",),
    "geometry.gap_s": ("geometry.gap",),
    "geometry.branch_s": ("geometry.branch",),
    "potentials.arrays_s": ("potentials.arrays",),
    "spectrum.context_s": ("spectrum.context",),
    "spectrum.lower_s": ("spectrum.lower",),
    "symbolic.measure_s": ("symbolic.measure",),
    "spectrum.upper_s": ("spectrum.upper",),
    "spectrum.attractor_s": ("spectrum.attractor",),
    "spectrum.sampler_s": ("spectrum.sampler",),
    "cli.parse_s": ("cli.parse",),
    # cli.run's own time is its diagnostics assembly and artifact writes
    "cli.render_s": ("cli.render", "cli.run"),
}
COUNT_METRICS = ("geometry.table_words", "geometry.table_bytes",
                 "geometry.branch_points", "spectrum.lower_calls",
                 "spectrum.lower_iterations", "spectrum.upper_calls",
                 "spectrum.cover_words")


class Tracer:
    """In-memory spans and counters, grouped by call number."""

    def __init__(self):
        self.spans: list[list] = []  # [name, call, parent, start, end]
        self.counts: dict = defaultdict(
            lambda: dict.fromkeys(COUNT_METRICS, 0))
        self.call: int | None = None
        self.paused = False
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, self.call, parent, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def pause(self):
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def current(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def add(self, name: str, amount: int) -> None:
        self.counts[self.call][name] += int(amount)

    def self_times(self) -> dict:
        """{call: {span name: summed self time}}."""
        child = [0.0] * len(self.spans)
        for name, call, parent, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict = defaultdict(lambda: defaultdict(float))
        for (name, call, _, start, end), inner in zip(self.spans, child):
            out[call][name] += end - start - inner
        return out


def traced_system(system, tracer: Tracer):
    """A copy of ``system`` whose branch callables record spans and points."""
    import numpy as np
    from mfspec import IfsSystem

    def wrap(fn):
        if fn is None:
            return None

        def branch_call(x, *rest):
            if tracer.paused:
                return fn(x, *rest)
            with tracer.span("geometry.branch"):
                tracer.add("geometry.branch_points", np.size(x))
                return fn(x, *rest)
        return branch_call

    with tracer.pause():
        branches = tuple(dataclasses.replace(
            b, map=wrap(b.map), derivative=wrap(b.derivative),
            map_width=wrap(b.map_width)) for b in system.branches)
        return IfsSystem(branches=branches, name=system.name,
                         params=dict(system.params))


def _timed(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(result)
        return result
    return wrapper


def install(tracer: Tracer) -> list:
    """Wrap the public names each layer is entered through.

    Returns the (module, name, original) triples ``uninstall`` restores.
    """
    import mfspec
    from mfspec import cli, spectrum

    class TracedTable(spectrum.CylinderTable):
        def __init__(self, *args, **kwargs):
            with tracer.span("geometry.table"):
                super().__init__(*args, **kwargs)
            tracer.add("geometry.table_words", self.m ** self.depth)
            tracer.add("geometry.table_bytes", sum(
                self.lo(k).nbytes + self.diameters(k).nbytes
                for k in range(1, self.depth + 1)))

        def birkhoff(self, values):
            # Birkhoff sums of g belong to the gap span that asks for them
            if tracer.current() == "geometry.gap":
                return super().birkhoff(values)
            with tracer.span("potentials.arrays"):
                return super().birkhoff(values)

        @cached_property
        def lemma1_gap_value(self):
            with tracer.span("geometry.gap"):
                return super().lemma1_gap_value

    class TracedContext(spectrum.DepthContext):
        def __init__(self, *args, **kwargs):
            with tracer.span("spectrum.context"):
                super().__init__(*args, **kwargs)

        @cached_property
        def attractor_dimension(self):
            with tracer.span("spectrum.attractor"):
                return super().attractor_dimension

    def lower_done(result):
        tracer.add("spectrum.lower_calls", 1)
        tracer.add("spectrum.lower_iterations", result.iterations)

    def upper_done(result):
        tracer.add("spectrum.upper_calls", 1)
        tracer.add("spectrum.cover_words", result.cover_size)

    build_system = cli.build_system

    def traced_build_system(cfg):
        with tracer.span("geometry.system"):
            system = build_system(cfg)
        with tracer.span("trace.copy"):
            return traced_system(system, tracer)

    sweep = _timed(tracer, "spectrum.sweep", spectrum.full_spectrum)
    wrappers = [
        (spectrum, "CylinderTable", TracedTable),
        (spectrum, "DepthContext", TracedContext),
        (spectrum, "potential_arrays",
         _timed(tracer, "potentials.arrays", spectrum.potential_arrays)),
        (spectrum, "lower_bound",
         _timed(tracer, "spectrum.lower", spectrum.lower_bound, lower_done)),
        (spectrum, "upper_bound",
         _timed(tracer, "spectrum.upper", spectrum.upper_bound, upper_done)),
        (spectrum, "BlockMeasure",
         _timed(tracer, "symbolic.measure", spectrum.BlockMeasure)),
        (mfspec, "full_spectrum", sweep),
        (mfspec, "alternating_sampler",
         _timed(tracer, "spectrum.sampler", mfspec.alternating_sampler)),
        (cli, "full_spectrum", sweep),
        (cli, "build_system", traced_build_system),
        (cli, "render_table",
         _timed(tracer, "cli.render", cli.render_table)),
        (cli, "parse_config", _timed(tracer, "cli.parse", cli.parse_config)),
        (cli, "run", _timed(tracer, "cli.run", cli.run)),
    ]
    originals = [(mod, name, getattr(mod, name)) for mod, name, _ in wrappers]
    for mod, name, wrapper in wrappers:
        setattr(mod, name, wrapper)
    return originals


def uninstall(originals: list) -> None:
    for mod, name, original in originals:
        setattr(mod, name, original)
