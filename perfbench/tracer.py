"""Spans around the benchmark's calls into the public functions of hexstar.

The benchmark reaches every hexstar module through ``Layers``.  Untraced,
``Layers`` hands out the modules themselves, so the measured code path is
the shipped one.  Traced, it hands out proxies that time each call of a
public function as a span named ``<module>.<function>``.  Spans are kept in
memory and written out when the run ends.  A span's self time is its
duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

LAYERS = ("lattice", "hilbert", "hamiltonian", "symmetry", "spectrum",
          "dynamics", "entanglement", "analytic", "cli")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None          # op id; None during set-up
    phase: str              # "setup:<rep>" or "ops"
    start: float
    end: float = 0.0
    cpu: float = 0.0        # process user+sys seconds, all threads
    child: float = 0.0      # wall time covered by child spans
    error: bool = False
    detail: str = ""        # keyword arguments of scalar type, e.g. "exact=True"

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self.phase = "setup:0"
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str, detail: str = ""):
        parent = self._stack[-1].id if self._stack else None
        s = Span(len(self.spans), name, parent, self.op, self.phase, time.perf_counter(),
                 detail=detail)
        cpu0 = time.process_time()
        self.spans.append(s)
        self._stack.append(s)
        try:
            yield s
        except BaseException:
            s.error = True
            raise
        finally:
            s.end = time.perf_counter()
            s.cpu = time.process_time() - cpu0
            self._stack.pop()
            if self._stack:
                self._stack[-1].child += s.duration

    def records(self) -> list[dict]:
        return [asdict(s) | {"self": s.self_time} for s in self.spans]


class _TracedModule:
    """Module proxy that runs each public function call inside a span."""

    def __init__(self, module, layer: str, tracer: Tracer) -> None:
        self._module = module
        self._layer = layer
        self._tracer = tracer

    def __getattr__(self, name: str):
        attr = getattr(self._module, name)
        if name.startswith("_") or not callable(attr) or inspect.isclass(attr):
            return attr
        span_name = f"{self._layer}.{name}"
        tracer = self._tracer

        @functools.wraps(attr)
        def traced(*args, **kwargs):
            detail = ",".join(f"{k}={v!r}" for k, v in kwargs.items()
                              if isinstance(v, (bool, int, float, str)))
            with tracer.span(span_name, detail):
                return attr(*args, **kwargs)

        return traced


class Layers:
    """The hexstar modules, traced when a tracer is given."""

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer
        for layer in LAYERS:
            module = importlib.import_module(f"hexstar.{layer}")
            setattr(self, layer, module if tracer is None
                    else _TracedModule(module, layer, tracer))

    @contextmanager
    def span(self, name: str):
        """A benchmark-level span (set-up, op); a no-op when untraced."""
        if self.tracer is None:
            yield None
        else:
            with self.tracer.span(name) as s:
                yield s
