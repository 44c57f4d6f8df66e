"""In-memory spans around hamqaoa's public functions, installed from outside.

The benchmark never edits the package.  ``Tracer.installed()`` replaces
each public function by a wrapper *in the namespace of the module that
calls it* (``hamqaoa.optimizer.qaoa_state`` is the name ``qaoa_solve``
looks up), records one span per call and puts the originals back on exit.
Wrapping ``minimize`` also wraps the objective ``f`` it receives, so the
optimizer's own time is the ``minimize`` span minus its objective spans.

Spans are kept in flat typed arrays (name id, parent index, tag, start,
end) rather than Python objects: a triangle run makes several hundred
thousand of them.  The tag is whatever ``Tracer.tag`` held when the span
opened; the harness sets it to the operation index during an operation
and to a negative phase code elsewhere.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name).  A function imported into several
# modules is wrapped in each namespace that calls it, under one span name.
TARGETS = (
    ("hamqaoa.qubo", "assemble", "qubo.assemble"),
    ("hamqaoa.qubo", "to_ising", "qubo.to_ising"),
    ("hamqaoa.hamiltonian", "full_spectrum", "hamiltonian.full_spectrum"),
    ("hamqaoa.circuit", "build_ansatz", "circuit.build_ansatz"),
    ("hamqaoa.circuit", "bind", "circuit.bind"),
    ("hamqaoa.engine", "simulate", "engine.simulate"),
    ("hamqaoa.engine", "simulate_noisy", "engine.simulate_noisy"),
    ("hamqaoa.engine", "qaoa_state", "engine.qaoa_state"),
    ("hamqaoa.engine", "sample", "engine.sample"),
    ("hamqaoa.optimizer", "qaoa_solve", "optimizer.qaoa_solve"),
    ("hamqaoa.optimizer", "qaoa_state", "engine.qaoa_state"),
    ("hamqaoa.optimizer", "expectation", "engine.expectation"),
    ("hamqaoa.optimizer", "sample", "engine.sample"),
    ("hamqaoa.optimizer", "full_spectrum", "hamiltonian.full_spectrum"),
    ("hamqaoa.optimizer", "build_ansatz", "circuit.build_ansatz"),
)
METHOD_TARGETS = (
    ("hamqaoa.hamiltonian", "DiagonalHamiltonian", "energies", "hamiltonian.energies"),
)
MINIMIZE = ("hamqaoa.optimizer", "minimize", "optimizer.minimize")
OBJECTIVE = "optimizer.objective"


class EvalGaps:
    """Calls ``between()`` before every objective evaluation.

    The one wrapper an untraced run installs: it lets the harness run
    side work in the gaps of a long solve.
    """

    def __init__(self, between):
        self.between = between

    @contextmanager
    def installed(self):
        owner = importlib.import_module(MINIMIZE[0])
        original = getattr(owner, MINIMIZE[1])
        between = self.between

        @functools.wraps(original)
        def minimize(f, *args, **kwargs):
            def gap_then_f(x):
                between()
                return f(x)

            return original(gap_then_f, *args, **kwargs)

        setattr(owner, MINIMIZE[1], minimize)
        try:
            yield self
        finally:
            setattr(owner, MINIMIZE[1], original)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.tags = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = -1
        self._open = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open_span(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1])
        self.tags.append(self.tag)
        self.end.append(0.0)
        self._open.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close_span(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        i = self._open_span(self.name_id(name))
        try:
            yield
        finally:
            self._close_span(i)

    def wrap(self, name: str, fn):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = self._open_span(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close_span(i)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []

        def patch(owner, attr, new):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        try:
            for mod, attr, span_name in TARGETS:
                owner = importlib.import_module(mod)
                patch(owner, attr, self.wrap(span_name, getattr(owner, attr)))
            for mod, cls, attr, span_name in METHOD_TARGETS:
                owner = getattr(importlib.import_module(mod), cls)
                patch(owner, attr, self.wrap(span_name, getattr(owner, attr)))
            mod, attr, span_name = MINIMIZE
            owner = importlib.import_module(mod)
            original = getattr(owner, attr)

            def minimize(f, *args, **kwargs):
                return original(self.wrap(OBJECTIVE, f), *args, **kwargs)

            patch(owner, attr, self.wrap(span_name, functools.wraps(original)(minimize)))
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as numpy arrays, plus each span's self time."""
        name = np.frombuffer(self.name, dtype=np.int32).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return {
            "name": name,
            "parent": parent,
            "tag": np.frombuffer(self.tags, dtype=np.int32).copy(),
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - covered,
        }

    def save(self, path) -> None:
        a = self.arrays()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            **{k: a[k] for k in ("name", "parent", "tag", "start", "end")},
        )
