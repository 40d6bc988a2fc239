"""Spans around the package's layer boundaries, recorded from outside.

``Tracer.install`` replaces module-level names that the pipeline looks up
at call time (``steadystate.gss.propagate_order`` and so on) with wrappers
that record one span per call: name, start, end, parent, and a few counts
read from the arguments and the result. Spans stay in memory until the
caller writes them out. A hooked name that no longer exists raises
``MissingHook``, so a renamed layer fails the traced run instead of
reading as zero.

Spans named in ``memory_spans`` also record their tracemalloc peak above
the allocation at entry; tracemalloc runs only inside those spans, which
must not nest. It slows allocation-heavy Python code several times over
(the near-critical kernel loop about eightfold), so timings and memory
peaks come from separate passes.

Single-threaded use only: the parent of a span is the innermost open span.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
import tracemalloc
from dataclasses import dataclass, field

MiB = float(1 << 20)


class MissingHook(AttributeError):
    """A module-level name the tracer must wrap does not exist."""


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    peak_mb: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


def _dir_size(directory):
    files = [os.path.join(directory, f) for f in os.listdir(directory)]
    return sum(os.path.getsize(f) for f in files), len(files)


def _weights_info(args, weights):
    return {"modes": len(weights.retained), "branches": list(weights.branches or ())}


def _propagate_info(args, z):
    return {"mode_samples": len(args["weights"].retained) * z.shape[1]}


def _expansion_info(args, expansion):
    tensor = expansion.tensor
    return {
        "cache": dict(expansion.cache_stats),
        "tensor_bytes": tensor.state_dim * tensor.order_max * tensor.length * 8,
    }


def _harmonics_info(args, result):
    return {"harmonics": len(result[0])}


def _pade_info(args, pade):
    return {"ill_conditioned": len(pade.ill_conditioned)}


def _saved_expansion_info(args, _):
    tensor = args["expansion"].tensor
    size, files = _dir_size(args["directory"])
    values = tensor.state_dim * tensor.orders_complete * tensor.length
    return {"bytes": size, "files": files, "values": values}


def _saved_pade_info(args, _):
    pade = args["pade"]
    size, files = _dir_size(args["directory"])
    return {"bytes": size, "files": files, "values": pade.num.size + pade.den.size}


def package_hooks():
    """(module, name, span name, info function) for every traced boundary."""
    from steadystate import bench, gss, serialize

    return [
        (gss, "decompose_structural", "spectral.decompose", None),
        (gss, "decompose_general", "spectral.decompose", None),
        (gss, "select_modes", "spectral.select_modes", None),
        (gss, "build_kernel_weights", "kernel.weights", _weights_info),
        (gss, "assemble_phi", "composition.assemble_phi", None),
        (gss, "propagate_order", "kernel.propagate", _propagate_info),
        (gss, "fit_harmonics", "gss.fit_harmonics", _harmonics_info),
        (gss, "_qp_propagate", "gss.qp_propagate", None),
        (gss, "compute_taylor_gss", "gss.compute", _expansion_info),
        (gss, "evaluate_at_amplitude", "gss.evaluate", None),
        (gss, "pade_resum", "gss.pade_fit", _pade_info),
        (gss, "evaluate_pade", "gss.pade_eval", None),
        (bench, "compute_taylor_gss", "gss.compute", _expansion_info),
        (bench, "evaluate_at_amplitude", "gss.evaluate", None),
        (serialize, "save_expansion", "serialize.save_expansion", _saved_expansion_info),
        (serialize, "load_expansion", "serialize.load_expansion", None),
        (serialize, "save_pade", "serialize.save_pade", _saved_pade_info),
        (serialize, "load_pade", "serialize.load_pade", None),
    ]


class Tracer:
    """Records spans for the hooked names between install() and remove()."""

    def __init__(self, memory_spans=()):
        self.memory_spans = frozenset(memory_spans)
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._installed: list[tuple] = []

    def install(self, hooks):
        missing = [f"{m.__name__}.{name}" for m, name, _, _ in hooks if not hasattr(m, name)]
        if missing:
            raise MissingHook("cannot trace missing names: " + ", ".join(missing))
        for module, name, span_name, info in hooks:
            original = getattr(module, name)
            setattr(module, name, self._wrap(original, span_name, info))
            self._installed.append((module, name, original))

    def remove(self):
        for module, name, original in reversed(self._installed):
            setattr(module, name, original)
        self._installed.clear()

    def _wrap(self, fn, span_name, info):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = info(bound.arguments, result)
            return result

        return traced

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(
            id=len(self.spans),
            name=name,
            parent=parent.id if parent is not None else None,
            start=0.0,
        )
        self.spans.append(span)
        self._stack.append(span)
        if name in self.memory_spans:
            tracemalloc.start()
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        if span.name in self.memory_spans:
            span.peak_mb = tracemalloc.get_traced_memory()[1] / MiB
            tracemalloc.stop()
        self._stack.pop()
