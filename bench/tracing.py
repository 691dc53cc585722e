"""Spans around calls into curvlab's public functions, installed from outside the package.

The tracer replaces each listed function at every module binding that holds
it (``verify`` and ``goldens`` import functions by name, and
``torsion_and_bianchi_defect`` calls ``christoffel`` through its module
global), so nested calls are seen wherever they come from.  Spans stay in
memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

# (module, function) pairs that get a span; the metric prefix is "module.function".
TRACED = (
    ("algebra", "exterior_d"),
    ("algebra", "validate_lie_algebra"),
    ("catalog", "instantiate"),
    ("metric", "build_metric"),
    ("metric", "torsion_forms"),
    ("metric", "classify_metric"),
    ("connection", "christoffel"),
    ("connection", "curvature"),
    ("connection", "ricci_and_scalar"),
    ("connection", "torsion_and_bianchi_defect"),
    ("symmetry", "kahler_like_check"),
    ("symmetry", "flatness_check"),
    ("symmetry", "gray_check_lc"),
    ("verify", "theorem_suite"),
    ("verify", "evaluate_case"),
    ("verify", "structural_sweep"),
    ("goldens", "appendix_oracle"),
    ("flow", "flow_state_from_hermitian"),
    ("flow", "integrate_flow"),
    ("flow", "float_lc_ricci"),
    ("flow", "exact_lc_ricci"),
)

# Bookkeeping spans the tracer itself opens; they are overhead, not a layer.
BITS_SPAN = "bench.bits"


def _bits(q):
    return int(q.numerator).bit_length(), int(q.denominator).bit_length()


class Tracer:
    """In-memory span recorder.

    A span is ``[name, parent_id, call_id, start, end]``; its id is its index
    in ``spans``.  ``call_id`` is the index of the workload call it belongs to.
    """

    def __init__(self):
        self.spans = []
        self.active = False
        self.call_id = None
        self.max_num_bits = 0
        self.max_den_bits = 0
        self._stack = []
        self._installed = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = [name, parent, self.call_id, time.perf_counter(), None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn):
        after = self._record_bits if name == "connection.curvature" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(result)
            return result

        return traced

    def _record_bits(self, curv):
        # a sibling span, so the caller's self time does not absorb the inspection
        span = self._open(BITS_SPAN)
        try:
            for _, v in curv.tensor.nonzero():
                for q in (v.re, v.im):
                    nb, db = _bits(q)
                    self.max_num_bits = max(self.max_num_bits, nb)
                    self.max_den_bits = max(self.max_den_bits, db)
        finally:
            self._close(span)

    def install(self):
        """Wrap every TRACED function at each curvlab module attribute bound to it."""
        wrappers = {}
        for mod_name, fn_name in TRACED:
            fn = getattr(sys.modules[f"curvlab.{mod_name}"], fn_name)
            wrappers[id(fn)] = self._wrap(f"{mod_name}.{fn_name}", fn)
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "curvlab" or name.startswith("curvlab."))]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        """Put back every binding that install replaced."""
        for mod, attr, value in self._installed:
            setattr(mod, attr, value)
        self._installed = []

    @contextlib.contextmanager
    def recording(self):
        """Spans are recorded inside the block only; the functions are unwrapped after it."""
        self.install()
        self.active = True
        try:
            yield
        finally:
            self.active = False
            self.uninstall()

    @contextlib.contextmanager
    def paused(self):
        was_active, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was_active

    def layer_totals(self):
        """{name: (calls, self seconds)}; self time is duration minus direct children."""
        child_time = defaultdict(float)
        for name, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = defaultdict(lambda: [0, 0.0])
        for sid, (name, _, _, start, end) in enumerate(self.spans):
            if name == BITS_SPAN:
                continue
            entry = totals[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time[sid]
        return {name: tuple(v) for name, v in totals.items()}

    def span_records(self):
        return [{"id": sid, "name": name, "parent": parent, "call": call,
                 "start": start, "end": end}
                for sid, (name, parent, call, start, end) in enumerate(self.spans)]

