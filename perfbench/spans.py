"""In-memory span recorder that wraps library functions at run time.

The recorder replaces a module function or class method with a wrapper
that records one span (name, start, end, parent) per call, plus optional
counters read from the call's arguments and result.  Nothing in the
library is edited: ``install`` swaps the attributes in and ``uninstall``
puts the originals back, so untraced rounds run the unmodified code.

Only calls that resolve the attribute at call time are seen.  The library
reaches every wrapped function through a module attribute (``gt.build_knn_graph``,
``ad.vjp``), a module global (``make_plan`` inside ``network``) or a class
attribute (``Tape.vjp``), all of which do.
"""

from __future__ import annotations

import functools
import time
from collections import Counter


class SpanRecorder:
    """Spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def _end(self, idx: int):
        name, start, _, parent = self.spans[idx]
        self.spans[idx] = (name, start, time.perf_counter(), parent)
        self._open.pop()

    def run(self, name: str, fn):
        """Call ``fn()`` inside a span named ``name`` (the benchmark's own)."""
        idx = self._begin(name)
        try:
            return fn()
        finally:
            self._end(idx)

    # -- patching ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, before=None, after=None):
        """Register ``owner.attr`` to be traced as span ``name``.

        ``before(args)`` runs ahead of the call and its result is handed to
        ``after(args, result, token)``, which runs once the call returned.
        Both run inside the span, so their (small) cost is charged to it.
        """
        fn = vars(owner)[attr]
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = rec._begin(name)
            try:
                token = before(args) if before else None
                out = fn(*args, **kwargs)
                if after:
                    after(args, out, token)
                return out
            finally:
                rec._end(idx)

        self._patches.append((owner, attr, fn, traced))

    def install(self):
        for owner, attr, _, traced in self._patches:
            setattr(owner, attr, traced)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    # -- derived numbers ---------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, minus the time covered by child spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def to_json(self) -> dict:
        return {"spans": [{"name": n, "start": s, "end": e, "parent": p}
                          for n, s, e, p in self.spans],
                "counts": dict(self.counts)}
