"""Span tracing from outside the program: wrap each layer's public functions.

A :class:`Tracer` records one span per call of a wrapped function — name,
start, end and the enclosing span — in memory, and writes them out as
Chrome trace-event JSON when the run is over.  Nothing under ``src/`` is
edited: :meth:`Tracer.install` swaps wrappers into the program's modules
and classes and :meth:`Tracer.uninstall` puts the originals back.

A function bound elsewhere with ``from x import f`` is a second name for
the same object, so installing rebinds *every* attribute of every loaded
``repro`` module that is the original function, not only its definition
site (``pgd_attack`` is looked up from ``repro.core.cascade``,
``repro.flsim.local``, ``repro.metrics.evaluation`` and more).  A
function reachable only through a container (a dict of callables, a
closure) would still escape; the zero-count guard in ``layers`` catches
that as a predicted layer with no calls.

Spans assume one thread, which the benchmark guarantees (serial and
1-worker batched backends, no pools).
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from measure import Span

#: ``post(args, kwargs, result, token) -> {counter: amount}`` where
#: ``token`` is whatever ``pre(args, kwargs)`` returned (None without one).
Hook = Callable[..., Dict[str, float]]


class Tracer:
    """In-memory span recorder plus the function-rebinding machinery."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: List[int] = []
        self._next_id = 0
        self._restore: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------
    def wrap(
        self,
        fn: Callable,
        name: str,
        pre: Optional[Callable] = None,
        post: Optional[Hook] = None,
    ) -> Callable:
        """A wrapper of ``fn`` that records a span named ``name`` per call."""
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            token = pre(args, kwargs) if pre is not None else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))
            if post is not None:
                for key, amount in post(args, kwargs, result, token).items():
                    counters[name][key] += amount
            return result

        return traced

    # -- installation ------------------------------------------------------
    def install(self, module: str, qualname: str, name: str,
                pre: Optional[Callable] = None, post: Optional[Hook] = None) -> None:
        """Wrap ``module.qualname`` (a function or ``Class.method``).

        Methods are replaced on their class.  Module-level functions are
        replaced under every name any loaded ``repro`` module binds them to.
        """
        mod = importlib.import_module(module)
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            owner = getattr(mod, cls_name)
            original = owner.__dict__[attr]
            self._set(owner, attr, self.wrap(original, name, pre, post))
            return
        original = getattr(mod, qualname)
        wrapper = self.wrap(original, name, pre, post)
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (loaded_name == "repro" or loaded_name.startswith("repro.")):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, attr, wrapper)

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Put every original function back (reverse order of installation)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------
    def chrome_trace(self, path: str, process_name: str,
                     extra_events: Sequence[dict] = ()) -> None:
        """Write the spans as Chrome trace-event JSON (``chrome://tracing``)."""
        if not self.spans:
            base = 0.0
        else:
            base = min(span[3] for span in self.spans)
        events: List[dict] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
             "args": {"name": process_name}},
        ]
        for sid, parent, name, start, end in sorted(self.spans, key=lambda s: (s[3], s[0])):
            events.append({
                "ph": "X", "name": name, "cat": name.rsplit(".", 1)[0],
                "pid": 1, "tid": 1,
                "ts": (start - base) * 1e6, "dur": (end - start) * 1e6,
                "args": {"id": sid, "parent": parent},
            })
        for event in extra_events:
            shifted = dict(event)
            shifted["ts"] = (event["ts"] - base) * 1e6
            if "dur" in event:
                shifted["dur"] = event["dur"] * 1e6
            events.append(shifted)
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)
