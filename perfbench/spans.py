"""In-memory span recording for the traced benchmark run.

The traced run replaces public methods on the objects the benchmark itself
builds (a platform from ``GPUSSDPlatform.build``, a ``SweepRunner`` and its
result cache) with wrappers that record one span per call: function id,
parent span, start and end.  Spans live in flat arrays while the run goes
and are written once, at the end.  A span's self time is its duration minus
the durations of its direct children; calls are synchronous, so children
always nest inside their parent.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np


class SpanRecorder:
    """Flat span store plus the wrappers that fill it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.function = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        #: Function names whose owner object existed but lacked the attribute.
        self.absent: set = set()
        #: Function names wrapped on at least one object.
        self.present: set = set()

    def _id(self, name: str) -> int:
        fid = self._ids.get(name)
        if fid is None:
            fid = self._ids[name] = len(self.names)
            self.names.append(name)
        return fid

    def _opener(self, name: str):
        fid = self._id(name)
        stack = self._stack
        function_append = self.function.append
        parent_append = self.parent.append
        start_append = self.start.append
        end = self.end
        end_append = end.append
        clock = time.perf_counter

        def open_span() -> int:
            index = len(end)
            function_append(fid)
            parent_append(stack[-1])
            end_append(0.0)
            stack.append(index)
            start_append(clock())
            return index

        return open_span

    @contextmanager
    def span(self, name: str):
        """Record a span around a block of the benchmark's own code."""
        self.present.add(name)
        index = self._opener(name)()
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner: object, attr: str, name: str) -> bool:
        """Trace every later call of ``owner.attr`` as span ``name``.

        Returns False, and notes the name as absent, when the owner has no
        such callable or refuses the attribute; the run goes on untraced.
        """
        original = getattr(owner, attr, None)
        if not callable(original):
            self.absent.add(name)
            return False
        open_span = self._opener(name)
        end = self.end
        stack_pop = self._stack.pop
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = open_span()
            try:
                return original(*args, **kwargs)
            finally:
                end[index] = clock()
                stack_pop()

        try:
            setattr(owner, attr, traced)
        except AttributeError:
            self.absent.add(name)
            return False
        self.present.add(name)
        return True

    def missing(self, name: str) -> bool:
        """True when no object offered ``name`` but some owner lacked it."""
        return name in self.absent and name not in self.present

    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, Dict[str, float]]:
        """``{name: {"calls", "self_s"}}`` over every span."""
        count = len(self.end)
        if not count:
            return {}
        function = np.frombuffer(self.function, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        nested = parent >= 0
        child_time = np.bincount(
            parent[nested], weights=duration[nested], minlength=count)
        own = duration - child_time
        width = len(self.names)
        calls = np.bincount(function, minlength=width)
        self_s = np.bincount(function, weights=own, minlength=width)
        return {
            name: {"calls": int(calls[fid]), "self_s": float(self_s[fid])}
            for fid, name in enumerate(self.names)
        }

    def dump(self, path: Path) -> Path:
        """Write every span once, as arrays in one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self.names),
            function=np.frombuffer(self.function, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )
        return path


def resolve(owner: object, dotted: str) -> Optional[object]:
    """Follow a dotted attribute path, or ``None`` where it breaks off."""
    for part in dotted.split(".") if dotted else ():
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return owner
