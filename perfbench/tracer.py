"""Spans recorded from outside the program.

A Tracer replaces a public function with a timing wrapper at the point where
its callers look it up (a module global or a class attribute), so the
program's source stays untouched. Spans (name, start, end, parent, note) are
kept in memory and written out when the run ends.
"""
from __future__ import annotations

import functools
import json
import time
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name, note=None) -> None:
        """Trace calls to ``owner.attr`` as spans called ``name``.

        ``name`` may be a function of the call's (args, kwargs); ``note``, if
        given, is one and its value is stored with the span.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = name(args, kwargs) if callable(name) else name
                spans[idx] = (label, start, end, parent, note(args, kwargs) if note else None)

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, note) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "note": note}) + "\n")

    def stats(self, first: int = 0, last: int | None = None) -> dict[str, dict]:
        """Per span name, over the spans from index ``first`` up to ``last``:
        call count, total seconds, summed notes, and the calls split by whether
        the span has children (for example a push that ran the model)."""
        spans = self.spans[first:last]
        has_child = [False] * len(spans)
        for _, _, _, parent, _ in spans:
            if parent >= first:
                has_child[parent - first] = True
        out: dict[str, dict] = {}
        for i, (name, start, end, _, note) in enumerate(spans):
            s = out.setdefault(name, {"calls": 0, "total_s": 0.0, "notes": 0, "leaf_calls": 0,
                                      "leaf_s": 0.0, "inner_calls": 0, "inner_s": 0.0})
            d = end - start
            s["calls"] += 1
            s["total_s"] += d
            s["notes"] += note or 0
            kind = "inner" if has_child[i] else "leaf"
            s[f"{kind}_calls"] += 1
            s[f"{kind}_s"] += d
        return out

