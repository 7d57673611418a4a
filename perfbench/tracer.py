"""Spans recorded in memory around calls into the program's layers.

A span has a name, a start and an end (``time.perf_counter`` seconds), the
id of the span that encloses it, and the identify op it belongs to.  Spans
are kept in a list while the run lasts and written out once, at its end.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str, op=None):
        parent = self._open[-1] if self._open else None
        if op is None and parent is not None:
            op = parent["op"]
        rec = {"id": len(self.spans), "name": name,
               "parent": parent["id"] if parent else None, "op": op,
               "start": 0.0, "end": 0.0}
        self.spans.append(rec)
        self._open.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def by_op(self, name: str) -> dict:
        """Total duration of the spans called ``name`` in each op."""
        out: dict = {}
        for s in self.spans:
            if s["name"] == name:
                out[s["op"]] = out.get(s["op"], 0.0) + s["end"] - s["start"]
        return out

    def self_time(self, span: dict) -> float:
        """Duration of ``span`` minus the time its child spans cover."""
        children = sum(s["end"] - s["start"] for s in self.spans
                       if s["parent"] == span["id"])
        return span["end"] - span["start"] - children

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"clock": "time.perf_counter", "spans": self.spans}, fh)
            fh.write("\n")
