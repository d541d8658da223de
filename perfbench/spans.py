"""Spans and Spark progress for the traced benchmark run.

A span is (name, start, end, parent, window). Spans are kept in memory
and written once, when the run ends. The untraced run uses
``NullTracer`` so that measuring end-to-end metrics pays for no
tracing.
"""
from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

from pyspark.sql.streaming import StreamingQueryListener


class NullTracer:
    """Records nothing."""

    enabled = False

    @contextmanager
    def span(self, name: str, window: int | None = None):
        yield


class Tracer:
    """In-memory span recorder; parents follow the nesting of ``span``."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.progress: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, window: int | None = None):
        rec = {
            "id": len(self.spans), "name": name, "window": window,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(), "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def write(self, path) -> None:
        """Write spans and query progress as one JSON document."""
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "progress": self.progress}, f)


class ProgressListener(StreamingQueryListener):
    """Collects each micro-batch's ``StreamingQueryProgress``.

    Events arrive on a py4j callback thread, after the batch; call
    ``wait_terminated`` after ``run_available`` returns so that a
    query's progress is in before it is read.
    """

    def __init__(self) -> None:
        self.progress: list[dict] = []
        self._terminated: set[str] = set()
        self._cv = threading.Condition()

    def onQueryStarted(self, event) -> None:
        pass

    def onQueryProgress(self, event) -> None:
        with self._cv:
            self.progress.append(json.loads(event.progress.json))

    def onQueryIdle(self, event) -> None:
        pass

    def onQueryTerminated(self, event) -> None:
        with self._cv:
            self._terminated.add(str(event.runId))
            self._cv.notify_all()

    def wait_terminated(self, n_queries: int, timeout_s: float = 10.0) -> None:
        """Block until ``n_queries`` queries have reported termination."""
        with self._cv:
            self._cv.wait_for(lambda: len(self._terminated) >= n_queries, timeout_s)
