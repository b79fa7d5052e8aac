"""Span tracing from outside the package: wraps gridwatch's public calls.

``Tracer.install()`` replaces each traced function or method with a
wrapper that records one span per call: its duration, and the part of it
that child spans on the same thread covered, so a layer's self time is
``total - child``. Nothing under ``src/`` changes; the wrappers are put in
place on the imported modules and classes and taken out again by
``uninstall()``. Module-level functions are replaced in every gridwatch
module that imported them by name, since that is where callers look them
up.

Stats are kept per thread and merged on read, so a span costs two clock
reads and no lock. Threads are told apart by name, which lets the API's
handler threads (``... (process_request_thread)``) be summed on their own.
"""

from __future__ import annotations

import sys
import threading
import time

_clock = time.perf_counter_ns


class Stat:
    """Accumulated spans of one name on one thread."""

    __slots__ = ("calls", "total_ns", "self_ns", "errors", "top_ns", "items")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.errors = 0
        self.top_ns = 0  # spans with no traced parent on their thread
        self.items = 0   # whatever the span's note callback counts

    def add(self, other: "Stat") -> None:
        for slot in self.__slots__:
            setattr(self, slot, getattr(self, slot) + getattr(other, slot))


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[int] = []
        self.stats: dict[str, Stat] | None = None


class Tracer:
    """Installs span wrappers and merges what they recorded."""

    def __init__(self):
        self._local = _ThreadState()
        self._threads: list[tuple[str, dict[str, Stat]]] = []
        self._undo: list[tuple[object, str, object]] = []
        self.enabled = False

    # -- recording ---------------------------------------------------------

    def _stats(self) -> dict[str, Stat]:
        stats = self._local.stats
        if stats is None:
            stats = self._local.stats = {}
            self._threads.append((threading.current_thread().name, stats))
        return stats

    def wrap(self, name: str, fn, note=None):
        """A wrapper recording span ``name`` around ``fn``.

        ``note(args, result, took_ns)`` (when given) returns a count added
        to the span's ``items``; it runs outside the timed interval.
        """
        local = self._local

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            stack = local.stack
            stack.append(0)
            result = None
            failed = False
            started = _clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                failed = True
                raise
            finally:
                took = _clock() - started
                child = stack.pop()
                stat = self._stats().get(name)
                if stat is None:
                    stat = self._stats()[name] = Stat()
                stat.calls += 1
                stat.total_ns += took
                stat.self_ns += took - child
                if stack:
                    stack[-1] += took
                else:
                    stat.top_ns += took
                if failed:
                    stat.errors += 1
                elif note is not None:
                    stat.items += note(args, result, took)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- installing ----------------------------------------------------------

    def patch_method(self, cls, attr: str, name: str, note=None) -> None:
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, note))

    def patch_function(self, module, attr: str, name: str, note=None) -> None:
        """Replace ``module.attr`` everywhere a gridwatch module holds it."""
        original = getattr(module, attr)
        traced = self.wrap(name, original, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "gridwatch" and getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, traced)

    def uninstall(self) -> None:
        self.enabled = False
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def merged(self, thread_filter=None) -> dict[str, Stat]:
        out: dict[str, Stat] = {}
        for thread_name, stats in list(self._threads):
            if thread_filter is not None and not thread_filter(thread_name):
                continue
            for name, stat in list(stats.items()):
                out.setdefault(name, Stat()).add(stat)
        return out

    def span_count(self) -> int:
        return sum(s.calls for s in self.merged().values())


def is_api_thread(thread_name: str) -> bool:
    """ThreadingHTTPServer names its per-request threads this way."""
    return "process_request_thread" in thread_name
