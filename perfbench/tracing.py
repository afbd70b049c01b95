"""Spans and counters around calls into embgeom, kept in memory.

The tracer patches public functions on their modules, so calls that the
package makes through a module attribute (``stack_forward`` looking up
``multihead_forward``, the CLI calling ``embed_store.load_embeddings_text``)
are seen too. Nothing in the package changes, and an untraced run never
builds a tracer.
"""

import time
from contextlib import contextmanager
from statistics import median


class Tracer:
    """One span per wrapped call: name, start, end, parent span and a tag."""

    def __init__(self):
        self.spans = []  # [id, name, start, end, parent, tag]
        self.counts = {}
        self.enabled = True
        self._stack = []
        self._patches = []
        self._last_end = {}

    def _open(self, name, tag=None):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent, tag])
        self._stack.append(sid)
        return sid

    def _close(self, sid):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[sid][3] = end
        self._last_end[self.spans[sid][1]] = end

    def record(self, name, start, end, tag=None):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([len(self.spans), name, start, end, parent, tag])

    @contextmanager
    def span(self, name, tag=None):
        if not self.enabled:
            yield
            return
        sid = self._open(name, tag)
        try:
            yield
        finally:
            self._close(sid)

    @contextmanager
    def paused(self):
        """Checks call into the program too; keep them out of the trace."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def _patch(self, module, attr, replacement):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def wrap(self, module, attr, tag=None):
        """Record a span per call; ``tag(args, kwargs, result)`` labels it."""
        orig = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        def traced(*args, **kwargs):
            if not self.enabled:
                return orig(*args, **kwargs)
            sid = self._open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                self._close(sid)
            if tag is not None:
                self.spans[sid][5] = tag(args, kwargs, result)
            return result

        self._patch(module, attr, traced)

    def count(self, module, attr):
        """Count calls without a span; for small functions called often."""
        orig = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return orig(*args, **kwargs)

        self._patch(module, attr, counted)

    def time_epochs(self, trainer):
        """Record a ``trainer.epoch`` span between ``on_epoch`` callbacks.

        The first epoch starts where ``make_training_examples`` ended, so
        it also carries the weight initialisation.
        """
        orig = trainer.train

        def train(corpus, config, on_epoch=None):
            last = [None]

            def timed(epoch, mean_loss):
                now = time.perf_counter()
                if self.enabled:
                    start = last[0]
                    if start is None:
                        start = self._last_end.get("trainer.make_training_examples", now)
                    self.record("trainer.epoch", start, now)
                last[0] = now
                if on_epoch is not None:
                    on_epoch(epoch, mean_loss)

            return orig(corpus, config, on_epoch=timed)

        self._patch(trainer, "train", train)

    def restore(self):
        for module, attr, orig in reversed(self._patches):
            setattr(module, attr, orig)
        self._patches.clear()

    # --- summaries ------------------------------------------------------------

    def durations(self, name, where=None):
        return [
            end - start
            for _, n, start, end, _, tag in self.spans
            if n == name and (where is None or where(tag))
        ]

    def tags(self, name):
        return [s[5] for s in self.spans if s[1] == name]

    def median(self, name, where=None):
        values = self.durations(name, where)
        return median(values) if values else None

    def summary(self):
        """Calls, total time and self time per span name.

        Self time is a span's duration minus the time its child spans
        cover; children never overlap because the session is one thread.
        """
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = {}
        for sid, name, start, end, _, _ in self.spans:
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[sid]
        return out
