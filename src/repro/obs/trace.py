"""Per-request spans with deterministic ids.

A request that opts into tracing carries a :class:`TraceContext` on its
handle (``request.trace``); every serving stage records an interval into
it and the context is finalized into :class:`Span` records when the
request completes.  Three properties drive the design:

**Deterministic structure.**  The trace id is derived from
``(plan fingerprint, request seq)`` and span ids spell out
``(trace id, stage name, occurrence index)``, so a replayed run (same
corpus, same seeds, same fault schedule) produces the *same ids,
parentage and annotations* — only the timestamps differ.  That makes
span structure assertable in tests the same way the chaos benches assert
value bit-identity.

**Passive.**  Spans record wall-clock intervals (``time.perf_counter``,
which is system-wide on this platform, so worker and router timestamps
share one clock) and string annotations.  They never touch request
values or RNG streams, so every bit-identity contract holds with tracing
enabled.

**Zero cost when off.**  An untraced request has ``trace = None`` and
every instrumentation site is a single ``is not None`` check.  Tracing is
on while a :class:`Tracer` is attached to a server; sampling
(``Tracer(sample_every=N)`` traces every N-th request, decided from the
deterministic request seq) bounds the cost.

Stage vocabulary used by the serving path::

    queue       submit -> micro-batch dispatch (batcher pop)
    worker.recv batch dispatch (or re-send) -> worker decoded it (fleet)
    featurize   plan-graph featurization (per attempt)
    infer       model forward pass (per attempt)
    cache       submit-time result-cache probe that hit
    deliver     last recorded stage -> completion (result hand-off)

plus annotations ``retry``, ``bisect``, ``degraded``, ``cache.hit``,
``hedge.sent``, ``hedge.won``, ``shed``, ``brownout``, ``requeued``,
``deadline``, ``coalesced`` (a follower of a queued or in-flight
duplicate: no queue stage, completed with its leader).
"""

from __future__ import annotations

import threading
from collections import deque
from hashlib import blake2b

__all__ = ["Span", "TraceContext", "Tracer", "trace_id_for", "span_structure"]

# Spans a tracer keeps; past it the oldest are dropped.
_MAX_SPANS = 200_000


def trace_id_for(digest, seq):
    """Deterministic 16-hex-digit trace id from (plan fingerprint, seq)."""
    h = blake2b(f"{digest}:{seq}".encode("utf-8"), digest_size=8)
    return h.hexdigest()


def _span_id(trace_id, name, occurrence):
    """``trace/name/occurrence``: deterministic, and distinct for distinct
    triples (a trace id has a fixed length and the occurrence is the part
    after the last ``/``), with no hash to compute."""
    return f"{trace_id}/{name}/{occurrence}"


class Span:
    """One timed interval of one request.  Plain data, JSON-safe."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "start", "end",
                 "proc", "annotations")

    def __init__(self, trace_id, span_id, parent_id, name, start, end,
                 proc="server", annotations=()):
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = end
        self.proc = proc
        self.annotations = tuple(annotations)

    @property
    def duration_ms(self):
        return (self.end - self.start) * 1000.0

    def as_dict(self):
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "duration_ms": self.duration_ms,
            "proc": self.proc,
            "annotations": list(self.annotations),
        }


class TraceContext:
    """Mutable per-request span accumulator.

    Stage recording is append-only and effectively single-writer at any
    moment (the request moves between batcher/worker/router, never being
    processed by two stages at once), matching the request lifecycle the
    fleet already relies on.
    """

    __slots__ = ("trace_id", "seq", "db_name", "priority", "submitted_at",
                 "_stages", "_annotations", "_tracer", "finalized")

    def __init__(self, trace_id, seq, tracer=None, db_name=None,
                 priority=None, submitted_at=None):
        self.trace_id = trace_id
        self.seq = seq
        self.db_name = db_name
        self.priority = priority
        self.submitted_at = submitted_at
        self._stages = []          # [(name, start, end, proc), ...]
        self._annotations = []
        self._tracer = tracer
        self.finalized = False

    # -- recording -------------------------------------------------------
    def add_stage(self, name, start, end, proc="server"):
        self._stages.append((name, float(start), float(end), proc))

    def annotate(self, tag):
        self._annotations.append(tag)

    # -- fleet wire ------------------------------------------------------
    def export_remote(self):
        """Worker side: plain tuples to ride the result message."""
        return (list(self._stages), list(self._annotations))

    def merge_remote(self, payload, proc):
        """Router side: fold a worker's exported stages/annotations in."""
        stages, annotations = payload
        for name, start, end, _ in stages:
            self.add_stage(name, start, end, proc)
        self._annotations.extend(annotations)

    # -- completion ------------------------------------------------------
    def finalize(self, completed_at, status=None):
        """Build the span tree and hand it to the tracer (idempotent)."""
        if self.finalized:
            return []
        self.finalized = True
        submitted = self.submitted_at
        if submitted is None:
            submitted = min((s[1] for s in self._stages),
                            default=completed_at)
        annotations = []
        if self.db_name is not None:
            annotations.append(f"db.{self.db_name}")
        if self.priority is not None:
            annotations.append(f"prio.{self.priority}")
        annotations.extend(self._annotations)
        if status is not None:
            annotations.append(f"status.{status}")
        root_id = _span_id(self.trace_id, "request", 0)
        spans = [Span(self.trace_id, root_id, None, "request",
                      submitted, completed_at, proc="server",
                      annotations=annotations)]
        occurrences = {}
        last_end = submitted
        for name, start, end, proc in self._stages:
            occ = occurrences.get(name, 0)
            occurrences[name] = occ + 1
            spans.append(Span(self.trace_id,
                              _span_id(self.trace_id, name, occ),
                              root_id, name, start, end, proc=proc))
            if end > last_end:
                last_end = end
        # Tail interval between the last recorded stage and completion:
        # result hand-off / event wakeup.  Recording it keeps the stage
        # spans tiling the whole request, so latency attribution accounts
        # for ~100% of end-to-end latency instead of leaking it.
        if completed_at > last_end:
            spans.append(Span(self.trace_id,
                              _span_id(self.trace_id, "deliver", 0),
                              root_id, "deliver", last_end, completed_at,
                              proc="server"))
        if self._tracer is not None:
            self._tracer.record(spans)
        return spans


class Tracer:
    """Span sink with deterministic sampling and a bounded buffer."""

    def __init__(self, sample_every=1):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.sample_every = sample_every
        self._spans = deque(maxlen=_MAX_SPANS)
        self._lock = threading.Lock()

    def context_for(self, digest, seq, db_name=None, priority=None,
                    submitted_at=None):
        """A TraceContext for this request, or None if not sampled."""
        if seq % self.sample_every:
            return None
        return TraceContext(trace_id_for(digest, seq), seq, tracer=self,
                            db_name=db_name, priority=priority,
                            submitted_at=submitted_at)

    def record(self, spans):
        with self._lock:
            self._spans.extend(spans)

    def spans(self):
        with self._lock:
            return list(self._spans)

    def drain(self):
        with self._lock:
            out = list(self._spans)
            self._spans.clear()
            return out

    def __len__(self):
        with self._lock:
            return len(self._spans)


def span_structure(spans):
    """Timestamp-free skeleton of a span set, for replay assertions.

    Returns a sorted list of ``(trace_id, span_id, parent_id, name,
    annotations)`` tuples — everything about the spans except the
    timings.  Two runs of the same schedule must produce equal
    structures.
    """
    return sorted((s.trace_id, s.span_id, s.parent_id or "", s.name,
                   tuple(s.annotations)) for s in spans)
