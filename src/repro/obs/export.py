"""Span exporters, latency attribution and SLO burn tracking.

Three consumers of the span stream:

* ``write_spans_jsonl`` — one JSON object per span, the archival format
  CI uploads from the chaos benches.
* ``write_chrome_trace`` — Chrome trace-event JSON; open it at
  https://ui.perfetto.dev (or ``chrome://tracing``) to see every request
  as a row of stage slices, hedge races included.
* ``latency_attribution`` — the report ROADMAP open item 2 needs: for
  each request class, the share of end-to-end p50/p95/p99 spent in
  queue / featurize / infer / cache / deliver, plus a coverage figure
  (how much of the measured end-to-end latency the stages account for).

Plus ``slo_burn``/``slo_report``: error-budget burn against the
availability and latency floors the chaos benches assert.
"""

from __future__ import annotations

import json
from collections import defaultdict

__all__ = [
    "write_spans_jsonl",
    "chrome_trace_events",
    "write_chrome_trace",
    "latency_attribution",
    "format_attribution",
    "slo_burn",
    "slo_report",
]


def write_spans_jsonl(spans, path):
    """One JSON object per line; returns the number of spans written."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            fh.write(json.dumps(span.as_dict(), sort_keys=True) + "\n")
    return len(spans)


def _percentile(values, p):
    """Nearest-rank percentile of a non-empty sorted list."""
    rank = max(1, int(p / 100.0 * len(values) + 0.5))
    return values[min(rank, len(values)) - 1]


def chrome_trace_events(spans):
    """Chrome trace-event dicts (``ph: "X"`` complete events).

    Processes (``proc``: server, worker-N) become trace pids; each trace
    id becomes a tid so one request reads as one row.  Timestamps are
    microseconds relative to the earliest span, so the timeline starts
    at zero regardless of the ``perf_counter`` epoch.
    """
    if not spans:
        return []
    origin = min(s.start for s in spans)
    pids = {}
    tids = {}
    events = []
    for span in spans:
        pid = pids.setdefault(span.proc, len(pids) + 1)
        tid = tids.setdefault(span.trace_id, len(tids) + 1)
        args = {"trace_id": span.trace_id, "span_id": span.span_id}
        if span.annotations:
            args["annotations"] = list(span.annotations)
        events.append({
            "name": span.name,
            "ph": "X",
            "ts": (span.start - origin) * 1e6,
            "dur": max(0.0, (span.end - span.start) * 1e6),
            "pid": pid,
            "tid": tid,
            "args": args,
        })
    for proc, pid in pids.items():
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "tid": 0, "args": {"name": proc}})
    return events


def write_chrome_trace(spans, path):
    """Perfetto-loadable trace file; returns the number of events."""
    events = chrome_trace_events(spans)
    payload = {"traceEvents": events, "displayTimeUnit": "ms"}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return len(events)


def _group_traces(spans):
    """{trace_id: (root_span, [stage spans])} for finalized traces."""
    roots = {}
    stages = defaultdict(list)
    for span in spans:
        if span.parent_id is None:
            roots[span.trace_id] = span
        else:
            stages[span.trace_id].append(span)
    return {tid: (root, stages.get(tid, [])) for tid, root in roots.items()}


def _class_of(root):
    """Request class from the root span's deterministic annotations."""
    db = prio = None
    for tag in root.annotations:
        if tag.startswith("db."):
            db = tag[3:]
        elif tag.startswith("prio."):
            prio = tag[5:]
    if db and prio:
        return f"{db}/{prio}"
    return db or prio or "all"


def _union_ms(intervals):
    """Total covered time (ms) of a set of ``(start, end)`` intervals."""
    covered = 0.0
    last_end = None
    for start, end in sorted(intervals):
        if last_end is None or start >= last_end:
            covered += end - start
            last_end = end
        elif end > last_end:
            covered += end - last_end
            last_end = end
    return covered * 1000.0


def latency_attribution(spans, percentiles=(50, 95, 99)):
    """Per-class, per-stage latency attribution from finalized spans.

    For each request class (``db/priority`` from the root annotations)
    and each stage name, reports the p50/p95/p99 of per-request stage
    time and the stage's share of total end-to-end time.  Stage time is
    the **union** of that stage's intervals within a request, and a
    request's attributed time is the union across *all* its stages — so
    a hedged request racing on two workers (duplicate queue/recv spans)
    or a retried one is never attributed more than its own wall time.
    ``coverage`` is sum(attributed time) / sum(end-to-end time): the
    fraction of measured latency the stages account for — the acceptance
    gate asks for >= 0.95.
    """
    per_class = defaultdict(lambda: {"totals": [], "attributed": [],
                                     "stages": defaultdict(list)})
    for trace_id, (root, stage_spans) in _group_traces(spans).items():
        cls = _class_of(root)
        bucket = per_class[cls]
        bucket["totals"].append(root.duration_ms)
        per_stage = defaultdict(list)
        for span in stage_spans:
            per_stage[span.name].append((span.start, span.end))
        for name, intervals in per_stage.items():
            bucket["stages"][name].append(_union_ms(intervals))
        bucket["attributed"].append(_union_ms(
            [iv for ivs in per_stage.values() for iv in ivs]))

    def summarize(bucket):
        totals = sorted(bucket["totals"])
        total_sum = sum(totals)
        out = {
            "requests": len(totals),
            "end_to_end_ms": {f"p{p}": _percentile(totals, p)
                              for p in percentiles} if totals else {},
            "stages": {},
        }
        for name, durs in sorted(bucket["stages"].items()):
            durs_sorted = sorted(durs)
            out["stages"][name] = {
                f"p{p}": _percentile(durs_sorted, p) for p in percentiles
            }
            out["stages"][name]["share"] = (
                sum(durs_sorted) / total_sum) if total_sum else 0.0
        attributed = sum(bucket["attributed"])
        out["coverage"] = (attributed / total_sum) if total_sum else 1.0
        return out

    report = {cls: summarize(bucket)
              for cls, bucket in sorted(per_class.items())}
    merged = {"totals": [], "attributed": [], "stages": defaultdict(list)}
    for bucket in per_class.values():
        merged["totals"].extend(bucket["totals"])
        merged["attributed"].extend(bucket["attributed"])
        for name, durs in bucket["stages"].items():
            merged["stages"][name].extend(durs)
    return {"overall": summarize(merged), "by_class": report}


def format_attribution(attribution, stages=None):
    """Plain-text table of an attribution report (for examples/benches)."""
    overall = attribution["overall"]
    if stages is None:
        stages = sorted(overall["stages"])
    pkeys = sorted(overall["end_to_end_ms"])
    lines = [f"{'stage':>12} {'share':>7} "
             + " ".join(f"{k + ' (ms)':>12}" for k in pkeys)]
    for name in stages:
        stats = overall["stages"].get(name)
        if stats is None:
            continue
        lines.append(f"{name:>12} {stats['share'] * 100:6.1f}% "
                     + " ".join(f"{stats[k]:12.3f}" for k in pkeys))
    e2e = overall["end_to_end_ms"]
    lines.append(f"{'end-to-end':>12} {'100.0%':>7} "
                 + " ".join(f"{e2e[k]:12.3f}" for k in pkeys))
    lines.append(f"coverage: {overall['coverage'] * 100:.1f}% of e2e latency "
                 f"attributed across {overall['requests']} requests")
    return "\n".join(lines)


def slo_burn(availability, floor):
    """Error-budget burn rate: 1.0 = exactly at the floor, >1 = violating."""
    budget = 1.0 - floor
    err = 1.0 - availability
    if budget <= 0.0:
        return 0.0 if err <= 0.0 else float("inf")
    return max(0.0, err / budget)


def slo_report(*, delivered, submitted, availability_floor=0.99,
               latency_p95_ms=None, latency_p95_floor_ms=None):
    """SLO summary against the floors the chaos benches assert."""
    availability = (delivered / submitted) if submitted else 1.0
    report = {
        "submitted": submitted,
        "delivered": delivered,
        "availability": availability,
        "availability_floor": availability_floor,
        "availability_burn": slo_burn(availability, availability_floor),
        "availability_met": availability >= availability_floor,
    }
    if latency_p95_floor_ms is not None and latency_p95_ms is not None:
        report["latency_p95_ms"] = latency_p95_ms
        report["latency_p95_floor_ms"] = latency_p95_floor_ms
        report["latency_met"] = latency_p95_ms <= latency_p95_floor_ms
    report["met"] = report["availability_met"] and report.get("latency_met",
                                                              True)
    return report
