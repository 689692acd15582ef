"""Trace inspection: text rendering of ``repro.obs`` trace streams.

``tracedump`` is to traces what ``logdump`` is to the stable log: the
views a developer wants when asking *where* the forces, page ships and
redo records of a run went — a nested span tree, per-pass recovery
timelines with per-client attribution, and category summaries.

Usage::

    from repro.tools.tracedump import span_tree, recovery_timelines
    print(span_tree(events))          # events = tracer.events or JSONL rows
    print(recovery_timelines(events))

or, on a trace file / as a demo::

    python -m repro.tools.tracedump trace.jsonl            # all views
    python -m repro.tools.tracedump --demo                 # E5-style run
    python -m repro.tools.tracedump --demo --emit out.jsonl --chrome out.json
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from repro.obs.export import event_to_dict
from repro.obs.tracer import TraceEvent

#: Accepted event stream shapes: live tracer events or parsed JSONL rows.
EventStream = Union[Sequence[TraceEvent], Sequence[Dict[str, Any]]]


def _rows(events: EventStream) -> List[Dict[str, Any]]:
    return [
        event_to_dict(e) if isinstance(e, TraceEvent) else e
        for e in events
    ]


class _Span:
    """One reassembled span: begin/end rows joined by span id."""

    def __init__(self, row: Dict[str, Any]) -> None:
        self.span_id: int = row["span"]
        self.parent_id: int = row["parent"]
        self.cat: str = row["cat"]
        self.name: str = row["name"]
        self.node: str = row["node"]
        self.begin_tick: int = row["tick"]
        self.begin_args: Dict[str, Any] = row["args"]
        self.end_tick: Optional[int] = None
        self.end_args: Dict[str, Any] = {}
        self.children: List["_Span"] = []
        self.instants: List[Dict[str, Any]] = []


def build_spans(events: EventStream) -> List[_Span]:
    """Reassemble the span forest; returns the root spans in tick order."""
    roots: List[_Span] = []
    by_id: Dict[int, _Span] = {}
    for row in _rows(events):
        ph = row["ph"]
        if ph == "B":
            span = _Span(row)
            by_id[span.span_id] = span
            parent = by_id.get(span.parent_id)
            if parent is not None:
                parent.children.append(span)
            else:
                roots.append(span)
        elif ph == "E":
            span = by_id[row["span"]]
            span.end_tick = row["tick"]
            span.end_args = row["args"]
        elif ph == "I":
            parent = by_id.get(row["parent"])
            if parent is not None:
                parent.instants.append(row)
    return roots


def _fmt_args(args: Dict[str, Any]) -> str:
    parts = []
    for key in sorted(args):
        value = args[key]
        if isinstance(value, dict):
            inner = ",".join(f"{k}={v}" for k, v in sorted(value.items()))
            parts.append(f"{key}={{{inner}}}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def span_tree(events: EventStream, instants: bool = False) -> str:
    """The span forest, indented by nesting, one line per span.

    With ``instants`` the point events inside each span are listed too.
    """
    lines = ["span tree:"]

    def render(span: _Span, depth: int) -> None:
        end = span.end_tick if span.end_tick is not None else "?"
        indent = "  " * (depth + 1)
        lines.append(
            f"{indent}[{span.node}] {span.cat}:{span.name} "
            f"ticks {span.begin_tick}..{end}"
        )
        merged = dict(span.begin_args)
        merged.update(span.end_args)
        if merged:
            lines.append(f"{indent}  {_fmt_args(merged)}")
        if instants:
            for row in span.instants:
                lines.append(
                    f"{indent}  @ {row['tick']} [{row['node']}] "
                    f"{row['cat']}:{row['name']} {_fmt_args(row['args'])}"
                )
        for child in span.children:
            render(child, depth + 1)

    roots = build_spans(events)
    if not roots:
        return "span tree: (no spans recorded)"
    for root in roots:
        render(root, 0)
    return "\n".join(lines)


#: Recovery-pass span names in execution order.
_PASSES = ("analysis", "redo", "undo")


def recovery_timelines(events: EventStream) -> str:
    """Per-pass timelines of every recovery run in the trace.

    One block per ``recovery`` root span (a server restart or one failed
    client's recovery), one line per pass, with the counters the paper's
    sections 2.6-2.7 reason about — records scanned, pages redone, CLRs
    written — and their per-client attribution.  The redo line also
    carries the records it considered and the pages it fetched, so
    records per page fetched reads straight off it.
    """
    blocks: List[str] = []
    for root in build_spans(events):
        if root.cat != "recovery":
            continue
        title = f"recovery timeline: {root.name}"
        detail = _fmt_args(root.begin_args)
        if detail:
            title += f" ({detail})"
        end = root.end_tick if root.end_tick is not None else "?"
        lines = [title, f"  ticks {root.begin_tick}..{end}"]
        header = (f"  {'pass':<10} {'ticks':<14} {'scanned':>8} "
                  f"{'considered':>10} {'pages':>6} "
                  f"{'redone':>8} {'clrs':>6}  per-client")
        lines.append(header)
        lines.append("  " + "-" * (len(header) + 8))
        passes = {
            child.name: child for child in root.children
            if child.cat == "recovery"
        }
        for name in _PASSES:
            span = passes.get(name)
            if span is None:
                continue
            scanned = span.end_args.get("records_scanned", 0)
            considered = span.end_args.get("records_considered", "-")
            pages = span.end_args.get("pages_visited", "-")
            redone = span.end_args.get("pages_redone", "-")
            clrs = span.end_args.get("clrs_written", "-")
            by_client = span.end_args.get("by_client", {})
            attribution = ",".join(
                f"{client}={count}"
                for client, count in sorted(by_client.items())
            ) or "-"
            ticks = f"{span.begin_tick}..{span.end_tick}"
            lines.append(f"  {name:<10} {ticks:<14} {scanned:>8} "
                         f"{considered:>10} {pages:>6} "
                         f"{redone:>8} {clrs:>6}  {attribution}")
        total = root.end_args.get("total_records")
        if total is not None:
            lines.append(f"  total log records processed: {total}")
        blocks.append("\n".join(lines))
    if not blocks:
        return "recovery timeline: (no recovery spans in trace)"
    return "\n\n".join(blocks)


def summarize(events: EventStream) -> str:
    """Event counts per category:name, plus span/instant totals."""
    from collections import Counter
    counts: Counter = Counter()
    spans = 0
    instants = 0
    last_tick = 0
    for row in _rows(events):
        counts[f"{row['cat']}:{row['name']}"] += 1
        if row["ph"] == "B":
            spans += 1
        elif row["ph"] == "I":
            instants += 1
        last_tick = max(last_tick, row["tick"])
    lines = ["trace summary:"]
    for key in sorted(counts):
        lines.append(f"  {key:<32} {counts[key]:>6}")
    lines.append(f"  total events  {sum(counts.values())} "
                 f"({spans} spans, {instants} instants), "
                 f"last tick {last_tick}")
    return "\n".join(lines)


def _demo_system(flight_depth: int = 0):
    """An E5-style run: committed work, then a client dies mid-transaction."""
    from repro.config import SystemConfig
    from repro.core.system import ClientServerSystem
    from repro.workloads.generator import seed_table

    system = ClientServerSystem(
        SystemConfig(trace_enabled=True, metrics_enabled=True,
                     client_checkpoint_interval=4,
                     flight_recorder_depth=flight_depth),
        client_ids=["C1", "C2"],
    )
    system.bootstrap(data_pages=8)
    rids = seed_table(system, "C1", "demo", 4, 4)
    client = system.client("C1")
    for round_index in range(8):
        txn = client.begin()
        client.update(txn, rids[round_index % len(rids)], f"v{round_index}")
        client.commit(txn)
    doomed = client.begin()
    client.update(doomed, rids[0], "never-committed")
    client.update(doomed, rids[5], "never-committed-either")
    client._ship_log_records()         # records reach the server...
    system.crash_client("C1")          # ...so its recovery must undo them
    return system


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Exit codes are part of the contract (pinned by a CLI test): 0 on
    success, 1 when a rendered export fails schema validation, 2 on
    usage errors (argparse).
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.tracedump",
        description="Render a repro.obs trace (span tree, recovery "
                    "timelines, summary, metrics, flight rings).",
    )
    parser.add_argument("trace", nargs="?", metavar="TRACE.jsonl",
                        help="JSONL trace file to render (omit with --demo)")
    parser.add_argument("--demo", action="store_true",
                        help="run an E5-style client-crash scenario with "
                             "tracing+metrics enabled and render its trace")
    parser.add_argument("--tree", action="store_true",
                        help="print only the span tree")
    parser.add_argument("--recovery", action="store_true",
                        help="print only the recovery timelines")
    parser.add_argument("--metrics", action="store_true",
                        help="print the OpenMetrics rendering of the demo "
                             "run's histograms (requires --demo)")
    parser.add_argument("--flight", action="store_true",
                        help="print the demo run's flight-recorder rings as "
                             "canonical JSON (requires --demo)")
    parser.add_argument("--instants", action="store_true",
                        help="include instant events in the span tree")
    parser.add_argument("--emit", metavar="OUT.jsonl",
                        help="also write the trace as canonical JSONL")
    parser.add_argument("--chrome", metavar="OUT.json",
                        help="also write Chrome trace_event JSON "
                             "(load in Perfetto / about:tracing)")
    opts = parser.parse_args(argv)

    if (opts.metrics or opts.flight) and not opts.demo:
        parser.error("--metrics/--flight render live state and need --demo")

    from repro.obs.export import validate_chrome_trace, to_chrome_trace

    events: EventStream
    system = None
    if opts.demo:
        system = _demo_system(flight_depth=64 if opts.flight else 0)
        assert system.probe.tracer is not None
        events = system.probe.tracer.events
    elif opts.trace:
        from repro.obs.export import read_jsonl
        with open(opts.trace, "r", encoding="utf-8") as fp:
            events = read_jsonl(fp.read())
    else:
        parser.error("give a TRACE.jsonl file or --demo")
        return 2

    if opts.emit:
        from repro.obs.export import to_jsonl
        with open(opts.emit, "w", encoding="utf-8") as fp:
            fp.write(to_jsonl(list(_as_trace_events(events))))
        print(f"wrote {opts.emit}")
    if opts.chrome:
        from repro.obs.export import chrome_trace_json
        with open(opts.chrome, "w", encoding="utf-8") as fp:
            fp.write(chrome_trace_json(list(_as_trace_events(events))))
        print(f"wrote {opts.chrome}")

    failed = False
    if opts.metrics:
        assert system is not None
        from repro.harness.metrics import snapshot
        from repro.obs.export import render_openmetrics, validate_openmetrics
        snap = snapshot(system)
        text = render_openmetrics(snap.as_dict(), snap.histograms)
        print(text, end="")
        problems = validate_openmetrics(text)
        if problems:
            for problem in problems:
                print(f"OPENMETRICS INVALID: {problem}")
            failed = True
    if opts.flight:
        flight = system.probe.flight if system is not None else None
        assert flight is not None
        print(flight.dump_json(flight.capture("tracedump")))
    if opts.metrics or opts.flight:
        return 1 if failed else 0

    only = opts.tree or opts.recovery
    if opts.tree or not only:
        print(span_tree(events, instants=opts.instants))
        if not opts.tree:
            print()
    if opts.recovery or not only:
        print(recovery_timelines(events))
        if not only:
            print()
            print(summarize(events))

    # Export validation backs the exit code: a trace that renders but
    # does not round-trip through the Chrome trace_event contract is a
    # broken artifact, and CI must see that as a failure.
    problems = validate_chrome_trace(
        to_chrome_trace(list(_as_trace_events(events))))
    if problems:
        print()
        for problem in problems:
            print(f"TRACE INVALID: {problem}")
        return 1
    return 0


def _as_trace_events(events: EventStream) -> Iterable[TraceEvent]:
    """Exporters take TraceEvents; rebuild them from rows if needed."""
    for e in events:
        if isinstance(e, TraceEvent):
            yield e
        else:
            yield TraceEvent(
                tick=e["tick"], phase=e["ph"], cat=e["cat"], name=e["name"],
                node=e["node"], span_id=e["span"], parent_id=e["parent"],
                args=tuple(sorted(e["args"].items())),
            )


if __name__ == "__main__":
    raise SystemExit(main())
