"""Outside-in tracer for the cfbelo benchmark.

Spans are recorded from the benchmark's own code by replacing module
attributes of cfbelo with timing wrappers, at the name each caller looks the
function up under (`cfbelo.cli.parse_games`, `cfbelo.engine.replay`, ...).
Nothing inside the package changes. Spans stay in memory; the benchmark
reduces them to per-layer metrics at the end of the run.

Each thread keeps its own span stack. A span opened on a thread whose stack
is empty (a `sweep_k` arm on a pool thread) gets the innermost open span of
the client thread as its parent: the benchmark drives the CLI from a single
client thread, so whatever runs on another thread was started by that span.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)


Recorder = Callable[[dict, tuple, dict, Any], None]


class Tracer:
    """Records spans; `patch` installs wrappers and `unpatch` removes them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._client = threading.get_ident()
        self._client_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, **attrs: Any) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._client_stack and self._client_stack:
            parent = self._client_stack[-1]
        else:
            parent = None
        with self._lock:
            span = Span(len(self.spans), name, parent, threading.get_ident(), 0.0, attrs=attrs)
            self.spans.append(span)
        stack.append(span.sid)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, fn: Callable, record: Recorder | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if record is not None:
                record(span.attrs, args, kwargs, result)
            return result

        return traced

    def patch(self, module: object, attr: str, name: str, record: Recorder | None = None) -> None:
        original = getattr(module, attr)
        self._patches.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, record))

    def unpatch(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def _games_arg(attrs: dict, args: tuple, kwargs: dict, result: Any) -> None:
    attrs["games"] = len(args[0] if args else kwargs["games"])


def _parsed(attrs: dict, args: tuple, kwargs: dict, result: Any) -> None:
    attrs["rows"] = len(result.games) + len(result.rejected)
    attrs["warnings"] = len(result.warnings)
    attrs["rejected"] = len(result.rejected)


def _scored(attrs: dict, args: tuple, kwargs: dict, result: Any) -> None:
    attrs["games_scored"] = result.n_games


def _rendered(attrs: dict, args: tuple, kwargs: dict, result: Any) -> None:
    attrs["bytes"] = len(result.encode("utf-8"))


def install_layer_spans(tracer: Tracer) -> None:
    """Wrap the public functions each layer exposes to its callers.

    `elo` gets no span: its per-game calls sit inside `engine.replay` and
    `evaluation.backtest`, and a span per call would swamp the run.
    """
    from cfbelo import analysis, cli, engine, evaluation

    tracer.patch(cli, "parse_games", "ingest.parse_games", _parsed)
    tracer.patch(cli, "_report_ingest_problems", "cli.report_ingest_problems")
    tracer.patch(cli, "games_to_csv", "ingest.games_to_csv")
    tracer.patch(cli, "replay", "engine.replay", _games_arg)
    tracer.patch(engine, "replay", "engine.replay", _games_arg)  # inside snapshot_at
    tracer.patch(cli, "snapshot_at", "engine.snapshot_at")
    tracer.patch(cli, "rank_teams", "engine.rank_teams")
    tracer.patch(engine, "rank_teams", "engine.rank_teams")  # inside snapshot_at
    tracer.patch(evaluation, "backtest", "evaluation.backtest", _scored)  # also the sweep arms
    tracer.patch(evaluation, "sweep_k", "evaluation.sweep_k")
    tracer.patch(analysis, "compare_all", "analysis.compare_all")
    tracer.patch(analysis, "reference_agreement", "analysis.reference_agreement")
    for render in ("render_report", "render_comparisons", "render_agreement", "render_sweep"):
        tracer.patch(analysis, render, "analysis.render", _rendered)


# --------------------------------------------------------------------------
# Span arithmetic


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children: Iterable[Span]) -> float:
    """Duration minus the union of the children's intervals, clipped to the
    span. Children on different threads may overlap; they are not summed."""
    covered = union_length(
        (max(c.start, span.start), min(c.end, span.end)) for c in children if c.end > span.start and c.start < span.end
    )
    return (span.end - span.start) - covered


@dataclass
class LayerStats:
    """Per-name totals over one set of spans."""

    busy_s: dict[str, float]  # union of the name's intervals
    self_s: dict[str, float]  # summed self time of the name's spans
    calls: dict[str, int]
    attrs: dict[str, float]  # "name.attr" -> summed attribute
    by_root: dict[tuple[str, str], float]  # (root op, name) -> union of intervals


def summarize(spans: list[Span]) -> LayerStats:
    by_id = {s.sid: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)

    def root_op(s: Span) -> str:
        while s.parent is not None and s.parent in by_id:
            s = by_id[s.parent]
        return s.attrs.get("op", s.name)

    intervals: dict[str, list[tuple[float, float]]] = {}
    rooted: dict[tuple[str, str], list[tuple[float, float]]] = {}
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, float] = {}
    for s in spans:
        intervals.setdefault(s.name, []).append((s.start, s.end))
        rooted.setdefault((root_op(s), s.name), []).append((s.start, s.end))
        self_s[s.name] = self_s.get(s.name, 0.0) + self_time(s, children.get(s.sid, ()))
        calls[s.name] = calls.get(s.name, 0) + 1
        for key, value in s.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                attrs[f"{s.name}.{key}"] = attrs.get(f"{s.name}.{key}", 0) + value
    return LayerStats(
        busy_s={name: union_length(iv) for name, iv in intervals.items()},
        self_s=self_s,
        calls=calls,
        attrs=attrs,
        by_root={key: union_length(iv) for key, iv in rooted.items()},
    )
