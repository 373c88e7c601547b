"""The benchmark tracer wraps package functions by attribute name
(`cli.replay`, `engine.rank_teams`, the `analysis.render_*` functions, ...).
A refactor that drops one of those names breaks `bench/run.py --trace 1`;
this test fails first."""

import contextlib
import io
import sys
import types
from pathlib import Path

from cfbelo import cli

TRACER = Path(__file__).parent.parent / "bench" / "tracer.py"


def load_tracer(monkeypatch):
    """bench/tracer.py as a module, run from its source text so nothing is
    written under bench/."""
    module = types.ModuleType("bench_tracer")
    monkeypatch.setitem(sys.modules, module.__name__, module)  # its dataclasses look it up
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def test_traced_rate_records_engine_and_render_spans(monkeypatch):
    tracing = load_tracer(monkeypatch)
    tracer = tracing.Tracer()
    replay = cli.replay
    try:
        tracing.install_layer_spans(tracer)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert cli.main(["rate", "--format", "json"]) == 0
    finally:
        tracer.unpatch()
    assert out.getvalue().startswith("{")
    names = {span.name for span in tracer.spans}
    assert {"engine.replay", "analysis.render"} <= names
    assert cli.replay is replay
