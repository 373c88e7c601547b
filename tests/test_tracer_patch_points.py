"""The benchmark tracer wraps package functions by attribute name
(`cli.replay`, `engine.rank_teams`, the `analysis.render_*` functions, ...).
A refactor that drops one of those names, or binds one before the tracer
patches it, breaks or silently thins `bench/run.py --trace 1`; this test
fails first."""

import contextlib
import io
import sys
import types
from pathlib import Path

import pytest

from cfbelo import analysis, cli, engine, evaluation

TRACER = Path(__file__).parent.parent / "bench" / "tracer.py"
DEMO_GAMES = str(Path(__file__).parent.parent / "src" / "cfbelo" / "data" / "sample_games_2021_2023.csv")

# The spans one traced op of each command records.
PARSE = {"ingest.parse_games", "cli.report_ingest_problems"}
SPANS = {
    ("ingest", "--format", "csv"): PARSE | {"ingest.games_to_csv"},
    ("rate",): PARSE | {"engine.replay", "engine.rank_teams", "analysis.render"},
    ("snapshot",): PARSE | {"engine.snapshot_at", "engine.rank_teams", "analysis.render"},
    ("compare", "--agreement-report"): PARSE | {
        "engine.rank_teams", "analysis.compare_all", "analysis.reference_agreement", "analysis.render",
    },
    ("backtest",): PARSE | {"evaluation.backtest", "analysis.render"},
    ("sweep",): PARSE | {"evaluation.sweep_k", "analysis.render"},
}


def load_tracer(monkeypatch):
    """bench/tracer.py as a module, run from its source text so nothing is
    written under bench/."""
    module = types.ModuleType("bench_tracer")
    monkeypatch.setitem(sys.modules, module.__name__, module)  # its dataclasses look it up
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def traced(monkeypatch, argv):
    """Run `cfbelo ARGV` under the tracer; returns its exit code, stdout and span names."""
    tracing = load_tracer(monkeypatch)
    tracer = tracing.Tracer()
    modules = (analysis, cli, engine, evaluation)
    before = [dict(vars(m)) for m in modules]
    try:
        tracing.install_layer_spans(tracer)
        with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    finally:
        tracer.unpatch()
    assert [dict(vars(m)) for m in modules] == before  # every patch is undone
    return code, out.getvalue(), {span.name for span in tracer.spans}


def test_traced_rate_records_engine_and_render_spans(monkeypatch):
    code, out, names = traced(monkeypatch, ["rate", "--format", "json"])
    assert code == 0
    assert out.startswith("{")
    assert {"engine.replay", "analysis.render"} <= names


@pytest.mark.parametrize("argv", sorted(SPANS), ids=lambda argv: " ".join(argv))
def test_each_command_records_its_layer_spans(monkeypatch, argv):
    code, out, names = traced(monkeypatch, [*argv, "--games", DEMO_GAMES])
    assert code == 0 and out
    assert names == SPANS[argv]
