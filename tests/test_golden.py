"""Byte-for-byte golden outputs for every subcommand and output format.

Each case replays its argv through `cli.main` and compares stdout with the
file under tests/golden/. The files are only ever regenerated by hand, with
the reason recorded in CHANGES.md; a refactor must leave them unchanged.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from cfbelo.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"
DEMO_GAMES = str(Path(__file__).parent.parent / "src" / "cfbelo" / "data" / "sample_games_2021_2023.csv")
EXTENSIONS = {"table": "txt", "csv": "csv", "json": "json"}

_BASE_CASES: dict[str, tuple[str, ...]] = {
    # Bundled inputs: the demo schedule, published boards, selections, or the
    # synthetic league, depending on the subcommand.
    "rate": ("rate",),
    "snapshot": ("snapshot",),
    "compare": ("compare",),
    "stats": ("stats",),
    "compare_season": ("compare", "--season", "2023"),
    "rate_top_n_zero": ("rate", "--top-n", "0"),
    "backtest": ("backtest",),
    "sweep": ("sweep",),
    # The demo schedule passed explicitly.
    "games_ingest": ("ingest", "--games", DEMO_GAMES),
    "games_rate": ("rate", "--games", DEMO_GAMES),
    "games_snapshot": ("snapshot", "--games", DEMO_GAMES),
    "games_compare": ("compare", "--games", DEMO_GAMES),
    "games_compare_agreement": ("compare", "--games", DEMO_GAMES, "--agreement-report"),
    "games_compare_season_agreement": (
        "compare", "--season", "2023", "--games", DEMO_GAMES, "--agreement-report",
    ),
    "games_compare_as_of": (
        "compare", "--games", DEMO_GAMES, "--season", "2023", "--as-of", "2023-10-01",
    ),
    "games_backtest": ("backtest", "--games", DEMO_GAMES),
    "games_backtest_window": (
        "backtest", "--games", DEMO_GAMES, "--eval-window", "2022..2023", "--carryover", "regress:0.5",
    ),
    "games_sweep": ("sweep", "--games", DEMO_GAMES),
    "games_sweep_window": (
        "sweep", "--games", DEMO_GAMES, "--eval-window", "2022..2023", "--carryover", "regress:0.5",
    ),
}

CASES = {
    f"{name}.{ext}": argv + ("--format", fmt)
    for name, argv in _BASE_CASES.items()
    for fmt, ext in EXTENSIONS.items()
}


@pytest.mark.parametrize("filename", sorted(CASES))
def test_stdout_matches_golden(filename, capsys):
    assert main(list(CASES[filename])) == 0
    assert capsys.readouterr().out == (GOLDEN_DIR / filename).read_text(encoding="utf-8")


def test_every_golden_file_has_a_case():
    assert sorted(p.name for p in GOLDEN_DIR.iterdir()) == sorted(CASES)
