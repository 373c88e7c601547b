"""Loaders for the reference data shipped inside the package.

Three bundled artifacts drive the committee analysis out of the box: the
published selection-day Elo boards for 2014-2023, the committee selections
for the same seasons, and a team-name alias directory. A synthetic
three-season demo schedule rounds them out so every CLI command can run
without external downloads.
"""

from __future__ import annotations

import csv
import datetime as dt
from functools import lru_cache
from importlib.resources import files

from .engine import Snapshot, SnapshotEntry
from .ingest import (
    ParsedGames,
    SelectionRecord,
    _csv_lines,
    _ResolvedDirectory,
    load_aliases,
    normalize_team,
    parse_games,
    parse_selections,
)

SNAPSHOTS_RESOURCE = "elo_snapshots_2014_2023.csv"
SELECTIONS_RESOURCE = "cfp_selections_2014_2023.csv"
ALIASES_RESOURCE = "team_aliases.json"
SAMPLE_GAMES_RESOURCE = "sample_games_2021_2023.csv"


def _read(name: str) -> str:
    return (files(__package__) / "data" / name).read_text(encoding="utf-8")


@lru_cache(maxsize=None)
def bundled_aliases() -> dict[str, str]:
    """The bundled alias directory (raw spelling -> canonical team name), with
    its lookup table built once for every parse that uses it. Read-only."""
    return _ResolvedDirectory(load_aliases(_read(ALIASES_RESOURCE)))


@lru_cache(maxsize=None)
def bundled_selections() -> tuple[SelectionRecord, ...]:
    """Committee selections 2014-2023: 40 records, 4 per season."""
    return tuple(parse_selections(_read(SELECTIONS_RESOURCE), aliases=bundled_aliases()))


def selection_sunday(season: int) -> dt.date:
    """Nominal selection day: the first Sunday of December after the season's
    regular schedule, the day the four teams are announced."""
    first = dt.date(season, 12, 1)
    return first + dt.timedelta(days=(6 - first.weekday()) % 7)


@lru_cache(maxsize=None)
def bundled_snapshots() -> dict[int, Snapshot]:
    """Published selection-day Elo boards, one snapshot per season 2014-2023.

    Team names are canonicalized through the alias directory; ratings,
    ranks, and conference labels stay exactly as published.
    """
    aliases = bundled_aliases()
    by_season: dict[int, list[SnapshotEntry]] = {}
    reader = csv.DictReader(_csv_lines(_read(SNAPSHOTS_RESOURCE)))
    for row in reader:
        season = int(row["season"])
        by_season.setdefault(season, []).append(
            SnapshotEntry(
                elo_rank=int(row["elo_rank"]),
                team=normalize_team(row["team"], aliases),
                conference=row["conference"],
                rating=float(row["rating"]),
            )
        )
    snapshots: dict[int, Snapshot] = {}
    for season, entries in sorted(by_season.items()):
        entries.sort(key=lambda e: e.elo_rank)
        snapshots[season] = Snapshot(
            label=f"{season} selection day",
            as_of=selection_sunday(season),
            entries=tuple(entries),
        )
    return snapshots


def bundled_conferences() -> dict[str, str]:
    """Team -> conference map collected from the bundled boards and
    selections, preferring the most recent season's label (boards win over
    selection records because they run a season later)."""
    table: dict[str, str] = {}
    for record in sorted(bundled_selections(), key=lambda r: r.season):
        table[record.team] = record.conference
    for season, snapshot in sorted(bundled_snapshots().items()):
        for entry in snapshot.entries:
            table[entry.team] = entry.conference
    return table


def sample_games() -> ParsedGames:
    """The bundled synthetic demo schedule (2021-2023, 16 teams).

    Generated data for exercising the pipeline, not real results.
    """
    return parse_games(_read(SAMPLE_GAMES_RESOURCE), aliases=bundled_aliases())
