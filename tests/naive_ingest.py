"""Independent naive oracles for the games-file row path and the games renders.

A plain per-row validator: no memos, the public `Game(...)` constructor, and
one check after another in the order the README gives for reason codes. It
borrows only `normalize_team` (whose own tests pin it) and the reason-code
names from the package under test. The renders write every row through one
csv.writer, every record through one json.dumps, and the table from widths
taken over the whole list.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import re

from cfbelo.engine import Game
from cfbelo.ingest import GAMES_HEADER, normalize_team


def naive_int(text: str) -> int | None:
    if re.fullmatch(r"[+-]?[0-9]+", text) is None:
        return None
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        return None


def naive_date(text: str) -> dt.date | None:
    match = re.fullmatch(r"([0-9]{4})-([0-9]{2})-([0-9]{2})", text)
    if match is None:
        return None
    try:
        return dt.date(*map(int, match.groups()))
    except ValueError:
        return None


def naive_reason_or_game(cells: list[str], aliases, warnings: list[str]):
    """The first failing check's reason code for one row of stripped cells, or its Game."""
    if len(cells) != 8:
        return "field_count"
    season_s, date_s, week_s, home_s, away_s, home_points_s, away_points_s, neutral_s = cells
    season = naive_int(season_s)
    if season is None:
        return "bad_season"
    date = naive_date(date_s)
    if date is None:
        return "bad_date"
    if naive_int(week_s) is None:
        return "bad_week"
    home_points, away_points = naive_int(home_points_s), naive_int(away_points_s)
    if home_points is None or away_points is None or min(home_points, away_points) < 0:
        return "bad_points"
    if neutral_s.lower() not in ("true", "false"):
        return "bad_neutral"
    if home_s == "" or away_s == "":
        return "empty_team"
    home = normalize_team(home_s, aliases, warnings)
    away = normalize_team(away_s, aliases, warnings)
    if home == away:
        return "self_play"
    if home_points == away_points:
        return "tie"
    try:
        first, last = dt.date(season, 8, 1), dt.date(season + 1, 1, 31)
    except (ValueError, OverflowError):
        return "bad_season"
    if not first <= date <= last:
        return "date_out_of_season"
    return Game(season, date, home, away, home_points, away_points, neutral_s.lower() == "true")


def naive_parse_games(text: str, aliases=None, allow_duplicates: bool = False):
    """(games in date order, [(line_number, reason, raw)], warnings)."""
    games: list[Game] = []
    rejected: list[tuple[int, str, str]] = []
    warnings: list[str] = []
    reader = csv.reader(io.StringIO(text.lstrip("﻿"), newline=""))
    header = next(reader, None)
    if header is None:
        return games, rejected, warnings
    if [h.strip() for h in header] != GAMES_HEADER:
        return games, [(reader.line_num, "bad_header", ",".join(header))], warnings
    pairs_seen = set()
    for row in reader:
        cells = [cell.strip() for cell in row]
        if all(cell == "" for cell in cells):
            continue
        outcome = naive_reason_or_game(cells, aliases, warnings)
        if isinstance(outcome, Game):
            pair = (outcome.date, frozenset((outcome.team_a, outcome.team_b)))
            if pair in pairs_seen and not allow_duplicates:
                outcome = "duplicate"
            else:
                pairs_seen.add(pair)
                games.append(outcome)
                continue
        rejected.append((reader.line_num, outcome, ",".join(row)))
    return sorted(games, key=lambda g: g.date), rejected, warnings


def naive_games_to_csv(games: list[Game]) -> str:
    """`ingest --format csv`: each row's cells through one csv.writer, the week counted
    in 7-day buckets from its season's first date."""
    first: dict[int, dt.date] = {}
    for game in games:
        first[game.season] = min(first.get(game.season, game.date), game.date)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(GAMES_HEADER)
    for g in games:
        week = (g.date - first[g.season]).days // 7 + 1
        flag = "true" if g.neutral_site else "false"
        writer.writerow([g.season, g.date.isoformat(), week, g.team_a, g.team_b, g.score_a, g.score_b, flag])
    return out.getvalue()


def naive_games_json(games: list[Game]) -> str:
    """`ingest --format json`: one json.dumps of every record, indented by 2."""
    records = [
        {"season": g.season, "date": g.date.isoformat(), "home_team": g.team_a, "away_team": g.team_b,
         "home_points": g.score_a, "away_points": g.score_b, "neutral_site": g.neutral_site}
        for g in games
    ]
    return json.dumps(records, indent=2) + "\n"


def naive_games_table(games: list[Game]) -> str:
    """`ingest --format table`: each column as wide as its widest cell over the whole list,
    every cell ljust to it, two spaces apart, each line rstripped, a dash rule under the header."""
    header = ["Season", "Date", "Home", "Away", "Score", "Site"]
    rows = [
        [str(g.season), g.date.isoformat(), g.team_a, g.team_b, f"{g.score_a}-{g.score_b}",
         "neutral" if g.neutral_site else ""]
        for g in games
    ]
    widths = [max(len(row[i]) for row in [header, *rows]) for i in range(len(header))]
    lines = [header, ["-" * w for w in widths], *rows]
    return "".join("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n" for line in lines)
