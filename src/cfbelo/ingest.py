"""Parsing and validation of game-result files and committee-selection files.

Game parsing is total: bad rows are rejected with a reason code, never raised.
Selection files are reference data and are held to a stricter standard; any
violation raises SelectionsError.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import re
from dataclasses import dataclass, field, fields

from .engine import Game

GAMES_HEADER = [
    "season",
    "date",
    "week",
    "home_team",
    "away_team",
    "home_points",
    "away_points",
    "neutral_site",
]
SELECTIONS_HEADER = ["season", "committee_rank", "team", "conference", "won_championship"]

# Rejection reason codes, one per failure mode.
REASON_BAD_HEADER = "bad_header"
REASON_FIELD_COUNT = "field_count"
REASON_BAD_SEASON = "bad_season"
REASON_BAD_DATE = "bad_date"
REASON_BAD_WEEK = "bad_week"
REASON_BAD_POINTS = "bad_points"
REASON_BAD_NEUTRAL = "bad_neutral"
REASON_EMPTY_TEAM = "empty_team"
REASON_SELF_PLAY = "self_play"
REASON_TIE = "tie"
REASON_DUPLICATE = "duplicate"
REASON_DATE_OUT_OF_SEASON = "date_out_of_season"


class SelectionsError(ValueError):
    """A committee-selections file violated its schema or per-season rules."""


@dataclass(frozen=True)
class SelectionRecord:
    """One committee pick: season, rank 1-4, team, conference, champion flag."""

    season: int
    committee_rank: int
    team: str
    conference: str
    won_championship: bool


@dataclass(frozen=True)
class RejectedRow:
    line_number: int
    reason: str
    raw: str


@dataclass
class ParsedGames:
    """Outcome of parsing a games file: accepted games plus a reject report."""

    games: list[Game] = field(default_factory=list)
    rejected: list[RejectedRow] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)


def load_aliases(text: str) -> dict[str, str]:
    """Parse an alias directory: a JSON object of alias -> canonical name."""
    data = json.loads(text)
    if not isinstance(data, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in data.items()
    ):
        raise ValueError("alias directory must be a JSON object mapping names to names")
    return data


def _clean(name: str) -> str:
    return re.sub(r"\s+", " ", name.strip())


class _ResolvedDirectory(dict):
    """Alias map with a precomputed casefolded lookup table. Canonical names map
    to themselves so case/spacing variants of one resolve without an alias entry."""

    def __init__(self, directory: dict[str, str] | None):
        super().__init__(directory or {})
        self._table: dict[str, str] = {}
        for alias, canonical in self.items():
            self._table[_clean(alias).casefold()] = canonical
            self._table.setdefault(_clean(canonical).casefold(), canonical)

    @classmethod
    def of(cls, directory: dict[str, str] | None) -> "_ResolvedDirectory":
        """The directory itself if its table is built, else a resolved copy."""
        return directory if isinstance(directory, cls) else cls(directory)

    def lookup(self, cleaned: str) -> str | None:
        return self._table.get(cleaned.casefold())


def normalize_team(
    name: str,
    directory: dict[str, str] | None = None,
    warnings: list[str] | None = None,
) -> str:
    """Canonical team name for a raw spelling.

    Known aliases map to their canonical form; unknown names pass through
    cleaned (trimmed, inner whitespace collapsed) with a warning recorded.
    """
    cleaned = _clean(name)
    if not cleaned:
        raise ValueError("team name is empty")
    hit = _ResolvedDirectory.of(directory).lookup(cleaned)
    if hit is not None:
        return hit
    if warnings is not None:
        warnings.append(f"unknown team name {cleaned!r} passed through verbatim")
    return cleaned


def parse_iso_date(text: str) -> dt.date:
    """The date of an exact YYYY-MM-DD string; ValueError for anything else.
    From Python 3.11 on, dt.date.fromisoformat alone also takes other ISO 8601
    forms, such as "20230902" and "2023-W36-6"."""
    digits = text[:4] + text[5:7] + text[8:]
    shaped = len(text) == 10 and text[4] == text[7] == "-"
    if not (shaped and digits.isascii() and digits.isdigit()):
        raise ValueError(f"expected a YYYY-MM-DD date, got {text!r}")
    return dt.date.fromisoformat(text)


def _season_window(season: int) -> tuple[dt.date, dt.date] | None:
    # College seasons run August through the following January.
    try:
        return dt.date(season, 8, 1), dt.date(season + 1, 1, 31)
    except (ValueError, OverflowError):  # no calendar date in that year
        return None


def _schema_int(cell: str) -> int | None:
    text = cell.strip()
    # The schema's integers are ASCII digits with an optional sign; int()
    # alone would also take underscores ("1_0") and non-ASCII digits ("١٠").
    digits = text[1:] if text.startswith(("+", "-")) else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            pass
    return None


def _schema_date(cell: str) -> dt.date | None:
    try:
        return parse_iso_date(cell.strip())
    except ValueError:
        return None


def _flag(cell: str) -> bool | None:
    return {"true": True, "false": False}.get(cell.strip().lower())


def _csv_lines(text: str) -> io.TextIOWrapper:
    """The lines of a CSV text less its BOM, split as io.StringIO(newline="") splits them, read
    from a UTF-8 copy 8 KiB at a time: a StringIO of the text would hold 4 bytes a character."""
    data = text.lstrip("\ufeff").encode("utf-8", "surrogatepass")
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogatepass", newline="")


def parse_games(
    text: str,
    aliases: dict[str, str] | None = None,
    allow_duplicates: bool = False,
) -> ParsedGames:
    """Parse a games CSV into validated, canonicalized, date-ordered games.

    Every invalid row lands in the reject report with its line number and a
    machine-readable reason code. A duplicate is a second game between the
    same pair (in either orientation) on the same date.
    """
    result = ParsedGames()
    reader = csv.reader(_csv_lines(text))
    try:
        header = next(reader)
    except StopIteration:
        return result
    if [h.strip() for h in header] != GAMES_HEADER:
        result.rejected.append(
            RejectedRow(reader.line_num, REASON_BAD_HEADER, ",".join(header))
        )
        return result

    validator = _RowValidator(aliases, result.warnings)
    seen_pairs: set[tuple[dt.date, str, str]] = set()
    for row in reader:
        game = validator.validate(row)
        if isinstance(game, str):
            # A blank row of any width fails before anything is recorded: skip it.
            if any(map(str.strip, row)):
                result.rejected.append(RejectedRow(reader.line_num, game, ",".join(row)))
            continue
        a, b = game.team_a, game.team_b
        key = (game.date, a, b) if a < b else (game.date, b, a)
        if not allow_duplicates and key in seen_pairs:
            result.rejected.append(RejectedRow(reader.line_num, REASON_DUPLICATE, ",".join(row)))
            continue
        seen_pairs.add(key)
        result.games.append(game)

    result.games.sort(key=lambda g: g.date)  # stable: same-day keeps file order
    return result


# Slot setters of Game, in field order, for rows the validator has checked in
# full; the public Game(...) would check them again in __post_init__.
_GAME_SLOTS = tuple(Game.__dict__[f.name].__set__ for f in fields(Game))


class _RowValidator:
    """The game-row validator. Its memos are keyed on the raw cell, so each
    distinct cell is stripped and worked out once per parse."""

    def __init__(self, aliases: dict[str, str] | None, warnings: list[str]):
        self._directory = _ResolvedDirectory.of(aliases)
        self._warnings = warnings
        # raw cell (a season, for _windows) -> its value, or None if it is not valid
        self._ints: dict[str, int | None] = {}
        self._dates: dict[str, dt.date | None] = {}
        self._flags: dict[str, bool | None] = {}
        self._names: dict[str, tuple[str, tuple[str, ...]] | None] = {}
        self._windows: dict[int, tuple[dt.date, dt.date] | None] = {}

    def _name(self, cell: str) -> tuple[str, tuple[str, ...]] | None:
        """The canonical name and the warnings normalize_team records for it."""
        if not cell.strip():
            return None
        recorded: list[str] = []
        return normalize_team(cell, self._directory, recorded), tuple(recorded)

    def validate(self, row: list[str]) -> Game | str:
        """Build a Game from one raw CSV row, or return a rejection reason code."""
        if len(row) != len(GAMES_HEADER):
            return REASON_FIELD_COUNT
        season_s, date_s, week_s, home_s, away_s, hp_s, ap_s, neutral_s = row
        ints, dates, flags, names, windows = self._ints, self._dates, self._flags, self._names, self._windows
        season = ints[season_s] if season_s in ints else ints.setdefault(season_s, _schema_int(season_s))
        if season is None:
            return REASON_BAD_SEASON
        date = dates[date_s] if date_s in dates else dates.setdefault(date_s, _schema_date(date_s))
        if date is None:
            return REASON_BAD_DATE
        if (ints[week_s] if week_s in ints else ints.setdefault(week_s, _schema_int(week_s))) is None:
            return REASON_BAD_WEEK
        home_points = ints[hp_s] if hp_s in ints else ints.setdefault(hp_s, _schema_int(hp_s))
        away_points = ints[ap_s] if ap_s in ints else ints.setdefault(ap_s, _schema_int(ap_s))
        if home_points is None or away_points is None or home_points < 0 or away_points < 0:
            return REASON_BAD_POINTS
        neutral = flags[neutral_s] if neutral_s in flags else flags.setdefault(neutral_s, _flag(neutral_s))
        if neutral is None:
            return REASON_BAD_NEUTRAL
        home = names[home_s] if home_s in names else names.setdefault(home_s, self._name(home_s))
        away = names[away_s] if away_s in names else names.setdefault(away_s, self._name(away_s))
        if home is None or away is None:
            return REASON_EMPTY_TEAM
        self._warnings += home[1] + away[1]
        if home[0] == away[0]:
            return REASON_SELF_PLAY
        if home_points == away_points:
            return REASON_TIE
        window = windows[season] if season in windows else windows.setdefault(season, _season_window(season))
        if window is None:
            return REASON_BAD_SEASON
        if not (window[0] <= date <= window[1]):
            return REASON_DATE_OUT_OF_SEASON
        game = object.__new__(Game)
        set_season, set_date, set_team_a, set_team_b, set_score_a, set_score_b, set_neutral = _GAME_SLOTS
        set_season(game, season)
        set_date(game, date)
        set_team_a(game, home[0])
        set_team_b(game, away[0])
        set_score_a(game, home_points)
        set_score_b(game, away_points)
        set_neutral(game, neutral)
        return game


def games_to_csv(games: list[Game]) -> str:
    """Serialize games back to the canonical CSV schema.

    Weeks are not tracked by the engine, so the week column is derived from
    the position of each game's date within its season (7-day buckets from
    the season's first game).
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(GAMES_HEADER)
    season_starts: dict[int, dt.date] = {}
    for game in games:
        first = season_starts.get(game.season)
        if first is None or game.date < first:
            season_starts[game.season] = game.date
    for game in games:
        week = (game.date - season_starts[game.season]).days // 7 + 1
        writer.writerow(
            [
                game.season,
                game.date.isoformat(),
                week,
                game.team_a,
                game.team_b,
                game.score_a,
                game.score_b,
                "true" if game.neutral_site else "false",
            ]
        )
    return out.getvalue()


_REPORT_ESCAPES = str.maketrans({"\\": "\\\\", "\r": "\\r", "\n": "\\n"})


def rejects_to_csv(rejected: list[RejectedRow]) -> str:
    """One line per rejection: line_number,reason_code,raw_row.

    The raw row follows the second comma, so consumers should split each line
    at most twice. It is the row's cells re-joined with commas, CSV quotes dropped
    ("X, Y" comes back as X, Y), with its backslash, CR and LF written \\\\, \\r and \\n.
    """
    return "".join(f"{r.line_number},{r.reason},{r.raw.translate(_REPORT_ESCAPES)}\n" for r in rejected)


def parse_selections(text: str, aliases: dict[str, str] | None = None) -> list[SelectionRecord]:
    """Parse and validate a committee-selections CSV.

    Each season must contribute exactly four records with committee ranks
    1 through 4 and at most one champion. Violations raise SelectionsError
    naming the season.
    """
    directory = _ResolvedDirectory.of(aliases)
    reader = csv.reader(_csv_lines(text))
    try:
        header = next(reader)
    except StopIteration:
        return []
    if [h.strip() for h in header] != SELECTIONS_HEADER:
        raise SelectionsError(f"bad selections header: {','.join(header)!r}")

    records: list[SelectionRecord] = []
    for row in reader:
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(SELECTIONS_HEADER):
            raise SelectionsError(f"line {reader.line_num}: expected 5 fields, got {len(row)}")
        season_s, rank_s, team_s, conference_s, champ_s = (c.strip() for c in row)
        season, rank, champion = _schema_int(season_s), _schema_int(rank_s), _flag(champ_s)
        if season is None or rank is None:
            raise SelectionsError(f"line {reader.line_num}: bad season or rank")
        if champion is None:
            raise SelectionsError(f"line {reader.line_num}: won_championship must be true/false")
        if not team_s or not conference_s:
            raise SelectionsError(f"line {reader.line_num}: empty team or conference")
        records.append(
            SelectionRecord(
                season=season,
                committee_rank=rank,
                team=normalize_team(team_s, directory),
                conference=conference_s,
                won_championship=champion,
            )
        )

    _check_selection_invariants(records)
    records.sort(key=lambda r: (r.season, r.committee_rank))
    return records


def _check_selection_invariants(records: list[SelectionRecord]) -> None:
    by_season: dict[int, list[SelectionRecord]] = {}
    for record in records:
        by_season.setdefault(record.season, []).append(record)
    for season, group in sorted(by_season.items()):
        if len(group) != 4:
            raise SelectionsError(f"season {season}: expected 4 selections, got {len(group)}")
        ranks = sorted(r.committee_rank for r in group)
        if ranks != [1, 2, 3, 4]:
            raise SelectionsError(f"season {season}: committee ranks must be 1-4, got {ranks}")
        teams = {r.team for r in group}
        if len(teams) != 4:
            raise SelectionsError(f"season {season}: duplicate team in selections")
        champions = [r.team for r in group if r.won_championship]
        if len(champions) > 1:
            raise SelectionsError(f"season {season}: more than one champion: {champions}")
