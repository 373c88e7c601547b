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
from collections import deque
from dataclasses import dataclass, field, fields
from itertools import chain, islice
from operator import attrgetter
from types import SimpleNamespace
from typing import BinaryIO, Callable, Iterable, Iterator

from .engine import Game, season_window

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
REASON_FIELD_TOO_LARGE = "field_too_large"

# Rows of `ingest --format csv|table`, or records of `--format json`, written per piece.
CHUNK = 256


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
    """Parse an alias directory, a JSON object of alias -> canonical name, into a dict whose lookup table is built and
    checked (see `_ResolvedDirectory`) once for every parse it is passed to. ValueError if either step fails."""
    try:
        data = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None
    return _ResolvedDirectory(data)


def _clean(name: str) -> str:
    return re.sub(r"\s+", " ", name.strip())


class _ResolvedDirectory(dict):
    """Alias map with a precomputed casefolded lookup table. Canonical names map to themselves so case/spacing
    variants of one resolve without an alias entry. ValueError if it is not a dict of strings, if a canonical name
    is blank or not clean, or if two names that clean and casefold alike name different teams: re-ingesting ingest's
    output changes nothing."""

    def __init__(self, directory: dict[str, str]):
        if not (isinstance(directory, dict) and all(isinstance(n, str) for n in chain(directory, directory.values()))):
            raise ValueError("alias directory must be a JSON object mapping names to names")
        super().__init__(directory)
        self._table: dict[str, str] = {}
        for alias, canonical in self.items():
            self._table[_clean(alias).casefold()] = canonical
            self._table.setdefault(_clean(canonical).casefold(), canonical)
        for name, team in chain(self.items(), zip(self.values(), self.values())):
            if not team or _clean(team) != team:
                raise ValueError(f"canonical name {team!r} is blank or not trimmed to single spaces")
            if (hit := self.lookup(_clean(name))) != team:
                raise ValueError(f"{name!r} names {team!r}, but a name alike in case and spacing names {hit!r}")

    @classmethod
    def of(cls, directory: dict[str, str] | None) -> "_ResolvedDirectory":
        """The directory itself if its table is built, else a resolved and checked copy."""
        return directory if isinstance(directory, cls) else cls(directory or {})

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
    A plain dict is resolved and checked on every call; pass `load_aliases` output to do it once.
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


def _csv_lines(source: str | BinaryIO) -> Iterator[str]:
    """The lines of a CSV text or open binary file less leading BOMs, split as io.StringIO(newline="")
    splits them and decoded 8 KiB at a time: a text from a UTF-8 copy (a StringIO would hold 4 bytes
    a character), a file as strict UTF-8. Once read, the decoder detaches, leaving a file open."""
    text = isinstance(source, str)
    data = io.BytesIO(source.encode("utf-8", "surrogatepass")) if text else source
    lines = io.TextIOWrapper(data, encoding="utf-8", errors="surrogatepass" if text else "strict", newline="")
    first = next(lines, "").lstrip("\ufeff")
    return chain((first,) if first else (), lines, iter(lines.detach, data))


class _Memo(dict):
    """A dict that works out and keeps a missing key's value; given a `size`, it empties when full."""

    def __init__(self, make: Callable, size: int | None = None):
        super().__init__()
        self.make, self.size = make, size

    def __missing__(self, key):
        if len(self) == self.size:
            self.clear()
        value = self[key] = self.make(key)
        return value


def _team(cell: str, directory: _ResolvedDirectory) -> tuple[str | None, tuple[str, ...]]:
    """The canonical name of a team cell (None if it is blank) and the warnings normalize_team records for it."""
    if not cell.strip():
        return None, ()
    recorded: list[str] = []
    return normalize_team(cell, directory, recorded), tuple(recorded)


def parse_games(
    source: str | BinaryIO,
    aliases: dict[str, str] | None = None,
    allow_duplicates: bool = False,
) -> ParsedGames:
    """Parse a games CSV, given as a text or an open binary file, into validated,
    canonicalized, date-ordered games. A file is read to its end, as strict UTF-8, and left open.

    Every invalid row lands in the reject report with its line number and a
    machine-readable reason code. A duplicate is a second game between the
    same pair (in either orientation) on the same date. While the accepted games come in date
    order, the duplicate check holds only the latest date's pairs and the games are not re-sorted.
    A row with a cell past the csv module's field limit is rejected without its raw text.

    Each distinct cell is worked out once per parse, in one memo per cell kind keyed on the raw
    cell (integers, dates, flags, team names), and each season's window once, in a memo by season.
    """
    result = ParsedGames()
    reader = csv.reader(lines := _csv_lines(source))
    try:
        header = next(reader)
    except StopIteration:
        return result
    except csv.Error:  # a cell past the field limit
        result.rejected.append(RejectedRow(reader.line_num, REASON_FIELD_TOO_LARGE, ""))
    else:
        if [h.strip() for h in header] != GAMES_HEADER:
            result.rejected.append(RejectedRow(reader.line_num, REASON_BAD_HEADER, ",".join(header)))
    if result.rejected:
        deque(lines, 0)  # decode the rest: a file that is not UTF-8 fails whatever its header
        return result
    games, rejected, warnings = result.games, result.rejected, result.warnings
    directory = _ResolvedDirectory.of(aliases)
    ints, dates, flags, windows = _Memo(_schema_int), _Memo(_schema_date), _Memo(_flag), _Memo(season_window)
    names = _Memo(lambda cell: _team(cell, directory))
    set_season, set_date, set_team_a, set_team_b, set_score_a, set_score_b, set_neutral = _GAME_SLOTS
    # The latest date's pairs while accepted games are in date order, then every game's.
    pairs: set[tuple[dt.date, str, str]] = set()
    last, in_order = dt.date.min, True
    while True:
        # A cell past the field limit ends the `for` with csv.Error; the
        # reader goes on from the next line, so the loop is entered again.
        try:
            for row in reader:
                try:
                    season_s, date_s, week_s, home_s, away_s, hp_s, ap_s, neutral_s = row
                except ValueError:
                    reason = REASON_FIELD_COUNT
                else:
                    season, date = ints[season_s], dates[date_s]
                    home_points, away_points = ints[hp_s], ints[ap_s]
                    (home, home_warned), (away, away_warned) = names[home_s], names[away_s]
                    if season is None:
                        reason = REASON_BAD_SEASON
                    elif date is None:
                        reason = REASON_BAD_DATE
                    elif ints[week_s] is None:
                        reason = REASON_BAD_WEEK
                    elif home_points is None or away_points is None or home_points < 0 or away_points < 0:
                        reason = REASON_BAD_POINTS
                    elif (neutral := flags[neutral_s]) is None:
                        reason = REASON_BAD_NEUTRAL
                    elif home is None or away is None:
                        reason = REASON_EMPTY_TEAM
                    else:
                        warnings += home_warned + away_warned  # recorded once both names resolve
                        if home == away:
                            reason = REASON_SELF_PLAY
                        elif home_points == away_points:
                            reason = REASON_TIE
                        elif (window := windows[season]) is None:
                            reason = REASON_BAD_SEASON
                        else:
                            reason = None if window[0] <= date <= window[1] else REASON_DATE_OUT_OF_SEASON
                if reason is None:
                    if in_order and date != last:
                        if in_order := date > last:
                            last = date
                            pairs.clear()  # no later in-order row can repeat an earlier date
                        elif not allow_duplicates:
                            pairs.update((g.date, *sorted((g.team_a, g.team_b))) for g in games)
                    if (key := (date, home, away) if home < away else (date, away, home)) not in pairs:
                        if not allow_duplicates:
                            pairs.add(key)
                        game = object.__new__(Game)
                        set_season(game, season)
                        set_date(game, date)
                        set_team_a(game, home)
                        set_team_b(game, away)
                        set_score_a(game, home_points)
                        set_score_b(game, away_points)
                        set_neutral(game, neutral)
                        games.append(game)
                        continue
                    reason = REASON_DUPLICATE
                # A blank row of any width fails before anything is recorded: skip it.
                if any(map(str.strip, row)):
                    rejected.append(RejectedRow(reader.line_num, reason, ",".join(row)))
            break
        except csv.Error:
            rejected.append(RejectedRow(reader.line_num, REASON_FIELD_TOO_LARGE, ""))

    if not in_order:
        games.sort(key=attrgetter("date"))  # stable: same-day keeps file order
    return result


# Slot setters of Game, in field order, for rows parse_games has checked in
# full; the public Game(...) would check them again in __post_init__.
_GAME_SLOTS = tuple(Game.__dict__[f.name].__set__ for f in fields(Game))


def games_to_csv(games: list[Game]) -> Iterator[str]:
    """The games in the canonical CSV schema, in pieces of the header or
    CHUNK rows, each written only when it is asked for.

    Weeks are not tracked by the engine, so the week column is derived from
    the position of each game's date within its season (7-day buckets from
    the season's first game).

    Each distinct value is encoded once: a row joins its date's memoized "season,date,week,"
    prefix, each team name as csv.writer writes it (memoized, at most 1,024 names; one with
    none of `,` `"` CR LF is kept as itself), the scores and the flag.
    """
    season_starts: dict[int, dt.date] = {}
    for game in games:
        first = season_starts.get(game.season)
        if first is None or game.date < first:
            season_starts[game.season] = game.date
    prefixes = _Memo(lambda key: f"{key[0]},{key[1].isoformat()},{(key[1] - season_starts[key[0]]).days // 7 + 1},")
    # A writer holds a 128 KiB buffer, so only a name that may need quotes gets one; writerow returns the line.
    names = _Memo(lambda cell: csv.writer(SimpleNamespace(write=str), lineterminator="\n").writerow((cell,))[:-1]
                  if re.search(r'[,"\r\n]', cell) else cell, 1024)
    rows = (
        f'{prefixes[g.season, g.date]}{names[g.team_a]},{names[g.team_b]},{g.score_a},{g.score_b},'
        f'{"true" if g.neutral_site else "false"}\n'
        for g in games
    )
    yield ",".join(GAMES_HEADER) + "\n"
    while piece := "".join(islice(rows, CHUNK)):
        yield piece


def games_to_json(games: Iterable[Game]) -> Iterator[str]:
    """`json.dumps(records, indent=2) + "\n"` of the games' records (season, date, home_team,
    away_team, home_points, away_points, neutral_site; no week), in pieces of CHUNK records,
    each taken from `games` only when its piece is written.

    Each distinct value is encoded once: a record fills one template with its date's memoized
    head and its names as json.dumps writes them (memoized, at most 1,024 names).
    """
    heads = _Memo(lambda key: f'{{\n    "season": {key[0]},\n    "date": "{key[1].isoformat()}",\n    "home_team": ')
    names = _Memo(json.dumps, 1024)
    records = (
        f'{heads[g.season, g.date]}{names[g.team_a]},\n    "away_team": {names[g.team_b]},\n'
        f'    "home_points": {g.score_a},\n    "away_points": {g.score_b},\n'
        f'    "neutral_site": {"true" if g.neutral_site else "false"}\n  }}'
        for g in games
    )
    lead = "[\n  "
    while chunk := list(islice(records, CHUNK)):
        yield lead + ",\n  ".join(chunk)
        lead = ",\n  "
    yield "[]\n" if lead[0] == "[" else "\n]\n"  # "[]" when no game came


def games_to_table(games: list[Game]) -> Iterator[str]:
    """`format_table` of the games, sized by one pass per column, in pieces: header and rule, then CHUNK rows."""
    header = ["Season", "Date", "Home", "Away", "Score", "Site"]
    cells = (lambda g: str(g.season), lambda g: g.date.isoformat(), attrgetter("team_a"), attrgetter("team_b"),
             lambda g: f"{g.score_a}-{g.score_b}", lambda g: "neutral" if g.neutral_site else "")
    widths = [max(map(len, chain((name,), map(cell, games)))) for name, cell in zip(header, cells)]
    lines = _table_lines(header, zip(*(map(cell, games) for cell in cells)), widths)
    yield "".join(islice(lines, 2))
    while piece := "".join(islice(lines, CHUNK)):
        yield piece


def format_table(header: list[str], rows: list[list[str]]) -> str:
    """Fixed-width plain table with a header separator line."""
    return "".join(_table_lines(header, rows, [max(map(len, column)) for column in zip(header, *rows)]))


def _table_lines(header: list[str], rows: Iterable[Iterable[str]], widths: list[int]) -> Iterator[str]:
    """The header, a dash rule, then the rows: cells left-justified, two spaces apart, right-trimmed."""
    lines = chain((header, ["-" * w for w in widths]), rows)
    return ("  ".join(map(str.ljust, cells, widths)).rstrip() + "\n" for cells in lines)


_REPORT_ESCAPES = str.maketrans({"\\": "\\\\", "\r": "\\r", "\n": "\\n"})


def rejects_to_csv(rejected: list[RejectedRow]) -> str:
    """One line per rejection: line_number,reason_code,raw_row.

    The raw row follows the second comma, so consumers should split each line
    at most twice. It is the row's cells re-joined with commas, CSV quotes dropped
    ("X, Y" comes back as X, Y), with its backslash, CR and LF written \\\\, \\r and \\n.
    """
    return "".join(f"{r.line_number},{r.reason},{r.raw.translate(_REPORT_ESCAPES)}\n" for r in rejected)


def parse_selections(source: str | BinaryIO, aliases: dict[str, str] | None = None) -> list[SelectionRecord]:
    """Parse and validate a committee-selections CSV, given as a text or an open binary file.

    Each season must contribute exactly four records with committee ranks
    1 through 4 and at most one champion. Violations raise SelectionsError
    naming the season.
    """
    directory = _ResolvedDirectory.of(aliases)
    reader = csv.reader(lines := _csv_lines(source))
    records: list[SelectionRecord] = []
    try:
        header = next(reader, None)
        if header is None:
            return []
        if [h.strip() for h in header] != SELECTIONS_HEADER:
            raise SelectionsError(f"bad selections header: {','.join(header)!r}")
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
    except csv.Error as exc:  # a cell past the field limit
        raise SelectionsError(f"line {reader.line_num}: {exc}") from None
    finally:
        deque(lines, 0)  # decode the rest: a file that is not UTF-8 fails whatever its rows

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
