import csv
import dataclasses
import datetime as dt
import io
import pickle
import random
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfbelo import cli, ingest
from cfbelo.datasets import bundled_aliases
from cfbelo.engine import Game, TiedScoreError
from cfbelo.ingest import (
    GAMES_HEADER,
    REASON_BAD_DATE,
    REASON_BAD_HEADER,
    REASON_BAD_POINTS,
    REASON_BAD_SEASON,
    REASON_BAD_WEEK,
    REASON_DATE_OUT_OF_SEASON,
    REASON_DUPLICATE,
    REASON_FIELD_TOO_LARGE,
    REASON_SELF_PLAY,
    REASON_TIE,
    RejectedRow,
    SelectionsError,
    games_to_csv,
    games_to_json,
    games_to_table,
    normalize_team,
    parse_games,
    parse_selections,
    rejects_to_csv,
)

from naive_ingest import naive_games_json, naive_games_table, naive_games_to_csv, naive_parse_games

HEADER = ",".join(GAMES_HEADER)


def rows_to_text(*rows):
    return "\n".join([HEADER, *rows]) + "\n"


class TestParseGames:
    def test_schema_row_maps_to_game(self):
        parsed = parse_games(rows_to_text("2023,2023-11-25,13,Michigan,Ohio State,30,24,false"))
        assert len(parsed.games) == 1
        g = parsed.games[0]
        assert g.winner == "Michigan"
        assert g.season == 2023
        assert g.date == dt.date(2023, 11, 25)
        assert (g.score_a, g.score_b) == (30, 24)
        assert g.neutral_site is False

    def test_tied_score_rejected_with_tie_reason(self):
        parsed = parse_games(rows_to_text("2023,2023-09-02,1,A,B,21,21,false"))
        assert parsed.games == []
        assert [r.reason for r in parsed.rejected] == [REASON_TIE]
        assert parsed.rejected[0].line_number == 2

    def test_duplicate_row_rejected(self):
        row = "2023,2023-09-02,1,A,B,21,7,false"
        parsed = parse_games(rows_to_text(row, row))
        assert len(parsed.games) == 1
        assert [r.reason for r in parsed.rejected] == [REASON_DUPLICATE]

    def test_reversed_pair_same_day_is_also_duplicate(self):
        parsed = parse_games(
            rows_to_text("2023,2023-09-02,1,A,B,21,7,false", "2023,2023-09-02,1,B,A,3,9,false")
        )
        assert [r.reason for r in parsed.rejected] == [REASON_DUPLICATE]

    def test_a_pair_repeated_after_a_later_date_is_still_a_duplicate(self):
        rows = (
            "2023,2023-09-02,1,A,B,21,7,false",
            "2023,2023-09-09,2,A,B,14,3,false",
            "2023,2023-09-02,1,B,A,9,3,false",
        )
        parsed = parse_games(rows_to_text(*rows))
        assert [(g.date.day, g.team_a) for g in parsed.games] == [(2, "A"), (9, "A")]
        assert parsed.rejected == [RejectedRow(4, REASON_DUPLICATE, rows[2])]
        kept = parse_games(rows_to_text(*rows), allow_duplicates=True)
        assert [(g.date.day, g.team_a) for g in kept.games] == [(2, "A"), (2, "B"), (9, "A")]
        assert kept.rejected == []

    def test_duplicates_allowed_when_asked(self):
        row = "2023,2023-09-02,1,A,B,21,7,false"
        parsed = parse_games(rows_to_text(row, row), allow_duplicates=True)
        assert len(parsed.games) == 2

    def test_bad_date_and_points_rejected(self):
        parsed = parse_games(
            rows_to_text(
                "2023,not-a-date,1,A,B,21,7,false",
                "2023,2023-09-02,1,A,B,twenty,7,false",
                "2023,2023-09-02,1,A,B,-3,7,false",
            )
        )
        assert parsed.games == []
        assert [r.reason for r in parsed.rejected] == [
            REASON_BAD_DATE,
            REASON_BAD_POINTS,
            REASON_BAD_POINTS,
        ]

    def test_self_play_rejected(self):
        parsed = parse_games(rows_to_text("2023,2023-09-02,1,A,A,21,7,false"))
        assert [r.reason for r in parsed.rejected] == [REASON_SELF_PLAY]

    def test_date_outside_season_window_rejected(self):
        parsed = parse_games(
            rows_to_text(
                "2023,2023-05-01,1,A,B,21,7,false",  # spring of season year
                "2023,2024-01-08,20,A,B,21,7,false",  # title game in January is fine
            )
        )
        assert len(parsed.games) == 1
        assert [r.reason for r in parsed.rejected] == [REASON_DATE_OUT_OF_SEASON]

    def test_wrong_header_rejects_whole_file(self):
        parsed = parse_games("a,b,c\n1,2,3\n")
        assert parsed.games == []
        assert [r.reason for r in parsed.rejected] == [REASON_BAD_HEADER]

    def test_games_come_back_date_sorted(self):
        parsed = parse_games(
            rows_to_text(
                "2023,2023-10-07,6,C,D,14,10,false",
                "2023,2023-09-02,1,A,B,21,7,false",
            )
        )
        assert [g.date.day for g in parsed.games] == [2, 7]

    def test_crlf_accepted(self):
        text = HEADER + "\r\n" + "2023,2023-09-02,1,A,B,21,7,false\r\n"
        parsed = parse_games(text)
        assert len(parsed.games) == 1

    def test_empty_input_yields_nothing(self):
        assert parse_games("").games == []
        assert parse_games(HEADER + "\n").games == []

    def test_parser_is_total_on_garbage(self):
        rng = random.Random(29)
        junk_lines = [
            "".join(rng.choice('abc,01"\n \t') for _ in range(rng.randint(0, 40)))
            for _ in range(50)
        ]
        parsed = parse_games(HEADER + "\n" + "\n".join(junk_lines))
        assert all(r.reason for r in parsed.rejected)

    def test_aliases_canonicalize_names(self):
        parsed = parse_games(
            rows_to_text("2023,2023-09-02,1,Ohio St.,Michigan,21,24,false"),
            aliases=bundled_aliases(),
        )
        assert parsed.games[0].team_a == "Ohio State"

    def test_unknown_name_warns_and_passes_through(self):
        parsed = parse_games(rows_to_text("2023,2023-09-02,1,Weber State,Idaho,21,24,false"))
        assert parsed.games[0].team_a == "Weber State"
        assert any("Weber State" in w for w in parsed.warnings)


class TestFieldLimit:
    """csv's default field limit is 131,072 characters; a longer cell is one
    bad row, and csv.field_size_limit stays as it is."""

    LIMIT = 131_072

    def test_an_over_long_cell_rejects_its_row_and_parsing_goes_on(self):
        text = rows_to_text(
            "2023,2023-09-02,1,A,B,21,7,false",
            f"2023,2023-09-09,2,{'X' * (self.LIMIT + 1)},B,21,7,false",
            f'2023,2023-09-16,3,A,"{"Y" * (self.LIMIT + 1)}\nstill the cell",21,7,false',
            f"2023,2023-09-23,4,{'Z' * self.LIMIT},B,21,7,false",
        )
        parsed = parse_games(text)
        assert parsed.rejected[:2] == [
            RejectedRow(3, REASON_FIELD_TOO_LARGE, ""),
            RejectedRow(4, REASON_FIELD_TOO_LARGE, ""),
        ]
        # The reader goes on at the next line, inside the broken quoted cell.
        assert [r.reason for r in parsed.rejected[2:]] == ["field_count"]
        assert [g.team_a for g in parsed.games] == ["A", "Z" * self.LIMIT]
        assert csv.field_size_limit() == self.LIMIT

    def test_an_over_long_header_cell_rejects_the_header(self):
        parsed = parse_games("X" * (self.LIMIT + 1) + "\n2023,2023-09-02,1,A,B,21,7,false\n")
        assert parsed.games == []
        assert parsed.rejected == [RejectedRow(1, REASON_FIELD_TOO_LARGE, "")]

    @pytest.mark.parametrize("row", [2, 3])
    def test_an_over_long_selections_cell_names_its_line(self, row):
        rows = ["season,committee_rank,team,conference,won_championship"] + [
            f"2023,{rank},Team {rank},Conf,false" for rank in range(1, 5)
        ]
        rows[row - 1] = f"2023,{row - 1},{'X' * (self.LIMIT + 1)},Conf,false"
        with pytest.raises(SelectionsError, match=f"line {row}: field larger than field limit"):
            parse_selections("\n".join(rows) + "\n")


class TestStrictRows:
    @pytest.mark.parametrize("season", ["99999", "0", "-3", "9999", "1" + "0" * 30])
    def test_season_without_a_calendar_window_is_bad_season(self, season):
        parsed = parse_games(
            rows_to_text(f"{season},2023-09-02,1,A,B,21,7,false", "2023,2023-09-09,2,A,B,21,7,false")
        )
        assert len(parsed.games) == 1
        assert [(r.line_number, r.reason) for r in parsed.rejected] == [(2, REASON_BAD_SEASON)]

    @pytest.mark.parametrize("date", ["20230902", "2023-W36-6", "２０２３-09-02"])
    def test_date_must_be_exactly_yyyy_mm_dd(self, date):
        # The same cell twice: the per-parse date memo must reject it both times.
        rows = [f"2023,{date},1,A,B,21,7,false", f"2023,{date},1,C,D,21,7,false"]
        parsed = parse_games(rows_to_text(*rows, "2023,2023-09-02,1,E,F,21,7,false"))
        assert [g.team_a for g in parsed.games] == ["E"]
        assert [(r.line_number, r.reason) for r in parsed.rejected] == [
            (2, REASON_BAD_DATE),
            (3, REASON_BAD_DATE),
        ]

    def test_out_of_range_season_keeps_earlier_reasons_first(self):
        parsed = parse_games(rows_to_text("99999,not-a-date,1,A,B,21,7,false"))
        assert [r.reason for r in parsed.rejected] == [REASON_BAD_DATE]

    @pytest.mark.parametrize(
        "row, reason",
        [
            ("2_023,2023-09-02,1,A,B,21,7,false", REASON_BAD_SEASON),
            ("٢٠٢٣,2023-09-02,1,A,B,21,7,false", REASON_BAD_SEASON),
            ("2023,2023-09-02,1_0,A,B,21,7,false", REASON_BAD_WEEK),
            ("2023,2023-09-02,١٠,A,B,21,7,false", REASON_BAD_WEEK),
            ("2023,2023-09-02,²,A,B,21,7,false", REASON_BAD_WEEK),
            ("2023,2023-09-02,1,A,B,1_0,١٠,false", REASON_BAD_POINTS),
            ("2023,2023-09-02,1,A,B,21,７,false", REASON_BAD_POINTS),
            ("2023,2023-09-02,1,A,B,+-21,7,false", REASON_BAD_POINTS),
            ("2023,2023-09-02,1,A,B," + "9" * 5000 + ",7,false", REASON_BAD_POINTS),
            ("2023,2023-09-02," + "9" * 5000 + ",A,B,21,7,false", REASON_BAD_WEEK),
        ],
    )
    def test_integers_must_be_ascii_digits(self, row, reason):
        parsed = parse_games(rows_to_text(row))
        assert parsed.games == []
        assert [r.reason for r in parsed.rejected] == [reason]

    def test_signed_ascii_integers_still_parse(self):
        parsed = parse_games(rows_to_text("+2023,2023-09-02,-1,A,B,+21,007,false"))
        assert (parsed.games[0].season, parsed.games[0].score_a, parsed.games[0].score_b) == (2023, 21, 7)


ALIASES = bundled_aliases()
KNOWN_NAMES = sorted(set(ALIASES) | set(ALIASES.values()))
UNKNOWN_NAMES = ["Weber State", "Doane, Nebraska", "Señor Tech", "A", "b"]
WHITESPACE = st.sampled_from(["", " ", "  ", "\t", "\u00a0"])


@st.composite
def team_cells(draw):
    """A bundled alias or canonical name, or an unknown name, with case and
    whitespace variants."""
    name = draw(st.sampled_from(KNOWN_NAMES + UNKNOWN_NAMES))
    name = draw(st.sampled_from([str, str.upper, str.lower, str.swapcase]))(name)
    name = name.replace(" ", draw(st.sampled_from([" ", "  ", "\t "])))
    return draw(WHITESPACE) + name + draw(WHITESPACE)


def mostly(valid, invalid_values):
    """Draws from `valid` five times in six; otherwise one of the invalid
    values or a short junk string."""
    junk = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=6)
    invalid = st.one_of(st.sampled_from(invalid_values), junk)
    return st.integers(0, 5).flatmap(lambda n: valid if n else invalid)


POINTS = mostly(st.integers(0, 60).map(str), ["-2", "1_0", "١٠", "+-3"])
ROW_CELLS = [
    mostly(st.sampled_from(["2023", "+2023"]), ["2022", "99999", "0", "-5", "2_023", "٢٠٢٣"]),
    mostly(st.dates(dt.date(2023, 8, 1), dt.date(2024, 1, 31)).map(dt.date.isoformat), ["2023-07-31", "2023-13-01"]),
    mostly(st.integers(-1, 15).map(str), ["1_0", "١٠", "x"]),
    mostly(team_cells(), [""]),
    mostly(team_cells(), [""]),
    POINTS,
    POINTS,
    mostly(st.sampled_from(["true", "false", "TRUE", " False "]), ["yes", ""]),
]


@st.composite
def game_rows(draw):
    """A games-file row of mixed valid and invalid cells, sometimes with a
    cell too few or too many."""
    row = [draw(cell) for cell in ROW_CELLS]
    change = draw(st.sampled_from([0] * 14 + [-1, 1]))
    return row[:change] if change < 0 else row + [""] * change


def to_csv(rows):
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows([GAMES_HEADER, *rows])
    return out.getvalue()


class TestParseGamesProperties:
    @settings(max_examples=150, deadline=None)
    @given(st.text())
    def test_never_raises_on_arbitrary_text(self, text):
        for candidate in (text, HEADER + "\n" + text):
            parsed = parse_games(candidate, aliases=ALIASES)
            assert all(r.reason for r in parsed.rejected)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(game_rows(), max_size=25), st.booleans())
    def test_every_non_blank_line_is_accepted_or_rejected_once(self, rows, allow_duplicates):
        parsed = parse_games(to_csv(rows), aliases=ALIASES, allow_duplicates=allow_duplicates)
        non_blank = [i + 2 for i, row in enumerate(rows) if any(cell.strip() for cell in row)]
        rejected_lines = [r.line_number for r in parsed.rejected]
        assert len(set(rejected_lines)) == len(rejected_lines)
        assert set(rejected_lines) <= set(non_blank)
        assert len(parsed.games) + len(parsed.rejected) == len(non_blank)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(team_cells(), team_cells()), max_size=40))
    def test_names_and_warnings_match_normalize_team(self, pairs):
        start = dt.date(2023, 9, 1)
        rows = [
            ["2023", (start + dt.timedelta(days=i)).isoformat(), "1", home, away, "21", "7", "false"]
            for i, (home, away) in enumerate(pairs)
        ]
        parsed = parse_games(to_csv(rows), aliases=ALIASES)
        expected_warnings = []
        expected_teams = []
        for home, away in pairs:
            names = (
                normalize_team(home, ALIASES, expected_warnings),
                normalize_team(away, ALIASES, expected_warnings),
            )
            if names[0] != names[1]:
                expected_teams.append(names)
        assert [(g.team_a, g.team_b) for g in parsed.games] == expected_teams
        assert parsed.warnings == expected_warnings
        assert len(parsed.games) + len(parsed.rejected) == len(pairs)


def padded(valid, invalid):
    """One of the valid cells nine times in ten, else an invalid one, with
    whitespace drawn on either side."""
    cell = st.sampled_from([True] * 9 + [False]).flatmap(lambda ok: st.sampled_from(valid if ok else invalid))
    return st.tuples(WHITESPACE, cell, WHITESPACE).map("".join)


ORACLE_CELLS = [
    padded(["2023", "+2023"], ["2022", "99999", "0", "-5", "2_023", "٢٠٢٣", "", "x"]),
    padded(
        ["2023-09-02", "2023-09-09", "2023-12-30", "2024-01-06"],
        ["20230902", "2023-W36-6", "2023-9-2", "２０２３-09-02", "2023-02-30", "2023-07-31", ""],
    ),
    padded(["1", "+3", "-1", "14"], ["1_0", "١٠", "", "x"]),
    padded(["Ohio State", "ohio  state", "Michigan", "Weber State", "A", "two\nlines"], [""]),
    padded(["Ohio State", "Michigan", "Señor Tech", "A", "two\nlines"], [""]),
    padded(["21", "+14", "7", "0"], ["-2", "1_0", "١٠", "", "x"]),
    padded(["7", "21", "+14", "0"], ["-2", "١٠", ""]),
    padded(["true", "false", "TRUE", "False"], ["yes", ""]),
]


@st.composite
def oracle_rows(draw):
    """A games-file row from small pools of valid and invalid cells, so that
    duplicates happen; sometimes a cell too few or too many, and sometimes a
    blank or whitespace-only row of any width."""
    if draw(st.sampled_from([False] * 9 + [True])):
        return draw(st.lists(WHITESPACE, max_size=10))
    row = [draw(cell) for cell in ORACLE_CELLS]
    change = draw(st.sampled_from([0] * 14 + [-1, 1]))
    return row[:change] if change < 0 else row + [draw(WHITESPACE)] * change


POOL_ROWS = [
    f"2023,{day},1,{home},{away},{points}"
    for day in ("2023-09-02", "2023-09-09", "2023-09-16")
    for home, away in (("A", "B"), ("B", "A"), ("A", "C"), ("C", "B"))
    for points in ("21,7,false", "3,10,true")
]


def public_game(game):
    return Game(*(getattr(game, f.name) for f in dataclasses.fields(Game)))


class TestParseGamesAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(oracle_rows(), max_size=30), st.booleans())
    def test_games_rejects_and_warnings_equal_the_naive_oracle(self, rows, allow_duplicates):
        text = to_csv(rows)
        parsed = parse_games(text, aliases=ALIASES, allow_duplicates=allow_duplicates)
        games, rejected, warnings = naive_parse_games(text, ALIASES, allow_duplicates)
        assert parsed.games == games
        assert [(r.line_number, r.reason, r.raw) for r in parsed.rejected] == rejected
        assert parsed.warnings == warnings

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.sampled_from(POOL_ROWS), max_size=12), st.booleans(), st.booleans())
    @example(["2023,2023-09-02,1,A,B,21,7,false", "2023,2023-09-09,1,A,B,21,7,false",
              "2023,2023-09-02,1,B,A,3,10,true"], False, False)
    @example(["2023,2023-09-09,1,A,B,21,7,false", "2023,2023-09-02,1,B,A,3,10,true"], False, True)
    def test_duplicates_in_or_out_of_date_order_equal_the_naive_oracle(self, rows, by_date, allow_duplicates):
        if by_date:
            rows = sorted(rows, key=lambda row: row.split(",")[1])
        text = rows_to_text(*rows)
        parsed = parse_games(text, allow_duplicates=allow_duplicates)
        games, rejected, _ = naive_parse_games(text, None, allow_duplicates)
        assert parsed.games == games
        assert [(r.line_number, r.reason, r.raw) for r in parsed.rejected] == rejected

    @settings(max_examples=50, deadline=None)
    @given(st.lists(oracle_rows(), max_size=30))
    def test_parsed_games_behave_like_public_ones(self, rows):
        for game in parse_games(to_csv(rows), aliases=ALIASES).games:
            public = public_game(game)
            assert (game == public, hash(game), repr(game)) == (True, hash(public), repr(public))
            assert type(game.neutral_site) is bool
            with pytest.raises(dataclasses.FrozenInstanceError):
                game.score_a = game.score_b
            with pytest.raises(TiedScoreError):
                dataclasses.replace(game, score_b=game.score_a)
            assert pickle.loads(pickle.dumps(game)) == game


# Names that need CSV quotes or that str.splitlines would break at, non-ASCII
# names and names holding a lone surrogate.
ODD_NAMES = [
    "Doane, Nebraska", 'The "U"', "two\nlines", "cr\rname", "crlf\r\nname", "back\\slash", "Señor Tech",
    "\U0001f3c8 Bowl", "feed\x0cform", "next\x85line", "sep\u2028line", "lone " + chr(0xD800), chr(0xDC80) + " Tech",
]


def csv_cell(cell):
    return '"' + cell.replace('"', '""') + '"' if any(c in cell for c in ',"\r\n') else cell


# A cell past csv's default field limit of 131,072 characters.
OVER_LIMIT = "X" * 131_073


@st.composite
def games_texts(draw):
    """A games file with LF, CRLF and CR line ends mixed, odd team names,
    sometimes a run of leading BOMs, a row with a cell past the field limit,
    or a long first row that puts the rows after it across the 8 KiB chunk
    the reader decodes at a time; now and then only BOMs, or nothing."""
    boms = draw(st.sampled_from(["", "\ufeff", "\ufeff" * 3]))
    if draw(st.sampled_from([False] * 19 + [True])):
        return boms
    rows = draw(st.lists(oracle_rows(), max_size=30))
    for row in rows:
        for i in (3, 4):
            if i < len(row) and draw(st.booleans()):
                row[i] = draw(st.sampled_from(ODD_NAMES))
    if draw(st.sampled_from([False] * 9 + [True])):
        rows.insert(draw(st.integers(0, len(rows))), ["2023", "2023-09-02", "1", OVER_LIMIT, "B", "1", "0", "false"])
    if draw(st.booleans()):
        long_name = "x" * draw(st.integers(7900, 8200))
        rows.insert(0, ["2023", "2023-09-02", "1", long_name, "Ohio State", "1", "0", "false"])
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    lines = [",".join(map(csv_cell, row)) + draw(ends) for row in [GAMES_HEADER, *rows]]
    return boms + "".join(lines)


def placed(piece, tail, at):
    """The header, then a row whose home team is x's enough to put the first
    `piece` of `tail`, the rest of the file, at byte `at` of its UTF-8 form."""
    head = HEADER + "\n2023,2023-09-02,1,"
    pad = at - len(head.encode("utf-8")) - len(tail[: tail.index(piece)].encode("utf-8"))
    return head + "x" * pad + tail


NEXT_ROW = "2023,2023-09-09,2,A,B,3,1,false\n"


class TestLineSource:
    @settings(max_examples=150, deadline=None)
    @given(games_texts(), st.booleans())
    @example("\ufeff" * 3 + HEADER + "\n" + NEXT_ROW, False)
    @example("\ufeff", False)
    @example("\ufeff" * 2, False)
    @example(placed("\r\n", ",Ohio State,1,0,false\r\n" + NEXT_ROW, 8191), False)  # CR ends chunk 1, LF starts 2
    @example(placed("\r\n", ',"cr\r\nname",1,0,false\n' + NEXT_ROW, 8191), False)  # the same, in a quoted cell
    @example(placed("\U0001f3c8", "\U0001f3c8 Bowl,Ohio State,1,0,false\n" + NEXT_ROW, 8190), False)  # 4 bytes split 2 + 2
    @example(placed("ñ", "ñ,Ohio State,1,0,false\n" + NEXT_ROW, 8191), False)  # 2 bytes split 1 + 1
    @example(HEADER + f"\n2023,2023-09-02,1,{OVER_LIMIT},B,21,7,false\n" + NEXT_ROW, False)
    @example(OVER_LIMIT + "\n" + NEXT_ROW, False)
    def test_line_ends_quotes_bom_and_chunk_edges_equal_the_naive_oracle(self, text, allow_duplicates):
        parsed = parse_games(text, aliases=ALIASES, allow_duplicates=allow_duplicates)
        if OVER_LIMIT not in text:  # the oracle's csv.reader raises on it
            games, rejected, warnings = naive_parse_games(text, ALIASES, allow_duplicates)
            assert parsed.games == games
            assert [(r.line_number, r.reason, r.raw) for r in parsed.rejected] == rejected
            assert parsed.warnings == warnings
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "games.csv"
            path.write_bytes(text.encode("utf-8", "surrogatepass"))
            if re.search("[\ud800-\udfff]", text):  # a lone surrogate has no strict UTF-8 form
                with pytest.raises(UnicodeDecodeError), open(path, "rb") as f:
                    parse_games(f, aliases=ALIASES, allow_duplicates=allow_duplicates)
                return
            with open(path, "rb") as f:
                assert parse_games(f, aliases=ALIASES, allow_duplicates=allow_duplicates) == parsed
                assert not f.closed and f.read() == b""  # read to its end and left open

    @staticmethod
    def season_rows():
        """8,000 rows over ten seasons of 130 teams, their dates in no order."""
        rng = random.Random(5)
        teams = [f"Team {i:03d}" for i in range(130)]
        rows = []
        for i in range(8000):
            season = 2014 + i * 10 // 8000
            a, b = rng.sample(teams, 2)
            lo = rng.randrange(40)
            day = dt.date(season, 9, 1) + dt.timedelta(days=rng.randrange(100))
            rows.append(f"{season},{day},{i % 14 + 1},{a},{b},{lo + rng.randrange(1, 30)},{lo},false")
        return rows

    def test_transient_peak_stays_under_five_bytes_a_character(self):
        text = rows_to_text(*self.season_rows())
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            parsed = parse_games(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(parsed.games) + len(parsed.rejected) == 8000
        assert (peak - kept) / len(text) < 5

    @pytest.mark.parametrize(
        "by_date, allow_duplicates",
        [(True, False), (True, True), (False, True)],
        ids=["sorted", "sorted-allow", "unsorted-allow"],
    )
    def test_a_file_checked_one_date_at_a_time_peaks_under_a_byte_a_file_byte(self, tmp_path, by_date, allow_duplicates):
        # A duplicate check that holds every accepted game's pair peaked at
        # about 2.6 bytes a file byte on top of the parsed games.
        rows = self.season_rows()
        if by_date:
            rows.sort(key=lambda row: row.split(",")[1])
        path = tmp_path / "games.csv"
        path.write_text(rows_to_text(*rows), encoding="utf-8")
        with open(path, "rb") as f:
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                parsed = parse_games(f, allow_duplicates=allow_duplicates)
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert len(parsed.games) + len(parsed.rejected) == 8000
        assert (peak - kept) / path.stat().st_size < 1


class TestRoundTrip:
    def test_serialize_then_parse_is_identity(self):
        rng = random.Random(31)
        teams = [f"Team {i}" for i in range(10)]
        rows = []
        date = dt.date(2023, 9, 2)
        for i in range(60):
            a, b = rng.sample(teams, 2)
            lo = rng.randrange(0, 40)
            hi = lo + rng.randrange(1, 30)
            rows.append(f"2023,{date + dt.timedelta(days=i % 90)},{i % 14 + 1},{a},{b},{hi},{lo},{'true' if i % 7 == 0 else 'false'}")
        first = parse_games(rows_to_text(*rows))
        assert not first.rejected
        second = parse_games("".join(games_to_csv(first.games)))
        assert second.games == first.games
        assert not second.rejected

    def test_rejects_report_format(self):
        parsed = parse_games(rows_to_text("2023,2023-09-02,1,A,B,21,21,false"))
        line = rejects_to_csv(parsed.rejected).strip()
        assert line == "2,tie,2023,2023-09-02,1,A,B,21,21,false"

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.builds(RejectedRow, st.integers(1, 10**6), st.sampled_from([REASON_TIE, REASON_BAD_DATE]),
                              st.text(st.one_of(st.sampled_from("\\\r\nrn,\""), st.characters())))))
    @example([RejectedRow(3, REASON_TIE, "2023,2023-09-02,1,Multi\nLine,B,7,7,false")])
    def test_rejects_report_has_one_line_per_rejection(self, rejected):
        report = rejects_to_csv(rejected)
        assert report.count("\n") == len(rejected)
        unescape = {"\\": "\\", "r": "\r", "n": "\n"}
        for line, row in zip(report.split("\n"), rejected):
            number, reason, raw = line.split(",", 2)
            assert (int(number), reason) == (row.line_number, row.reason)
            assert re.sub(r"\\(.)", lambda m: unescape[m.group(1)], raw, flags=re.S) == row.raw

    @pytest.mark.parametrize("count", [0, 1, 3, 4, 5, 9])
    def test_csv_pieces_join_to_the_whole_document(self, monkeypatch, count):
        # Chunk edges at 0, 1, C-1, C, C+1 and 2C+1 rows with C = 4.
        monkeypatch.setattr(ingest, "CHUNK", 4)
        games = parse_games(
            rows_to_text(*(f"2023,{dt.date(2023, 9, 2) + dt.timedelta(days=3 * i)},1,A{i},B,21,7,false" for i in range(count)))
        ).games
        pieces = list(games_to_csv(games))
        assert len(pieces) == 1 + -(-count // 4)
        whole = io.StringIO()
        writer = csv.writer(whole, lineterminator="\n")
        writer.writerow(GAMES_HEADER)
        for i, game in enumerate(games):
            writer.writerow([2023, game.date.isoformat(), 3 * i // 7 + 1, game.team_a, "B", 21, 7, "false"])
        assert "".join(pieces) == whole.getvalue()

    def test_quoted_team_names_survive_the_round_trip(self):
        text = rows_to_text('2023,2023-09-02,1,"Doane, Nebraska",Peru State,20,10,false')
        first = parse_games(text)
        assert first.games[0].team_a == "Doane, Nebraska"
        second = parse_games("".join(games_to_csv(first.games)))
        assert second.games == first.games


# Scores up to the most digits int() and str() convert by default.
BIG_SCORE = 10**4300 - 1


# Game(...) takes any name, the empty one too, which a csv row holds unquoted.
@st.composite
def render_games(draw):
    names = st.sampled_from(ODD_NAMES + ["Ohio State", " lead", "trail ", ""])
    home, away = draw(st.lists(names, min_size=2, max_size=2, unique=True))
    points = st.one_of(st.integers(0, 99), st.integers(0, BIG_SCORE))
    home_points, away_points = draw(st.lists(points, min_size=2, max_size=2, unique=True))
    season = draw(st.integers(2014, 2016))
    date = dt.date(season, 8, 1) + dt.timedelta(days=draw(st.integers(0, 183)))
    return Game(season, date, home, away, home_points, away_points, draw(st.booleans()))


def distinct_name_games(count, seed):
    """`count` games, each with two names no other game has, spelled from ODD_NAMES."""
    rng = random.Random(seed)
    games = []
    for i in range(count):
        season = rng.choice([2022, 2023])
        date = dt.date(season, 8, 26) + dt.timedelta(days=rng.randrange(150))
        points = rng.choice([rng.randrange(60), BIG_SCORE - rng.randrange(10**6)])
        home, away = f"{rng.choice(ODD_NAMES)} {i}", f"{i} {rng.choice(ODD_NAMES)}"
        games.append(Game(season, date, home, away, points, points - 1 if points else 1, rng.random() < 0.5))
    return games


class TestRenderAgainstOracle:
    """`ingest --format csv|json|table` write the document in pieces; the text
    must equal one csv.writer or json.dumps over the whole list, or the table
    with widths taken over the whole list."""

    @settings(max_examples=150, deadline=None)
    @given(st.lists(render_games(), max_size=12))
    def test_renders_equal_the_stdlib_oracle(self, games):
        assert "".join(games_to_csv(games)) == naive_games_to_csv(games)
        assert "".join(cli._render_games(games, "json")) == naive_games_json(games)
        assert "".join(cli._render_games(games, "table")) == naive_games_table(games)

    @pytest.mark.parametrize(
        "count", [0, 1, ingest.CHUNK - 1, ingest.CHUNK, ingest.CHUNK + 1, 2 * ingest.CHUNK + 1]
    )
    def test_table_pieces_equal_the_oracle_across_chunk_boundaries(self, count):
        games = distinct_name_games(count, seed=count)
        pieces = list(games_to_table(games))
        assert "".join(pieces) == naive_games_table(games)
        assert len(pieces) == 1 + -(-count // ingest.CHUNK)  # the header and its rule, then one per chunk
        # Names without line breaks, so each line of a piece is one game row.
        plain = [dataclasses.replace(g, team_a=f"Home {i}", team_b=f"Away {i}") for i, g in enumerate(games)]
        lines = [piece.count("\n") for piece in games_to_table(plain)]
        assert lines[0] == 2 and sum(lines[1:]) == count
        assert all(0 < n <= ingest.CHUNK for n in lines[1:])

    @pytest.mark.parametrize(
        "n", [0, 1, ingest.CHUNK - 1, ingest.CHUNK, ingest.CHUNK + 1, 2 * ingest.CHUNK + 1]
    )
    def test_json_pieces_join_to_indented_dumps_across_chunk_boundaries(self, n):
        games = distinct_name_games(n, seed=n)
        taken = []
        pieces = games_to_json(taken.append(g) or g for g in games)
        first = next(pieces)
        assert len(taken) == min(n, ingest.CHUNK)  # games are taken only as a piece needs them
        rest = list(pieces)
        assert first + "".join(rest) == naive_games_json(games)
        assert len(rest) == -(-n // ingest.CHUNK)  # one piece per chunk, then the closing bracket

    @pytest.mark.parametrize(
        "count", sorted({0, 1, ingest.CHUNK - 1, ingest.CHUNK, ingest.CHUNK + 1, 2 * 1024 + 1})
    )
    def test_chunk_edges_and_more_names_than_the_memo_holds_equal_the_oracle(self, count):
        games = distinct_name_games(count, seed=count)
        pieces = list(games_to_csv(games))
        assert len(pieces) == 1 + -(-count // ingest.CHUNK)
        assert "".join(pieces) == naive_games_to_csv(games)
        pieces = list(cli._render_games(games, "json"))
        assert len(pieces) == 1 + -(-count // ingest.CHUNK)
        assert "".join(pieces) == naive_games_json(games)


class TestNormalizeTeam:
    def test_case_and_spacing_fold_to_canonical(self):
        assert normalize_team(" ohio  state ", bundled_aliases()) == "Ohio State"

    def test_known_misspelling_maps_through_alias(self):
        assert normalize_team("Cincinatti", bundled_aliases()) == "Cincinnati"

    def test_unknown_passes_through_with_warning(self):
        warnings = []
        assert normalize_team("Weber State", bundled_aliases(), warnings) == "Weber State"
        assert len(warnings) == 1

    def test_empty_name_raises(self):
        with pytest.raises(ValueError):
            normalize_team("   ", bundled_aliases())


class TestParseSelections:
    HEADER = "season,committee_rank,team,conference,won_championship"

    def make(self, *rows):
        return "\n".join([self.HEADER, *rows]) + "\n"

    def full_season(self, season, champion_rank=None):
        teams = ["Alpha", "Beta", "Gamma", "Delta"]
        return [
            f"{season},{i + 1},{teams[i]},Conf,{'true' if champion_rank == i + 1 else 'false'}"
            for i in range(4)
        ]

    def test_empty_file_is_empty_list(self):
        assert parse_selections("") == []
        assert parse_selections(self.HEADER + "\n") == []

    def test_valid_seasons_parse_sorted(self):
        text = self.make(*(self.full_season(2015) + self.full_season(2014, champion_rank=2)))
        records = parse_selections(text)
        assert [r.season for r in records] == [2014] * 4 + [2015] * 4
        assert [r.committee_rank for r in records[:4]] == [1, 2, 3, 4]
        assert sum(r.won_championship for r in records) == 1

    def test_five_records_in_a_season_raises_naming_it(self):
        text = self.make(*self.full_season(2019), "2019,1,Extra,Conf,false")
        with pytest.raises(SelectionsError, match="2019"):
            parse_selections(text)

    def test_duplicate_rank_rejected(self):
        rows = self.full_season(2019)
        rows[3] = "2019,1,Delta,Conf,false"
        with pytest.raises(SelectionsError, match="2019"):
            parse_selections(self.make(*rows))

    def test_two_champions_rejected(self):
        rows = [
            "2019,1,Alpha,Conf,true",
            "2019,2,Beta,Conf,true",
            "2019,3,Gamma,Conf,false",
            "2019,4,Delta,Conf,false",
        ]
        with pytest.raises(SelectionsError, match="champion"):
            parse_selections(self.make(*rows))

    def test_bad_header_rejected(self):
        with pytest.raises(SelectionsError, match="header"):
            parse_selections("a,b,c,d,e\n")

    @pytest.mark.parametrize(
        "index,row",
        [
            (0, "2_019,1,Alpha,Conf,false"),
            (0, "\u0662\u0660\u0661\u0669,1,Alpha,Conf,false"),
            (3, "2019,\u0664,Delta,Conf,false"),
        ],
    )
    def test_integers_are_ascii_digits_as_in_games_files(self, index, row):
        rows = self.full_season(2019)
        rows[index] = row
        with pytest.raises(SelectionsError, match=f"line {index + 2}: bad season or rank"):
            parse_selections(self.make(*rows))

    def test_bundled_records_count(self):
        from cfbelo.datasets import bundled_selections

        records = bundled_selections()
        assert len(records) == 40
        assert len({r.season for r in records}) == 10
