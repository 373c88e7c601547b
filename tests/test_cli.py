import contextlib
import datetime as dt
import io
import json
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfbelo import analysis, cli, datasets, engine, ingest
from cfbelo.analysis import JSON_CHUNK, reference_agreement, render_agreement
from cfbelo.cli import main
from cfbelo.engine import Game, snapshot_at
from cfbelo.ingest import parse_games

from naive_elo import naive_replay

GAMES_HEADER = "season,date,week,home_team,away_team,home_points,away_points,neutral_site"

THREE_GAME_FIXTURE = "\n".join(
    [
        GAMES_HEADER,
        "2023,2023-09-02,1,Ann Arbor,Busyton,10,3,false",
        "2023,2023-09-09,2,Busyton,Centerville,21,14,false",
        "2023,2023-09-16,3,Centerville,Ann Arbor,9,7,false",
    ]
) + "\n"

# A games file of 141,074 bytes, all ASCII.
UTF8_GAMES = (GAMES_HEADER + "\n" + "2023,2023-09-02,1,Ann Arbor,Busyton,10,3,false\n" * 3000).encode()


@pytest.fixture
def three_games(tmp_path):
    path = tmp_path / "games.csv"
    path.write_text(THREE_GAME_FIXTURE, encoding="utf-8")
    return path


def count_calls(monkeypatch, name):
    """Count the calls made to the engine function `name`; returns a one-item list."""
    calls = [0]
    real = getattr(engine, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, name, counted)
    return calls


def count_updates(monkeypatch):
    """Count the rating updates the replay fold makes, one per game played by
    any arm's kernel; returns a one-item list."""
    calls = [0]
    real = engine.kernel

    def counted_kernel(cfg, ratings):
        play = real(cfg, ratings)

        def counted(*args):
            calls[0] += 1
            return play(*args)

        return counted

    monkeypatch.setattr(engine, "kernel", counted_kernel)
    return calls


HELP_DIR = Path(__file__).parent / "help"

# The commands that replay games under --k, --initial, --scale and --carryover.
REPLAYING = ("rate", "snapshot", "compare", "backtest", "sweep")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_flag_exits_one(self, capsys):
        code, _, err = run(capsys, "stats", "--bogus")
        assert code == 1
        assert "error" in err

    def test_unknown_subcommand_exits_one(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_file_exits_one_with_name(self, capsys):
        code, _, err = run(capsys, "rate", "--games", "/no/such/file.csv")
        assert code == 1
        assert "/no/such/file.csv" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flag, what",
        [("rate", "--games", "games"), ("stats", "--selections", "selections"), ("rate", "--aliases", "alias")],
    )
    @pytest.mark.parametrize("device", [False, True])
    def test_path_that_is_not_a_regular_file_exits_one_saying_so(self, capsys, tmp_path, command, flag, what, device):
        path = "/dev/null" if device else str(tmp_path)
        code, out, err = run(capsys, command, flag, path)
        assert (code, out) == (1, "")
        assert err == f"cfbelo: error: {what} file {path} is not a regular file\n"

    def test_malformed_date_exits_one_naming_flag(self, capsys):
        code, _, err = run(capsys, "snapshot", "--as-of", "tomorrow")
        assert code == 1
        assert "--as-of" in err

    def test_as_of_must_be_exactly_yyyy_mm_dd(self, capsys):
        code, _, err = run(capsys, "snapshot", "--as-of", "20231201")
        assert code == 1
        assert "--as-of: malformed date '20231201'" in err

    def test_bad_k_exits_one(self, capsys):
        code, _, err = run(capsys, "rate", "--k", "-3")
        assert code == 1
        assert "k_factor" in err

    def test_bad_carryover_exits_one(self, capsys):
        code, _, err = run(capsys, "rate", "--carryover", "sometimes")
        assert code == 1
        assert "--carryover" in err

    def test_negative_top_n_exits_one(self, capsys):
        code, _, err = run(capsys, "snapshot", "--top-n", "-2")
        assert code == 1
        assert "--top-n" in err

    def test_unwritable_out_path_exits_one(self, capsys, tmp_path):
        code, _, err = run(capsys, "stats", "--out", str(tmp_path))  # a directory
        assert code == 1
        assert "--out" in err

    def test_help_exits_zero_listing_flags(self, capsys):
        for command, flags in {
            "rate": ["--games", "--k", "--initial", "--scale", "--carryover", "--format", "--out"],
            "snapshot": ["--as-of", "--top-n", "--selections"],
            "compare": ["--season", "--agreement-report"],
            "backtest": ["--eval-window", "--seed"],
            "sweep": ["--k"],
            "stats": ["--selections"],
            "ingest": ["--allow-duplicates"],
        }.items():
            code, out, _ = run(capsys, command, "--help")
            assert code == 0
            for flag in flags:
                assert flag in out, (command, flag)

    @pytest.mark.parametrize("command", ["", "ingest", "rate", "snapshot", "compare", "stats", "backtest", "sweep"])
    def test_help_text_matches_its_golden_file(self, capsys, monkeypatch, command):
        # argparse wraps help to the terminal width, which it reads from COLUMNS.
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, *filter(None, [command, "--help"]))
        assert (code, err) == (0, "")
        assert out == (HELP_DIR / f"{command or 'cfbelo'}.txt").read_text(encoding="utf-8")

    def test_every_help_golden_file_has_a_command(self):
        names = {"cfbelo", "ingest", "rate", "snapshot", "compare", "stats", "backtest", "sweep"}
        assert {p.name for p in HELP_DIR.iterdir()} == {f"{name}.txt" for name in names}

    @pytest.mark.parametrize(
        "flag, value, error, commands",
        [
            # sweep's --k is its list of K values, checked with the other sweep inputs
            ("--k", "-1", "k_factor must be a positive finite number", ("rate", "snapshot", "compare", "backtest")),
            ("--scale", "0", "scale must be a positive finite number", REPLAYING),
            ("--carryover", "x", "--carryover: unknown carryover policy 'x' (use full, reset, or regress:RHO)", REPLAYING),
            ("--top-n", "-1", "--top-n must be non-negative, got -1", ("rate", "snapshot", "compare")),
        ],
    )
    @pytest.mark.parametrize("games", [(), ("--games", "/no/such/games.csv")], ids=["no-games", "missing-games"])
    def test_each_shared_flag_is_checked_alike_and_before_any_file(self, capsys, flag, value, error, commands, games):
        for command in commands:
            code, out, err = run(capsys, command, flag, value, *games)
            assert (code, out, err) == (1, "", f"cfbelo: error: {error}\n"), command


DEMO_GAMES = "src/cfbelo/data/sample_games_2021_2023.csv"


class TestRatingOverflow:
    """A K or initial rating too large for doubles is bad input, not a bug."""

    @pytest.mark.parametrize("command", ["rate", "snapshot", "compare", "backtest", "sweep"])
    def test_overflowing_k_exits_one_naming_the_flags(self, capsys, command):
        code, out, err = run(capsys, command, "--games", DEMO_GAMES, "--k", "1e308")
        assert code == 1
        assert out == ""
        assert "rating overflow by game" in err
        for flag in ("--k", "--initial", "--scale"):
            assert flag in err
        assert "internal error" not in err

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_overflow_in_the_last_game_exits_one(self, capsys, tmp_path, fmt):
        games = tmp_path / "games.csv"
        games.write_text(GAMES_HEADER + "\n2023,2023-09-02,1,A,B,21,7,false\n", encoding="utf-8")
        code, out, err = run(
            capsys, "rate", "--games", str(games), "--initial", "1.7e308", "--k", "1e308",
            "--format", fmt,
        )
        assert code == 1
        assert out == ""
        assert "rating overflow after game 0 on 2023-09-02: 'A' is at inf" in err


class TestIngest:
    def test_canonical_output_and_reject_report(self, capsys, tmp_path):
        messy = tmp_path / "messy.csv"
        messy.write_text(
            "\n".join(
                [
                    GAMES_HEADER,
                    "2023,2023-09-02,1,Ohio St.,Michigan,21,24,false",
                    "2023,2023-09-09,2,A,B,7,7,false",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "ingest", "--games", str(messy))
        assert code == 0
        assert out.splitlines()[0] == GAMES_HEADER
        assert "Ohio State" in out
        assert "3,tie," in err

    def test_season_out_of_calendar_range_is_a_reject_not_a_crash(self, capsys, tmp_path):
        games = tmp_path / "games.csv"
        games.write_text(
            GAMES_HEADER + "\n99999,2023-09-02,1,A,B,21,7,false\n2023,2023-09-09,2,A,B,21,7,false\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "ingest", "--games", str(games))
        assert code == 0
        assert out.splitlines()[1:] == ["2023,2023-09-09,1,A,B,21,7,false"]
        assert "cfbelo: rejected 1 row(s):\n2,bad_season,99999,2023-09-02,1,A,B,21,7,false\n" in err

    @pytest.mark.parametrize(
        "what, argv",
        [
            ("games", ("ingest", "--games", "{bad}")),
            ("selections", ("compare", "--selections", "{bad}")),
            ("alias", ("rate", "--games", "{games}", "--aliases", "{bad}")),
        ],
    )
    def test_non_utf8_file_exits_one_naming_it(self, capsys, tmp_path, three_games, what, argv):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(GAMES_HEADER.encode() + b"\n2023,2023-09-02,1,Caf\xe9,B,21,7,false\n")
        argv = [a.format(bad=bad, games=three_games) for a in argv]
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert f"{what} file {bad} is not UTF-8" in err
        assert "Traceback" not in err and "internal error" not in err

    @pytest.mark.parametrize(
        "data, offset, reason",
        [
            *((UTF8_GAMES[:at] + b"\xff" + UTF8_GAMES[at + 1 :], at, "invalid start byte")
              for at in (0, 8191, 8192, 8193, 100_000)),
            (UTF8_GAMES + b"\xe2\x82", len(UTF8_GAMES), "unexpected end of data"),
            (b"no,header\n" + UTF8_GAMES[10:100_000] + b"\xff", 100_000, "invalid start byte"),
        ],
        ids=["0", "8191", "8192", "8193", "100000", "truncated-at-end", "after-a-bad-header"],
    )
    @pytest.mark.parametrize("command", ["ingest", "rate", "compare", "sweep"])
    def test_non_utf8_games_file_names_the_first_bad_byte_of_the_file(self, capsys, tmp_path, data, offset, reason, command):
        # The file is decoded 8 KiB at a time; the offset is the file's, not the chunk's.
        with pytest.raises(UnicodeDecodeError) as whole:
            data.decode("utf-8")
        assert (whole.value.start, whole.value.reason) == (offset, reason)
        games, target = tmp_path / "games.csv", tmp_path / "out.txt"
        games.write_bytes(data)
        code, out, err = run(capsys, command, "--games", str(games), "--out", str(target))
        assert (code, out) == (1, "")
        assert err == f"cfbelo: error: games file {games} is not UTF-8: byte {offset}: {reason}\n"
        assert not target.exists()

    def test_parse_memory_does_not_grow_with_the_games_file(self, capsys, tmp_path):
        # Blank and whitespace-only rows record nothing, so what the parse
        # holds is its line source. Reading the whole text and a UTF-8 copy of
        # it peaked at twice the file.
        games = tmp_path / "blank.csv"
        games.write_text(GAMES_HEADER + "\n" + "\n , ,\t\n ,,,,,,, \n" * 120_000, encoding="utf-8")
        run(capsys, "ingest", "--games", str(games))  # the bundled alias table is built once per process
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "ingest", "--games", str(games))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out, err) == (0, GAMES_HEADER + "\n", "")
        assert games.stat().st_size > 2_000_000
        assert peak < games.stat().st_size / 4

    def test_out_may_be_the_games_file_itself(self, capsys, tmp_path):
        # Many chunks long, so a file truncated before it was read to its end would show.
        games = tmp_path / "games.csv"
        games.write_text(
            GAMES_HEADER + "\n" + "".join(
                f"2023,{dt.date(2023, 12, 1) - dt.timedelta(days=i % 100)},9,Home {i},Away {i},21,14,false\n"
                for i in range(3000)
            ),
            encoding="utf-8",
        )
        code, expected, _ = run(capsys, "ingest", "--games", str(games))
        assert code == 0
        code, out, _ = run(capsys, "ingest", "--games", str(games), "--out", str(games))
        assert (code, out) == (0, "")
        assert games.read_text(encoding="utf-8") == expected

    def test_each_distinct_warning_is_reported_once_with_its_count(self, capsys, tmp_path):
        games = tmp_path / "games.csv"
        games.write_text(
            THREE_GAME_FIXTURE + "2023,2023-09-23,4,Dunmore,Ann Arbor,3,3,false\n", encoding="utf-8"
        )
        code, _, err = run(capsys, "ingest", "--games", str(games))
        assert code == 0
        assert err == (
            "cfbelo: warning: unknown team name 'Ann Arbor' passed through verbatim (3 times)\n"
            "cfbelo: warning: unknown team name 'Busyton' passed through verbatim (2 times)\n"
            "cfbelo: warning: unknown team name 'Centerville' passed through verbatim (2 times)\n"
            "cfbelo: warning: unknown team name 'Dunmore' passed through verbatim\n"
            "cfbelo: rejected 1 row(s):\n"
            "5,tie,2023,2023-09-23,4,Dunmore,Ann Arbor,3,3,false\n"
        )

    def test_out_file_written(self, capsys, tmp_path, three_games):
        target = tmp_path / "clean.csv"
        code, out, _ = run(capsys, "ingest", "--games", str(three_games), "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="utf-8").startswith(GAMES_HEADER)

    def test_json_on_stdout_and_in_out_file_is_the_same_bytes(self, capsys, tmp_path):
        n = 2 * JSON_CHUNK + 1
        games = tmp_path / "games.csv"
        games.write_text(
            GAMES_HEADER + "\n" + "".join(
                f"2023,{dt.date(2023, 9, 1) + dt.timedelta(days=i % 100)},1,Home {i},Away {i},"
                f"{i % 50 + 1},0,{str(i % 3 == 0).lower()}\n"
                for i in range(n)
            ),
            encoding="utf-8",
        )
        code, out, _ = run(capsys, "ingest", "--games", str(games), "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == n
        target = tmp_path / "games.json"
        code, again, _ = run(capsys, "ingest", "--games", str(games), "--format", "json", "--out", str(target))
        assert code == 0
        assert again == ""
        assert target.read_bytes() == out.encode("utf-8")

    def test_json_output_memory_does_not_grow_with_the_document(self, monkeypatch, tmp_path):
        # Encoding a chunk takes several times that chunk's text on CPython
        # 3.11, so the bound is a real one only over many chunks; a smaller
        # chunk keeps forty of them quick under tracemalloc. Rendering the
        # whole document at once took about ten times the document.
        monkeypatch.setattr(analysis, "JSON_CHUNK", 256)
        games = [
            Game(2023, dt.date(2023, 9, 1) + dt.timedelta(days=i % 100), f"Home {i}", f"Away {i}", 21, 14)
            for i in range(40 * 256)
        ]
        target = tmp_path / "games.json"
        tracemalloc.start()
        try:
            cli._emit(cli._render_games(games, "json"), target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < target.stat().st_size / 3

    def test_csv_output_memory_does_not_grow_with_the_document(self, monkeypatch, tmp_path):
        # Writing the whole document in one buffer peaked at about three
        # times the document. The csv writer's first row takes a fixed
        # 128 KiB, so the document is made large enough to dwarf it.
        monkeypatch.setattr(ingest, "CSV_CHUNK", 256)
        games = [
            Game(2023, dt.date(2023, 9, 1) + dt.timedelta(days=i % 100), f"Home {i}", f"Away {i}", 21, 14)
            for i in range(80 * 256)
        ]
        target = tmp_path / "games.csv"
        tracemalloc.start()
        try:
            cli._emit(cli._render_games(games, "csv"), target)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < target.stat().st_size / 3


class TestOverLongInput:
    """Inputs past a parser's size limit are bad input (exit 1) or a rejected
    row, never an internal error."""

    def test_over_long_games_cell_is_a_rejected_row(self, capsys, tmp_path):
        games = tmp_path / "big.csv"
        games.write_text(
            THREE_GAME_FIXTURE + f"2023,2023-09-23,4,{'X' * 131_073},Busyton,21,7,false\n", encoding="utf-8"
        )
        code, out, err = run(capsys, "rate", "--games", str(games))
        assert code == 0
        assert "final ratings after 3 games" in out
        assert err.endswith("cfbelo: rejected 1 row(s):\n5,field_too_large,\n")

    def test_over_long_selections_cell_exits_one_naming_the_line(self, capsys, tmp_path):
        selections = tmp_path / "picks.csv"
        selections.write_text(
            f"season,committee_rank,team,conference,won_championship\n2023,1,{'X' * 131_073},SEC,true\n",
            encoding="utf-8",
        )
        code, out, err = run(capsys, "stats", "--selections", str(selections))
        assert (code, out) == (1, "")
        assert err == "cfbelo: error: --selections: line 2: field larger than field limit (131072)\n"

    def test_deeply_nested_alias_json_exits_one_naming_the_file(self, capsys, tmp_path):
        aliases = tmp_path / "deep.json"
        aliases.write_text("[" * 100_000, encoding="utf-8")
        code, out, err = run(capsys, "rate", "--aliases", str(aliases))
        assert (code, out) == (1, "")
        assert err == f"cfbelo: error: --aliases: {aliases}: JSON nested too deeply to parse\n"


class TestSelectionsAndAliasFiles:
    """Selections and alias files are decoded whole, as strict UTF-8, from
    their bytes: the CLI reads the same text the library is given."""

    def test_line_break_in_a_quoted_selections_cell_is_kept_as_in_the_file(self, capsys, tmp_path):
        selections = tmp_path / "picks.csv"
        selections.write_bytes(
            b"season,committee_rank,team,conference,won_championship\r\n"
            + b"".join(b'2023,%d,Team %d,"Big\r\nTen",false\r\n' % (rank, rank) for rank in range(1, 5))
        )
        code, out, err = run(capsys, "stats", "--selections", str(selections), "--format", "json")
        assert (code, err) == (0, "")
        assert [c["conference"] for c in json.loads(out)["per_conference"]] == ["Big\r\nTen"]
        parsed = ingest.parse_selections(selections.read_bytes().decode("utf-8"))
        assert {r.conference for r in parsed} == {"Big\r\nTen"}

    def test_alias_json_error_counts_the_file_as_it_is(self, capsys, tmp_path):
        aliases = tmp_path / "aliases.json"
        aliases.write_bytes(b'{\r\n"a": }')
        with pytest.raises(ValueError) as direct:
            ingest.load_aliases(aliases.read_bytes().decode("utf-8"))
        code, out, err = run(capsys, "stats", "--aliases", str(aliases))
        assert (code, out) == (1, "")
        assert err == f"cfbelo: error: --aliases: {aliases}: {direct.value}\n"
        assert err.endswith("(char 8)\n")  # the CR counts

    @pytest.mark.parametrize("command", ["stats", "compare", "snapshot"])
    def test_a_bad_byte_outranks_a_bad_header(self, capsys, tmp_path, command):
        selections = tmp_path / "picks.csv"
        selections.write_bytes(b"no,header\n2023,1,Caf\xe9,SEC,true\n")
        code, out, err = run(capsys, command, "--selections", str(selections))
        assert (code, out) == (1, "")
        assert err == f"cfbelo: error: selections file {selections} is not UTF-8: byte 20: invalid continuation byte\n"


class TestRate:
    def test_three_game_fixture_matches_oracle(self, capsys, three_games):
        code, out, _ = run(capsys, "rate", "--games", str(three_games), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        expected = naive_replay(
            [("Ann Arbor", "Busyton"), ("Busyton", "Centerville"), ("Centerville", "Ann Arbor")]
        )
        got = {e["team"]: e["rating"] for e in payload["entries"]}
        assert got == pytest.approx(expected, abs=1e-9)

    def test_custom_k_changes_board(self, capsys, three_games):
        _, default_out, _ = run(capsys, "rate", "--games", str(three_games), "--format", "json")
        _, k50_out, _ = run(capsys, "rate", "--games", str(three_games), "--k", "50", "--format", "json")
        assert default_out != k50_out


class TestSnapshot:
    def test_pre_data_cut_is_empty_table_exit_zero(self, capsys, three_games):
        code, out, _ = run(
            capsys, "snapshot", "--games", str(three_games), "--as-of", "1900-01-01"
        )
        assert code == 0
        assert "Elo ranking" in out
        assert len(out.splitlines()) == 3  # label, header, separator

    def test_default_cut_is_day_after_last_game(self, capsys, three_games):
        code, out, _ = run(capsys, "snapshot", "--games", str(three_games))
        assert code == 0
        assert "as of 2023-09-17" in out

    def test_top_n_limits_rows(self, capsys):
        code, out, _ = run(capsys, "snapshot", "--top-n", "4", "--format", "csv")
        assert code == 0
        assert len(out.splitlines()) == 5  # header + 4 teams

    def test_bundled_demo_fills_cfp_column(self, capsys):
        code, out, _ = run(capsys, "snapshot", "--season", "2023", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        with_cfp = [e for e in payload["entries"] if e["cfp_rank"] is not None]
        assert {e["team"] for e in with_cfp} == {"Michigan", "Washington", "Texas", "Alabama"}


class TestCompare:
    def test_default_uses_bundled_boards(self, capsys):
        code, out, _ = run(capsys, "compare", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["aggregate"]["n_top4_exact"] == 0
        assert len(payload["seasons"]) == 10

    def test_single_season_report(self, capsys):
        code, out, _ = run(capsys, "compare", "--season", "2023", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["season"] == 2023
        assert payload["max_committee_elo_rank"] == 13

    def test_replayed_compare_skips_missing_seasons(self, capsys):
        code, out, err = run(capsys, "compare", "--games", "src/cfbelo/data/sample_games_2021_2023.csv", "--format", "json")
        assert code == 0
        assert "skipping seasons without games: 2014" in err
        payload = json.loads(out)
        assert [s["season"] for s in payload["seasons"]] == [2021, 2022, 2023]

    def test_agreement_report_appends_reference_section(self, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            "--games",
            "src/cfbelo/data/sample_games_2021_2023.csv",
            "--agreement-report",
        )
        assert code == 0
        assert "Kendall tau" in out
        assert "informational" in out

    def test_agreement_report_requires_games(self, capsys):
        code, _, err = run(capsys, "compare", "--agreement-report")
        assert code == 1
        assert "--agreement-report" in err

    def test_agreement_report_json_is_one_document(self, capsys):
        code, out, _ = run(
            capsys,
            "compare",
            "--games",
            "src/cfbelo/data/sample_games_2021_2023.csv",
            "--agreement-report",
            "--format",
            "json",
        )
        assert code == 0
        payload = json.loads(out)
        agreement = payload["reference_agreement"]
        assert [e["season"] for e in agreement] == [2021, 2022, 2023]
        assert all("kendall_tau" in e for e in agreement)

    def test_agreement_report_uses_the_as_of_cut(self, capsys):
        conferences = datasets.bundled_conferences()
        taus = []
        for as_of in ("2023-10-01", "2023-12-03"):
            code, out, _ = run(
                capsys,
                "compare",
                "--games",
                "src/cfbelo/data/sample_games_2021_2023.csv",
                "--season",
                "2023",
                "--as-of",
                as_of,
                "--agreement-report",
                "--format",
                "json",
            )
            assert code == 0
            board = snapshot_at(
                datasets.sample_games().games, dt.date.fromisoformat(as_of), conferences=conferences
            )
            expected = reference_agreement({2023: board}, datasets.bundled_snapshots())
            [entry] = json.loads(out)["reference_agreement"]
            assert entry == json.loads(render_agreement(expected, "json"))[0], as_of
            taus.append(entry["kendall_tau"])
        assert taus[0] != taus[1]

    @pytest.mark.parametrize(
        "text", ["", "season,committee_rank,team,conference,won_championship\n"], ids=["empty", "header-only"]
    )
    @pytest.mark.parametrize("games", [(), ("--games", DEMO_GAMES)], ids=["bundled-boards", "games"])
    def test_selections_file_without_records_exits_one_saying_so(self, capsys, tmp_path, text, games):
        selections = tmp_path / "picks.csv"
        selections.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "compare", "--selections", str(selections), *games)
        assert (code, out) == (1, "")
        assert err == f"cfbelo: error: --selections: {selections} holds no selection records\n"

    def test_flag_combinations_rejected_before_any_file_is_read(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.csv")
        code, _, err = run(capsys, "compare", "--agreement-report", "--selections", missing)
        assert code == 1
        assert "--agreement-report needs --games" in err
        code, _, err = run(capsys, "compare", "--games", missing, "--as-of", "2023-10-01")
        assert code == 1
        assert "--as-of needs --season" in err

    def test_agreement_report_folds_each_game_once(self, capsys, monkeypatch):
        calls = count_updates(monkeypatch)
        code, _, _ = run(
            capsys,
            "compare",
            "--games",
            "src/cfbelo/data/sample_games_2021_2023.csv",
            "--agreement-report",
        )
        assert code == 0
        assert calls[0] == len(datasets.sample_games().games)


class TestSweepCommand:
    def test_each_k_folds_each_game_once(self, capsys, monkeypatch):
        calls = count_updates(monkeypatch)
        code, out, _ = run(
            capsys, "sweep", "--games", "src/cfbelo/data/sample_games_2021_2023.csv", "--format", "json"
        )
        assert code == 0
        assert len(json.loads(out)) == 5
        assert calls[0] == 5 * len(datasets.sample_games().games)

    def test_all_k_values_share_one_pass(self, capsys, monkeypatch):
        calls = count_calls(monkeypatch, "ordered")
        code, out, _ = run(capsys, "sweep", "--games", DEMO_GAMES, "--format", "json")
        assert code == 0
        assert len(json.loads(out)) == 5
        assert calls[0] == 1

    def test_overflow_names_the_first_game_any_arm_fails_on(self, capsys):
        # Alone, K = 3.3e307 first reads an overflowed rating at game 74 and
        # K = 5.4e307 at game 30, both in 2021. The arms advance game by game
        # together, so the sweep stops at game 30 whatever the order of the K values.
        message = (
            "cfbelo: error: rating overflow by game 30 on 2021-09-25: 'Tennessee' is at inf; "
            "check --k, --initial and --scale\n"
        )
        for k_values in (("3.3e307", "5.4e307"), ("5.4e307", "3.3e307")):
            argv = ["sweep", "--games", DEMO_GAMES, "--initial", "1e308"]
            for k in k_values:
                argv += ["--k", k]
            assert run(capsys, *argv) == (1, "", message)

    def test_one_overflowing_k_fails_the_sweep_naming_the_flags(self, capsys):
        code, out, err = run(capsys, "sweep", "--games", DEMO_GAMES, "--k", "25", "--k", "1e308")
        assert code == 1
        assert out == ""
        assert "rating overflow by game" in err
        for flag in ("--k", "--initial", "--scale"):
            assert flag in err


class TestStats:
    def test_table_contains_published_counts(self, capsys):
        code, out, _ = run(capsys, "stats")
        assert code == 0
        alabama = next(line for line in out.splitlines() if line.startswith("Alabama"))
        assert alabama.split() == ["Alabama", "8", "3"]

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "stats", "--format", "csv")
        assert code == 0
        assert "team,Clemson,6,2," in out


class TestBacktestAndSweep:
    def test_backtest_on_games_file(self, capsys, three_games):
        code, out, _ = run(capsys, "backtest", "--games", str(three_games), "--format", "json")
        assert code == 0
        assert json.loads(out)["n_games"] == 3

    def test_backtest_synthetic_fallback_is_seeded(self, capsys):
        code, out1, _ = run(capsys, "backtest", "--seed", "7", "--format", "json")
        assert code == 0
        _, out2, _ = run(capsys, "backtest", "--seed", "7", "--format", "json")
        _, out3, _ = run(capsys, "backtest", "--seed", "8", "--format", "json")
        assert out1 == out2
        assert out1 != out3

    def test_bad_eval_window_exits_one(self, capsys, three_games):
        code, _, err = run(capsys, "backtest", "--games", str(three_games), "--eval-window", "2025")
        assert code == 1
        assert "--eval-window" in err

    def test_window_outside_data_exits_one(self, capsys, three_games):
        code, _, err = run(
            capsys, "backtest", "--games", str(three_games), "--eval-window", "1990..1991"
        )
        assert code == 1
        assert "no season" in err

    def test_sweep_repeatable_k_rows(self, capsys, three_games):
        code, out, _ = run(
            capsys,
            "sweep", "--games", str(three_games),
            "--k", "5", "--k", "25", "--k", "100",
            "--format", "csv",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,n_games,brier,log_loss,accuracy"
        assert [line.split(",")[0] for line in lines[1:]] == ["5", "25", "100"]


class TestFormatUniformity:
    @pytest.mark.parametrize("fmt", ["table", "csv", "json"])
    def test_every_subcommand_honors_format(self, capsys, three_games, fmt):
        invocations = [
            ["ingest", "--games", str(three_games)],
            ["rate", "--games", str(three_games)],
            ["snapshot", "--games", str(three_games)],
            ["compare"],
            ["stats"],
            ["backtest", "--games", str(three_games)],
            ["sweep", "--games", str(three_games), "--k", "25"],
        ]
        for argv in invocations:
            code, out, _ = run(capsys, *argv, "--format", fmt)
            assert code == 0, argv
            assert out, argv
            if fmt == "json":
                json.loads(out)


class TestDeterminism:
    def test_compare_runs_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "compare", "--games", "src/cfbelo/data/sample_games_2021_2023.csv", "--format", "json")
        _, out2, _ = run(capsys, "compare", "--games", "src/cfbelo/data/sample_games_2021_2023.csv", "--format", "json")
        assert out1 == out2

    def test_out_file_equals_stdout(self, capsys, tmp_path, three_games):
        target = tmp_path / "report.json"
        _, out, _ = run(capsys, "rate", "--games", str(three_games), "--format", "json")
        code = main(
            ["rate", "--games", str(three_games), "--format", "json", "--out", str(target)]
        )
        capsys.readouterr()
        assert code == 0
        assert target.read_text(encoding="utf-8") == out


TEAMS = ["Georgia", "Michigan", "Texas", "Washington", "Alabama", "Florida State", "Weber State", "ohio  state"]
# Per flag: values that are valid, then values that are not.
FLAG_VALUES = {
    "--k": (["25", "5", "1e-9", "1e308"], ["0", "-3", "nan", "inf", "x"]),
    "--initial": (["1500", "0", "-1e6", "1.7e308"], ["nan", "x"]),
    "--scale": (["400", "1", "1e-300"], ["0", "-400", "inf", "x"]),
    "--carryover": (["full", "reset", "regress:0.5"], ["regress:2", "regress:x", "bogus"]),
    "--top-n": (["25", "1", "0"], ["-1", "x"]),
    "--as-of": (["2023-12-03", "2022-09-01", "2030-01-01"], ["20231203", "2023-02-30", "x"]),
    "--season": (["2023", "2022"], ["1999", "x"]),
    "--eval-window": (["2023..2023", "2022..2023"], ["1990..1991", "2023..2022", "2023", "x"]),
}
COMMAND_FLAGS = {
    "rate": ["--k", "--initial", "--scale", "--carryover", "--top-n"],
    "snapshot": ["--k", "--initial", "--scale", "--carryover", "--top-n", "--as-of", "--season"],
    "compare": ["--k", "--initial", "--scale", "--carryover", "--top-n", "--as-of", "--season"],
    "backtest": ["--k", "--initial", "--scale", "--carryover", "--eval-window"],
    "sweep": ["--k", "--k", "--initial", "--scale", "--carryover", "--eval-window"],
}


@st.composite
def games_files(draw):
    """A games file of mostly valid rows over two seasons, as UTF-8 bytes,
    sometimes with a byte that is not UTF-8, a cell at or past csv's field
    limit, or points past int()'s digit limit."""
    rows = [GAMES_HEADER]
    for _ in range(draw(st.integers(0, 12))):
        season = draw(st.sampled_from([2022, 2023]))
        day = dt.date(season, 9, 2) + dt.timedelta(days=7 * draw(st.integers(0, 14)))
        home, away = draw(st.permutations(TEAMS))[:2]
        points = draw(st.sampled_from(["21,7", "7,21", "10,3", "14,14", "x,3"]))
        rows.append(f"{season},{day},1,{home},{away},{points},false")
    data = ("\n".join(rows) + "\n").encode("utf-8")
    long_row = b"2023,2023-09-02,1,%s,Georgia,21,7,false\n"
    tails = [b""] * 9 + [b"\xff", long_row % (b"X" * 131_072), long_row % (b"X" * 131_073)]
    tails.append(b"2023,2023-09-02,1,Texas,Georgia,%s,7,false\n" % (b"9" * 5_000))
    return data + draw(st.sampled_from(tails))


@st.composite
def selections_files(draw):
    """Four picks per season, or a broken file: a pick short, garbage, a cell
    past csv's field limit, or not UTF-8."""
    rows = ["season,committee_rank,team,conference,won_championship"]
    for season in (2022, 2023):
        picks = draw(st.permutations(TEAMS))[:4]
        rows += [f"{season},{rank},{team},Conf,{'true' if rank == 1 else 'false'}" for rank, team in enumerate(picks, 1)]
    text = "\n".join(rows) + "\n"
    broken = {"short": text.rsplit("\n", 2)[0] + "\n", "garbage": "a,b\n1,2\n", "long": text + "X" * 131_073}
    choice = draw(st.sampled_from(["valid"] * 12 + ["short", "garbage", "long", "bytes"]))
    return b"\xfe\xff" if choice == "bytes" else broken.get(choice, text).encode("utf-8")


ALIAS_FILES = st.sampled_from(
    [b'{"Ohio St": "Ohio State", "UGA": "Georgia"}'] * 3
    + [b"{}", b"[1, 2]", b'{"a": 1}', b"{", b"\xff\xfe", b"[" * 100_000]
)


def run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue()


class TestCliProperties:
    """Exit 2 is only ever a bug, and output is a function of the input."""

    @settings(max_examples=120, deadline=None)
    @given(st.data(), st.sampled_from(sorted(COMMAND_FLAGS)), games_files(), selections_files(), ALIAS_FILES)
    def test_never_exits_two_and_repeats_its_output(self, data, command, games, selections, aliases):
        with tempfile.TemporaryDirectory() as tmp:
            files = {"--games": games, "--selections": selections, "--aliases": aliases}
            argv = [command, "--format", data.draw(st.sampled_from(["table", "csv", "json"]))]
            for flag, content in files.items():
                if flag != "--selections" or command in ("snapshot", "compare"):
                    if data.draw(st.sampled_from([True, True, True, False])):
                        path = Path(tmp) / flag.strip("-")
                        path.write_bytes(content)
                        argv += [flag, str(path)]
            for flag in COMMAND_FLAGS[command]:
                if data.draw(st.booleans()):
                    valid, invalid = FLAG_VALUES[flag]
                    value = data.draw(st.sampled_from(valid * 4 + invalid))
                    argv.append(f"{flag}={value}")  # "=" keeps a leading "-" a value
            if command == "compare" and data.draw(st.booleans()):
                argv.append("--agreement-report")
            first, second = run_quietly(argv), run_quietly(argv)
        assert first[0] in (0, 1), argv
        assert first == second, argv

    @settings(max_examples=60, deadline=None)
    @given(
        games_files(),
        st.lists(st.sampled_from(["5", "25", "100", "1e-9", "333.3"]), min_size=1, max_size=4),
        st.sampled_from(["full", "reset", "regress:0.5", "regress:0"]),
        st.sampled_from([None, "2022..2022", "2023..2023", "2021..2023", "2024..2025"]),
    )
    def test_each_sweep_row_is_the_backtest_with_its_k(self, games, k_values, carryover, window):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "games.csv"
            path.write_bytes(games)
            common = ["--games", str(path), "--carryover", carryover, "--format", "json"]
            common += ["--eval-window", window] if window else []
            code, out = run_quietly(["sweep", *common, *(f"--k={k}" for k in k_values)])
            backtests = [run_quietly(["backtest", *common, f"--k={k}"]) for k in k_values]
        if code == 1:  # not UTF-8, no valid games, or no game in the window
            assert {c for c, _ in backtests} == {1}
            return
        assert code == 0
        rows = json.loads(out)
        assert len(rows) == len(k_values)
        for row, k, (b_code, b_out) in zip(rows, k_values, backtests):
            assert b_code == 0
            assert row == {"k": float(k), **json.loads(b_out)}

    @settings(max_examples=60, deadline=None)
    @given(games_files())
    def test_ingest_csv_reparses_to_the_same_games(self, games):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "games.csv"
            path.write_bytes(games)
            code, out = run_quietly(["ingest", "--games", str(path), "--format", "csv"])
        if code == 1:  # a file that is not UTF-8
            assert b"\xff" in games
            return
        assert code == 0
        expected = parse_games(games.decode("utf-8"), aliases=datasets.bundled_aliases())
        again = parse_games(out, aliases=datasets.bundled_aliases())
        assert again.games == expected.games
        assert again.rejected == []

    @settings(max_examples=40, deadline=None)
    @given(
        games_files(),
        st.sampled_from(["5", "25", "1e308"]),
        st.sampled_from(["full", "reset", "regress:0.5"]),
        st.sampled_from([None, "1", "3"]),
    )
    def test_rate_board_is_the_snapshot_at_the_latest_default_cut(self, games, k, carryover, top_n):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "games.csv"
            path.write_bytes(games)
            common = ["--games", str(path), f"--k={k}", "--carryover", carryover, "--format", "json"]
            common += ["--top-n", top_n] if top_n else []
            rate, snapshot = run_quietly(["rate", *common]), run_quietly(["snapshot", *common])
        assert rate[0] == snapshot[0]
        if rate[0] == 0:
            boards = [[(e["elo_rank"], e["team"], e["rating"]) for e in json.loads(out)["entries"]]
                      for _, out in (rate, snapshot)]
            assert boards[0] == boards[1]

    @settings(max_examples=40, deadline=None)
    @given(
        games_files(),
        st.permutations(TEAMS),
        st.sampled_from([2022, 2023]),
        st.sampled_from([None, "2022-09-20", "2023-10-01", "2024-01-10"]),
        st.sampled_from(["1", "3", "25"]),
    )
    def test_compare_ranks_each_pick_as_the_snapshot_does(self, games, picks, season, as_of, top_n):
        rows = ["season,committee_rank,team,conference,won_championship"]
        rows += [f"{season},{rank},{team},Conf,{rank == 1}" for rank, team in enumerate(picks[:4], 1)]
        with tempfile.TemporaryDirectory() as tmp:
            path, selections = Path(tmp) / "games.csv", Path(tmp) / "selections.csv"
            path.write_bytes(games)
            selections.write_text("\n".join(rows) + "\n", encoding="utf-8")
            common = ["--games", str(path), "--season", str(season), "--top-n", top_n, "--format", "json"]
            common += ["--as-of", as_of] if as_of else []
            code, out = run_quietly(["compare", *common, "--selections", str(selections)])
            s_code, s_out = run_quietly(["snapshot", *common])
        if code == 1:  # not UTF-8, no games in the season, or an empty board
            return
        assert code == s_code == 0
        ranks = {e["team"]: e["elo_rank"] for e in json.loads(s_out)["entries"]}
        for pick in json.loads(out)["committee"]:
            assert pick["elo_rank"] == ranks.get(pick["team"]), pick

    @settings(max_examples=40, deadline=None)
    @given(games_files())
    def test_ingest_csv_is_idempotent_and_rates_as_its_input(self, games):
        with tempfile.TemporaryDirectory() as tmp:
            path, canonical = Path(tmp) / "games.csv", Path(tmp) / "canonical.csv"
            path.write_bytes(games)
            code, out = run_quietly(["ingest", "--games", str(path), "--format", "csv"])
            if code == 1:  # a file that is not UTF-8
                return
            canonical.write_text(out, encoding="utf-8")
            assert run_quietly(["ingest", "--games", str(canonical), "--format", "csv"]) == (0, out)
            rate = run_quietly(["rate", "--games", str(path), "--format", "json"])
            assert run_quietly(["rate", "--games", str(canonical), "--format", "json"]) == rate

    @settings(max_examples=40, deadline=None)
    @given(st.data(), games_files(), st.sampled_from(["full", "reset", "regress:0.5"]))
    def test_permuting_same_date_row_groups_leaves_rate_unchanged(self, data, games, carryover):
        header, *rows = games.splitlines(keepends=True)
        groups = {}  # rows by their date cell, in file order
        for row in rows:
            groups.setdefault(row.split(b",")[1] if b"," in row else row, []).append(row)
        order = data.draw(st.permutations(list(groups)))
        permuted = b"".join([header, *(row for key in order for row in groups[key])])
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "games.csv"
            runs = []
            for content in (games, permuted):
                path.write_bytes(content)
                runs.append(run_quietly(["rate", "--games", str(path), "--carryover", carryover, "--format", "json"]))
        assert runs[0] == runs[1]
