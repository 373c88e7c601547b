"""Command-line front end: ingest -> replay -> analysis/evaluation.

Every command writes a deterministic report to stdout (or --out), so repeated
invocations over the same inputs are byte-identical. Exit codes: 0 success,
1 user or input error, 2 internal error.
"""

from __future__ import annotations

import argparse
import datetime as dt
import os
import sys
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import replace
from pathlib import Path
from typing import Any, BinaryIO, Callable, Iterable, Iterator, Sequence

from . import analysis, datasets, evaluation
from .elo import EloConfig
from .engine import (
    CarryoverPolicy,
    Game,
    RatingOverflowError,
    Snapshot,
    board_label,
    board_season,
    default_cut_date,
    default_cuts,
    rank_teams,
    replay,
    snapshot_at,
    snapshots_at,
)
from .ingest import (
    ParsedGames,
    SelectionRecord,
    games_to_csv,
    games_to_json,
    games_to_table,
    load_aliases,
    parse_games,
    parse_iso_date,
    parse_selections,
    rejects_to_csv,
)

PROG = "cfbelo"


class CliError(Exception):
    """User-facing problem: bad flag value, missing file, malformed data."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors by default; user errors are 1 here.
    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


SWEEP_KS = (5.0, 10.0, 25.0, 50.0, 100.0)


def _add_format_opts(
    p: argparse.ArgumentParser, default: str = "table", note: str = "", what: str = "the report"
) -> None:
    fmt_help = f"output format (default: %(default)s{note})"
    p.add_argument("--format", choices=analysis.FORMATS, default=default, help=fmt_help)
    p.add_argument("--out", metavar="PATH", help=f"write {what} to PATH instead of stdout")


def _add_elo_opts(p: argparse.ArgumentParser, sweep: bool = False) -> None:
    elo = EloConfig()
    if sweep:  # a list of K values, kept apart from the single K of the other commands
        p.add_argument(
            "--k", type=float, action="append", dest="k_values", metavar="K",
            help=f"K value to test; repeat the flag for several (default: {' '.join(map('{:g}'.format, SWEEP_KS))})",
        )
    else:
        p.add_argument(
            "--k", type=float, default=elo.k_factor, help="K-factor, points per game (default: %(default)g)"
        )
    p.add_argument("--initial", type=float, default=elo.initial_rating, help="starting rating (default: %(default)g)")
    p.add_argument(
        "--scale", type=float, default=elo.scale, help="rating points per decade of odds (default: %(default)g)"
    )
    p.add_argument(
        "--carryover", default="full", metavar="full|reset|regress:RHO",
        help="season-boundary policy (default: %(default)s)",
    )


def _add_input_opts(p: argparse.ArgumentParser, games_help: str, required: bool = False) -> None:
    p.add_argument("--games", metavar="PATH", required=required, help=games_help)
    p.add_argument("--aliases", metavar="PATH", help="JSON alias directory (default: bundled)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=PROG, description="Elo rating engine and committee-selection analysis for college football."
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="validate a games file and emit it in canonical form")
    _add_input_opts(p, "games CSV to validate", required=True)
    p.add_argument("--allow-duplicates", action="store_true", help="keep repeated pairings on one date")
    _add_format_opts(p, default="csv", note=", the canonical file form", what="the canonical games")

    p = sub.add_parser("rate", help="replay a games file and print the final rating board")
    _add_input_opts(p, "games CSV (default: bundled demo schedule)")
    _add_elo_opts(p)
    p.add_argument("--top-n", type=int, metavar="N", help="board depth (default: all teams)")
    _add_format_opts(p)

    p = sub.add_parser("snapshot", help="ratings board as of a cut date")
    _add_input_opts(p, "games CSV (default: bundled demo schedule)")
    _add_elo_opts(p)
    p.add_argument("--as-of", metavar="YYYY-MM-DD", help="cut date (default: day after the season's last game)")
    p.add_argument("--season", type=int, help="season whose default cut date to use")
    p.add_argument("--top-n", type=int, metavar="N", help="board depth (default: all teams)")
    p.add_argument("--selections", metavar="PATH", help="selections CSV used to fill the CFP column")
    _add_format_opts(p)

    p = sub.add_parser(
        "compare",
        help="reconcile Elo boards with committee selections "
        "(defaults to the bundled published boards and selections)",
    )
    _add_input_opts(p, "games CSV to replay per-season boards from (default: bundled published boards)")
    _add_elo_opts(p)
    p.add_argument("--selections", metavar="PATH", help="selections CSV (default: bundled 2014-2023)")
    p.add_argument("--season", type=int, help="report a single season instead of all")
    p.add_argument("--as-of", metavar="YYYY-MM-DD", help="cut date override (single --season only)")
    p.add_argument("--top-n", type=int, default=25, metavar="N", help="replayed board depth (default: %(default)s)")
    p.add_argument(
        "--agreement-report",
        action="store_true",
        help="append rank agreement of replayed boards vs the bundled published boards",
    )
    _add_format_opts(p)

    p = sub.add_parser("stats", help="selection and championship counts by team and conference")
    p.add_argument("--selections", metavar="PATH", help="selections CSV (default: bundled 2014-2023)")
    p.add_argument("--aliases", metavar="PATH", help="JSON alias directory (default: bundled)")
    _add_format_opts(p)

    for name, help_text in (
        ("backtest", "score pre-game win probabilities over a replay"),
        ("sweep", "backtest once per K value"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_input_opts(p, "games CSV (default: synthetic 16-team league from --seed)")
        _add_elo_opts(p, sweep=name == "sweep")
        p.add_argument("--eval-window", metavar="FIRST..LAST", help="season range to score (default: all)")
        p.add_argument("--seed", type=int, default=0, help="seed for the synthetic league (default: %(default)s)")
        _add_format_opts(p)

    return parser


# --------------------------------------------------------------------------
# Shared helpers


@contextmanager
def _user_errors(prefix: str = "") -> Iterator[None]:
    """Report a ValueError as bad input; a rating overflow goes on to `main`."""
    try:
        yield
    except RatingOverflowError:
        raise
    except ValueError as exc:
        raise CliError(f"{prefix}{exc}") from None


def _read_file(path: str, what: str, parse: Callable[[BinaryIO], Any]) -> Any:
    """What `parse` makes of the open binary file, which is closed on return."""
    p = Path(path)
    if not p.exists():
        raise CliError(f"{what} file not found: {path}")
    if not p.is_file():
        raise CliError(f"{what} file {path} is not a regular file")
    try:
        with p.open("rb") as f:
            return parse(f)
    except OSError as exc:
        raise CliError(f"cannot read {what} file {path}: {exc}") from None
    except UnicodeDecodeError:  # a stream counts its offset from its chunk: decode the file whole
        try:
            p.read_bytes().decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CliError(f"{what} file {path} is not UTF-8: byte {exc.start}: {exc.reason}") from None
        raise


def _aliases_from(args: argparse.Namespace) -> dict[str, str]:
    if args.aliases:
        with _user_errors(f"--aliases: {args.aliases}: "):
            return _read_file(args.aliases, "alias", lambda f: load_aliases(f.read().decode("utf-8")))
    return datasets.bundled_aliases()


def _parse_date(text: str, flag: str) -> dt.date:
    try:
        return parse_iso_date(text)
    except ValueError:
        raise CliError(f"{flag}: malformed date {text!r}, expected YYYY-MM-DD") from None


def _parse_window(text: str) -> tuple[int, int]:
    try:
        first, last = text.split("..", 1)
        window = (int(first), int(last))
    except ValueError:
        raise CliError(f"--eval-window: expected FIRST..LAST, got {text!r}") from None
    if window[0] > window[1]:
        raise CliError(f"--eval-window: first season {window[0]} is after last {window[1]}")
    return window


def _model(args: argparse.Namespace) -> tuple[EloConfig, CarryoverPolicy]:
    """The validated Elo config and carryover policy of a replaying command."""
    if "top_n" in args and args.top_n is not None and args.top_n < 0:
        raise CliError(f"--top-n must be non-negative, got {args.top_n}")
    ks = (args.k_values or SWEEP_KS) if "k_values" in args else (args.k,)  # sweep's K values are its arms
    with _user_errors():
        cfg, *_ = [EloConfig(initial_rating=args.initial, k_factor=k, scale=args.scale) for k in ks]
    with _user_errors("--carryover: "):
        return cfg, CarryoverPolicy.parse(args.carryover)


def _parse_games(path: str, aliases: dict[str, str], allow_duplicates: bool) -> ParsedGames:
    parsed = _read_file(path, "games", lambda f: parse_games(f, aliases=aliases, allow_duplicates=allow_duplicates))
    _report_ingest_problems(parsed)
    return parsed


def _load_games(
    args: argparse.Namespace, aliases: dict[str, str], fallback: Callable[[], list[Game]] | None = None
) -> list[Game]:
    """The valid games of --games, at least one, or `fallback()` when the flag is not given."""
    if not args.games:
        return fallback()
    games = _parse_games(args.games, aliases, allow_duplicates=False).games
    if not games:
        raise CliError(f"no valid games in {args.games}")
    return games


def _report_ingest_problems(parsed: ParsedGames) -> None:
    # One line per distinct warning, in first-seen order, with its count.
    for warning, count in Counter(parsed.warnings).items():
        times = f" ({count} times)" if count > 1 else ""
        print(f"{PROG}: warning: {warning}{times}", file=sys.stderr)
    if parsed.rejected:
        print(f"{PROG}: rejected {len(parsed.rejected)} row(s):", file=sys.stderr)
        sys.stderr.write(rejects_to_csv(parsed.rejected))


def _load_selections(args: argparse.Namespace, aliases: dict[str, str]) -> list[SelectionRecord]:
    """The records of --selections, at least one, or the bundled ones when the flag is not given."""
    if not args.selections:
        return list(datasets.bundled_selections())
    with _user_errors("--selections: "):
        parse = lambda f: parse_selections(f.read().decode("utf-8"), aliases=aliases)  # noqa: E731
        records = _read_file(args.selections, "selections", parse)
    if not records:
        raise CliError(f"--selections: {args.selections} holds no selection records")
    return records


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write a report, whole or in the pieces it is encoded in, to stdout or the --out file."""
    pieces = (text,) if isinstance(text, str) else text
    if not out:
        try:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
        except OSError as exc:
            # Point stdout's fd at devnull, so the flush at exit drops what is
            # still buffered instead of failing again and exiting 120.
            with suppress(OSError):  # a stdout without an fd, such as a StringIO
                fd = sys.stdout.fileno()
                os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
            if isinstance(exc, BrokenPipeError):
                raise
            raise CliError(f"cannot write to stdout: {exc}") from None
        return
    try:
        with Path(out).open("w", encoding="utf-8") as f:
            f.writelines(pieces)
    except OSError as exc:
        raise CliError(f"cannot write --out file {Path(out)}: {exc}") from None


# --------------------------------------------------------------------------
# Subcommands


def _cmd_ingest(args: argparse.Namespace) -> int:
    parsed = _parse_games(args.games, _aliases_from(args), args.allow_duplicates)
    _emit(_render_games(parsed.games, args.format), args.out)
    return 0


def _render_games(games: list[Game], fmt: str) -> Iterator[str]:
    """The games as `ingest --format fmt` writes them; csv is the canonical file form, which derives `week`."""
    return {"csv": games_to_csv, "json": games_to_json, "table": games_to_table}[fmt](games)


def _cmd_rate(args: argparse.Namespace) -> int:
    cfg, policy = _model(args)
    games = _load_games(args, _aliases_from(args), lambda: datasets.sample_games().games)
    state = replay(games, cfg, policy)
    board = rank_teams(state.ratings, top_n=args.top_n, conferences=datasets.bundled_conferences())
    label = f"final ratings after {state.games_applied} games"
    snapshot = Snapshot(label=label, as_of=state.last_date or dt.date.min, entries=board)
    _emit(analysis.render_report(snapshot, args.format), args.out)
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    cfg, policy = _model(args)
    aliases = _aliases_from(args)
    games = _load_games(args, aliases, lambda: datasets.sample_games().games)
    if args.as_of:
        as_of = _parse_date(args.as_of, "--as-of")
    else:
        with _user_errors():
            as_of = default_cut_date(games, season=args.season)
    season = args.season if args.season is not None else board_season(as_of)
    selections = [r for r in _load_selections(args, aliases) if r.season == season]
    if args.selections and not selections:
        note = f"{args.selections} holds no selection records for {season}; the CFP column is empty"
        print(f"{PROG}: note: --selections: {note}", file=sys.stderr)
    snapshot = snapshot_at(
        games, as_of, cfg, policy, top_n=args.top_n,
        label=board_label(season, as_of), conferences=datasets.bundled_conferences(),
    )
    _emit(analysis.render_report(snapshot, args.format, selections=selections or None), args.out)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg, policy = _model(args)
    if args.as_of and not args.games:
        raise CliError("--as-of only applies when replaying boards from --games")
    if args.as_of and args.season is None:
        raise CliError("--as-of needs --season when comparing from a games file")
    if args.agreement_report and not args.games:
        raise CliError("--agreement-report needs --games to replay boards from")
    as_of = _parse_date(args.as_of, "--as-of") if args.as_of else None
    aliases = _aliases_from(args)
    selections = _load_selections(args, aliases)
    if args.season is not None:
        selections = [r for r in selections if r.season == args.season]
        if not selections:
            raise CliError(f"--season: no selection records for {args.season}")

    if args.games:
        games = _load_games(args, aliases)
        defaults = default_cuts(games)
        wanted = sorted({r.season for r in selections})
        seasons = [s for s in wanted if s in defaults]
        skipped = [str(s) for s in wanted if s not in defaults]
        if skipped:
            print(f"{PROG}: note: skipping seasons without games: {', '.join(skipped)}", file=sys.stderr)
        if not seasons:
            raise CliError("the games file covers none of the selection seasons")
        cuts = {s: as_of or defaults[s] for s in seasons}  # --as-of comes with one --season
        # Agreement ranks need the full board; the compare table only --top-n.
        depth = None if args.agreement_report else args.top_n
        boards = snapshots_at(
            games, {board_label(s, cut): cut for s, cut in cuts.items()},
            cfg, policy, depth, datasets.bundled_conferences(),
        )
        ranked = dict(zip(cuts, boards))
        snapshots = {season: replace(snap, entries=snap.top(args.top_n)) for season, snap in ranked.items()}
        selections = [r for r in selections if r.season in seasons]
    else:
        snapshots = datasets.bundled_snapshots()
        selections = [r for r in selections if r.season in snapshots]
        if not selections:
            raise CliError("no bundled board covers the requested season(s)")

    with _user_errors():
        reports, summary = analysis.compare_all(snapshots, selections)

    agreement = analysis.reference_agreement(ranked, datasets.bundled_snapshots()) if args.agreement_report else None
    # A --season run is the single-season report, without the aggregate.
    summary = None if args.season is not None else summary
    _emit(analysis.render_comparisons(reports, summary, args.format, agreement), args.out)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    records = _load_selections(args, _aliases_from(args))
    _emit(analysis.render_report(analysis.selection_stats(records), args.format), args.out)
    return 0


def _scoring_inputs(
    args: argparse.Namespace,
) -> tuple[list[Game], tuple[int, int] | None, EloConfig, CarryoverPolicy]:
    """The games, eval window, config and policy of `backtest` and `sweep`."""
    cfg, policy = _model(args)
    games = _load_games(
        args, _aliases_from(args),
        lambda: evaluation.simulate_league(n_teams=16, n_rounds=40, strength_spread=600.0, seed=args.seed).games,
    )
    window = _parse_window(args.eval_window) if args.eval_window else None
    return games, window, cfg, policy


def _cmd_backtest(args: argparse.Namespace) -> int:
    games, window, cfg, policy = _scoring_inputs(args)
    with _user_errors():
        summary = evaluation.backtest(games, cfg, policy, window)
    _emit(analysis.render_report(summary, args.format), args.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    games, window, cfg, policy = _scoring_inputs(args)
    with _user_errors():
        results = evaluation.sweep_k(games, args.k_values or SWEEP_KS, policy, window, base_cfg=cfg)
    _emit(analysis.render_sweep(results, args.format), args.out)
    return 0


_COMMANDS = {
    "ingest": _cmd_ingest,
    "rate": _cmd_rate,
    "snapshot": _cmd_snapshot,
    "compare": _cmd_compare,
    "stats": _cmd_stats,
    "backtest": _cmd_backtest,
    "sweep": _cmd_sweep,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except CliError as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    except RatingOverflowError as exc:
        print(f"{PROG}: error: {exc}; check --k, --initial and --scale", file=sys.stderr)
        return 1
    except BrokenPipeError:
        return 1
    except Exception as exc:  # internal invariant violation
        print(f"{PROG}: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
