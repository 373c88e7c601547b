"""Command-line front end: ingest -> replay -> analysis/evaluation.

Every command writes a deterministic report to stdout (or --out), so repeated
invocations over the same inputs are byte-identical. Exit codes: 0 success,
1 user or input error, 2 internal error.
"""

from __future__ import annotations

import argparse
import datetime as dt
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from . import analysis, datasets, evaluation
from .elo import EloConfig
from .engine import (
    CarryoverPolicy,
    Game,
    RatingOverflowError,
    Snapshot,
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


@dataclass(frozen=True)
class RunConfig:
    """Validated cross-command options."""

    cfg: EloConfig
    policy: CarryoverPolicy
    fmt: str
    out: Path | None


def _add_format_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--format",
        choices=analysis.FORMATS,
        default="table",
        help="output format (default: table)",
    )
    p.add_argument("--out", metavar="PATH", help="write the report to PATH instead of stdout")


def _add_elo_opts(p: argparse.ArgumentParser, sweep: bool = False) -> None:
    if sweep:  # a list of K values, kept apart from the single K of the other commands
        p.add_argument(
            "--k", type=float, action="append", dest="k_values", metavar="K",
            help="K value to test; repeat the flag for several (default: 5 10 25 50 100)",
        )
    else:
        p.add_argument(
            "--k", type=float, default=25.0, help="K-factor, points per game (default: 25)"
        )
    p.add_argument("--initial", type=float, default=1500.0, help="starting rating (default: 1500)")
    p.add_argument("--scale", type=float, default=400.0, help="rating points per decade of odds (default: 400)")
    p.add_argument(
        "--carryover",
        default="full",
        metavar="full|reset|regress:RHO",
        help="season-boundary policy (default: full)",
    )


def _add_input_opts(p: argparse.ArgumentParser, games_help: str) -> None:
    p.add_argument("--games", metavar="PATH", help=games_help)
    p.add_argument("--aliases", metavar="PATH", help="JSON alias directory (default: bundled)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog=PROG,
        description="Elo rating engine and committee-selection analysis for college football.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("ingest", help="validate a games file and emit it in canonical form")
    p.add_argument("--games", metavar="PATH", required=True, help="games CSV to validate")
    p.add_argument("--aliases", metavar="PATH", help="JSON alias directory (default: bundled)")
    p.add_argument("--allow-duplicates", action="store_true", help="keep repeated pairings on one date")
    p.add_argument(
        "--format",
        choices=analysis.FORMATS,
        default="csv",
        help="output format (default: csv, the canonical file form)",
    )
    p.add_argument("--out", metavar="PATH", help="write the canonical games to PATH instead of stdout")

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
    p.add_argument("--top-n", type=int, default=25, metavar="N", help="replayed board depth (default: 25)")
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

    p = sub.add_parser("backtest", help="score pre-game win probabilities over a replay")
    _add_input_opts(p, "games CSV (default: synthetic 16-team league from --seed)")
    _add_elo_opts(p)
    p.add_argument("--eval-window", metavar="FIRST..LAST", help="season range to score (default: all)")
    p.add_argument("--seed", type=int, default=0, help="seed for the synthetic league (default: 0)")
    _add_format_opts(p)

    p = sub.add_parser("sweep", help="backtest once per K value")
    _add_input_opts(p, "games CSV (default: synthetic 16-team league from --seed)")
    _add_elo_opts(p, sweep=True)
    p.add_argument("--eval-window", metavar="FIRST..LAST", help="season range to score (default: all)")
    p.add_argument("--seed", type=int, default=0, help="seed for the synthetic league (default: 0)")
    _add_format_opts(p)

    return parser


# --------------------------------------------------------------------------
# Shared helpers


def _read_file(path: str, what: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise CliError(f"{what} file not found: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except OSError as exc:
        raise CliError(f"cannot read {what} file {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise CliError(f"{what} file {path} is not UTF-8: byte {exc.start}: {exc.reason}") from None


def _aliases_from(args: argparse.Namespace) -> dict[str, str]:
    if getattr(args, "aliases", None):
        try:
            return load_aliases(_read_file(args.aliases, "alias"))
        except ValueError as exc:
            raise CliError(f"--aliases: {exc}") from None
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


def _run_config(args: argparse.Namespace) -> RunConfig:
    top_n = getattr(args, "top_n", None)
    if top_n is not None and top_n < 0:
        raise CliError(f"--top-n must be non-negative, got {top_n}")
    try:
        cfg = EloConfig(
            initial_rating=getattr(args, "initial", 1500.0),
            k_factor=getattr(args, "k", 25.0),
            scale=getattr(args, "scale", 400.0),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    try:
        policy = CarryoverPolicy.parse(getattr(args, "carryover", "full"))
    except ValueError as exc:
        raise CliError(f"--carryover: {exc}") from None
    out = Path(args.out) if getattr(args, "out", None) else None
    return RunConfig(cfg=cfg, policy=policy, fmt=getattr(args, "format", "table"), out=out)


def _load_games(args: argparse.Namespace, aliases: dict[str, str]) -> ParsedGames:
    parsed = parse_games(_read_file(args.games, "games"), aliases=aliases)
    _report_ingest_problems(parsed)
    if not parsed.games:
        raise CliError(f"no valid games in {args.games}")
    return parsed


def _report_ingest_problems(parsed: ParsedGames) -> None:
    # One line per distinct warning, in first-seen order, with its count.
    for warning, count in Counter(parsed.warnings).items():
        times = f" ({count} times)" if count > 1 else ""
        print(f"{PROG}: warning: {warning}{times}", file=sys.stderr)
    if parsed.rejected:
        print(f"{PROG}: rejected {len(parsed.rejected)} row(s):", file=sys.stderr)
        sys.stderr.write(rejects_to_csv(parsed.rejected))


def _load_selections(args: argparse.Namespace, aliases: dict[str, str]) -> list[SelectionRecord]:
    if getattr(args, "selections", None):
        try:
            return parse_selections(_read_file(args.selections, "selections"), aliases=aliases)
        except ValueError as exc:
            raise CliError(f"--selections: {exc}") from None
    return list(datasets.bundled_selections())


def _emit(text: str | Iterable[str], out: Path | None) -> None:
    """Write a report, whole or in the pieces it is encoded in."""
    pieces = (text,) if isinstance(text, str) else text
    if out is None:
        sys.stdout.writelines(pieces)
        return
    try:
        with out.open("w", encoding="utf-8") as f:
            f.writelines(pieces)
    except OSError as exc:
        raise CliError(f"cannot write --out file {out}: {exc}") from None


def _season_of_date(date: dt.date) -> int:
    # January games belong to the previous calendar year's season.
    return date.year if date.month >= 6 else date.year - 1


def _board_label(season: int, cut: dt.date) -> str:
    return f"{season} board as of {cut.isoformat()}"


def _synthetic_games(seed: int) -> list[Game]:
    league = evaluation.simulate_league(n_teams=16, n_rounds=40, strength_spread=600.0, seed=seed)
    return league.games


# --------------------------------------------------------------------------
# Subcommands


def _cmd_ingest(args: argparse.Namespace) -> int:
    aliases = _aliases_from(args)
    parsed = parse_games(
        _read_file(args.games, "games"), aliases=aliases, allow_duplicates=args.allow_duplicates
    )
    _report_ingest_problems(parsed)
    _emit(_render_games(parsed.games, args.format), Path(args.out) if args.out else None)
    return 0


def _render_games(games: list[Game], fmt: str) -> str | Iterable[str]:
    if fmt == "csv":  # the canonical file form, which derives `week`
        return games_to_csv(games)
    if fmt == "table":
        rows = [
            [str(g.season), g.date.isoformat(), g.team_a, g.team_b, f"{g.score_a}-{g.score_b}",
             "neutral" if g.neutral_site else ""]
            for g in games
        ]
        return analysis.format_table(["Season", "Date", "Home", "Away", "Score", "Site"], rows)
    return analysis.json_records(
        {"season": g.season, "date": g.date.isoformat(), "home_team": g.team_a,
         "away_team": g.team_b, "home_points": g.score_a, "away_points": g.score_b,
         "neutral_site": g.neutral_site}
        for g in games
    )


def _cmd_rate(args: argparse.Namespace) -> int:
    run = _run_config(args)
    aliases = _aliases_from(args)
    parsed = datasets.sample_games() if not args.games else _load_games(args, aliases)
    state = replay(parsed.games, run.cfg, run.policy)
    board = rank_teams(state.ratings, top_n=args.top_n, conferences=datasets.bundled_conferences())
    label = f"final ratings after {state.games_applied} games"
    snapshot = Snapshot(label=label, as_of=state.last_date or dt.date.min, entries=board)
    _emit(analysis.render_report(snapshot, run.fmt), run.out)
    return 0


def _cmd_snapshot(args: argparse.Namespace) -> int:
    run = _run_config(args)
    aliases = _aliases_from(args)
    parsed = datasets.sample_games() if not args.games else _load_games(args, aliases)
    if args.as_of:
        as_of = _parse_date(args.as_of, "--as-of")
    else:
        try:
            as_of = default_cut_date(parsed.games, season=args.season)
        except ValueError as exc:
            raise CliError(str(exc)) from None
    season = args.season if args.season is not None else _season_of_date(as_of)
    selections = [r for r in _load_selections(args, aliases) if r.season == season]
    snapshot = snapshot_at(
        parsed.games, as_of, run.cfg, run.policy, top_n=args.top_n,
        label=_board_label(season, as_of), conferences=datasets.bundled_conferences(),
    )
    _emit(analysis.render_report(snapshot, run.fmt, selections=selections or None), run.out)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    run = _run_config(args)
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
        parsed = _load_games(args, aliases)
        defaults = default_cuts(parsed.games)
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
            parsed.games, {_board_label(s, cut): cut for s, cut in cuts.items()},
            run.cfg, run.policy, depth, datasets.bundled_conferences(),
        )
        ranked = dict(zip(cuts, boards))
        snapshots = {
            season: replace(snap, entries=snap.top(args.top_n)) for season, snap in ranked.items()
        }
        selections = [r for r in selections if r.season in seasons]
    else:
        snapshots = datasets.bundled_snapshots()
        available = set(snapshots)
        selections = [r for r in selections if r.season in available]
        if not selections:
            raise CliError("no bundled board covers the requested season(s)")

    try:
        reports, summary = analysis.compare_all(snapshots, selections)
    except ValueError as exc:
        raise CliError(str(exc)) from None

    agreement = None
    if args.agreement_report:
        agreement = analysis.reference_agreement(ranked, datasets.bundled_snapshots())
    # A --season run is the single-season report, without the aggregate.
    summary = None if args.season is not None else summary
    _emit(analysis.render_comparisons(reports, summary, run.fmt, agreement), run.out)
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    run = _run_config(args)
    aliases = _aliases_from(args)
    records = _load_selections(args, aliases)
    stats = analysis.selection_stats(records)
    _emit(analysis.render_report(stats, run.fmt), run.out)
    return 0


def _eval_inputs(args: argparse.Namespace) -> tuple[list[Game], tuple[int, int] | None]:
    aliases = _aliases_from(args)
    if args.games:
        games = _load_games(args, aliases).games
    else:
        games = _synthetic_games(args.seed)
    window = _parse_window(args.eval_window) if args.eval_window else None
    return games, window


def _cmd_backtest(args: argparse.Namespace) -> int:
    run = _run_config(args)
    games, window = _eval_inputs(args)
    try:
        summary = evaluation.backtest(games, run.cfg, run.policy, window)
    except RatingOverflowError:
        raise
    except ValueError as exc:
        raise CliError(str(exc)) from None
    _emit(analysis.render_report(summary, run.fmt), run.out)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    run = _run_config(args)
    games, window = _eval_inputs(args)
    k_values = args.k_values or [5.0, 10.0, 25.0, 50.0, 100.0]
    try:
        results = evaluation.sweep_k(games, k_values, run.policy, window, base_cfg=run.cfg)
    except RatingOverflowError:
        raise
    except ValueError as exc:
        raise CliError(str(exc)) from None
    _emit(analysis.render_sweep(results, run.fmt), run.out)
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
