"""Reconciliation of Elo snapshots with committee selections, plus the
descriptive selection statistics and deterministic report rendering."""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Mapping, Sequence

from .engine import Snapshot, SnapshotEntry
from .evaluation import EvalSummary, kendall_tau
from .ingest import SelectionRecord

FORMATS = ("table", "csv", "json")
# Records per piece of `json_records`. Encoding a piece takes about nine
# times its text (3.5 MB at 2,048 records on CPython 3.11), whatever the
# length of the whole list.
JSON_CHUNK = 2048


class SeasonMismatchError(ValueError):
    """Snapshot label names one season, the selection records another."""


@dataclass(frozen=True)
class ComparisonReport:
    """Per-season reconciliation of the Elo board against committee picks.

    committee_elo_ranks maps each selected team to its Elo rank, None when the
    team is absent from the snapshot. max_committee_elo_rank is None in that
    absent case (treated as unbounded). elo_top is truncated at the deepest
    committee pick (never above rank 4), so entries below it cannot change
    the report.
    """

    season: int
    elo_top: tuple[SnapshotEntry, ...]
    committee: tuple[SelectionRecord, ...]
    overlap_top4: int
    committee_elo_ranks: dict[str, int | None]
    max_committee_elo_rank: int | None
    top4_exact_match: bool
    committee_within_top5: bool
    spearman_committee: float | None


@dataclass(frozen=True)
class AggregateSummary:
    """Cross-season tallies of the comparison reports."""

    n_seasons: int
    n_top4_exact: int
    seasons_within_top5: tuple[int, ...]
    outside_top_ten: tuple[tuple[int, str, int], ...]
    elo_one_not_selected: tuple[tuple[int, str], ...]
    mean_spearman: float | None


@dataclass(frozen=True)
class TeamStat:
    selections: int
    championships: int


@dataclass(frozen=True)
class ConferenceStat:
    selections: int
    distinct_teams: int


@dataclass(frozen=True)
class SelectionStats:
    per_team: dict[str, TeamStat]
    per_conference: dict[str, ConferenceStat]


@dataclass(frozen=True)
class AgreementEntry:
    """Rank agreement between a replayed board and a reference board.

    Informational only: absolute published ratings depend on dataset and
    carryover choices that are not recoverable, so agreement is reported,
    never asserted.
    """

    season: int
    n_reference: int
    n_common: int
    kendall_tau: float | None
    top4_overlap: int


def spearman_rho(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Spearman rank correlation of two untied sequences."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two sequences of equal length >= 2")
    n = len(xs)
    rank_x = _dense_ranks(xs)
    rank_y = _dense_ranks(ys)
    d2 = sum((rx - ry) ** 2 for rx, ry in zip(rank_x, rank_y))
    return 1.0 - 6.0 * d2 / (n * (n * n - 1))


def _dense_ranks(values: Sequence[float]) -> list[int]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0] * len(values)
    for rank, idx in enumerate(order, start=1):
        ranks[idx] = rank
    return ranks


def _season_from_label(label: str) -> int | None:
    # Only a leading year names the season: "as of 2024-01-05" names none, as a
    # January cut belongs to the season before.
    match = re.match(r"[0-9]{4}(?=\s|$)", label)
    return int(match.group()) if match else None


def compare(snapshot: Snapshot, selections: Sequence[SelectionRecord]) -> ComparisonReport:
    """Reconcile one season's snapshot with that season's four committee picks."""
    if not snapshot.entries:
        raise ValueError("cannot compare against an empty snapshot")
    seasons = {r.season for r in selections}
    if len(selections) != 4 or len(seasons) != 1:
        raise ValueError("expected exactly four selection records from one season")
    season = seasons.pop()
    label_season = _season_from_label(snapshot.label)
    if label_season is not None and label_season != season:
        raise SeasonMismatchError(
            f"snapshot is labeled {label_season} but selections are for {season}"
        )

    committee = tuple(sorted(selections, key=lambda r: r.committee_rank))
    ranks = {r.team: snapshot.rank_of(r.team) for r in committee}
    known = [rank for rank in ranks.values() if rank is not None]
    all_present = len(known) == len(committee)
    max_rank = max(known) if all_present else None

    elo_top4 = {entry.team for entry in snapshot.top(4)}
    committee_teams = {r.team for r in committee}
    overlap = len(elo_top4 & committee_teams)

    spearman = None
    if all_present:
        spearman = spearman_rho(
            [r.committee_rank for r in committee],
            [float(ranks[r.team]) for r in committee],
        )

    cutoff = max(4, max_rank) if max_rank is not None else len(snapshot.entries)
    return ComparisonReport(
        season=season,
        elo_top=snapshot.top(cutoff),
        committee=committee,
        overlap_top4=overlap,
        committee_elo_ranks=ranks,
        max_committee_elo_rank=max_rank,
        top4_exact_match=overlap == 4,
        committee_within_top5=all_present and max_rank <= 5,
        spearman_committee=spearman,
    )


def compare_all(
    snapshots: Mapping[int, Snapshot],
    selections: Sequence[SelectionRecord],
) -> tuple[list[ComparisonReport], AggregateSummary]:
    """Per-season reports for every season with selections, plus aggregates."""
    by_season: dict[int, list[SelectionRecord]] = {}
    for record in selections:
        by_season.setdefault(record.season, []).append(record)

    missing = sorted(set(by_season) - set(snapshots))
    if missing:
        raise ValueError(f"no snapshot for season(s) with selections: {missing}")

    reports = [compare(snapshots[season], by_season[season]) for season in sorted(by_season)]

    outside_top_ten = tuple(
        (report.season, record.team, report.committee_elo_ranks[record.team])
        for report in reports
        for record in report.committee
        if report.committee_elo_ranks[record.team] is not None
        and report.committee_elo_ranks[record.team] > 10
    )
    elo_one_not_selected = tuple(
        (report.season, report.elo_top[0].team)
        for report in reports
        if report.elo_top[0].team not in {r.team for r in report.committee}
    )
    spearmans = [r.spearman_committee for r in reports if r.spearman_committee is not None]
    total = 0.0
    for rho in spearmans:  # left to right, as in evaluation.summarize
        total += rho
    summary = AggregateSummary(
        n_seasons=len(reports),
        n_top4_exact=sum(r.top4_exact_match for r in reports),
        seasons_within_top5=tuple(r.season for r in reports if r.committee_within_top5),
        outside_top_ten=outside_top_ten,
        elo_one_not_selected=elo_one_not_selected,
        mean_spearman=total / len(spearmans) if spearmans else None,
    )
    return reports, summary


def selection_stats(records: Sequence[SelectionRecord]) -> SelectionStats:
    """Selection and championship counts by team, and by conference.

    A team contributes to each conference it was selected under, so a team
    that changed conference between selections counts toward both.
    """
    team_selections: dict[str, int] = {}
    team_championships: dict[str, int] = {}
    conf_selections: dict[str, int] = {}
    conf_teams: dict[str, set[str]] = {}
    for record in records:
        team_selections[record.team] = team_selections.get(record.team, 0) + 1
        team_championships[record.team] = team_championships.get(record.team, 0) + int(
            record.won_championship
        )
        conf_selections[record.conference] = conf_selections.get(record.conference, 0) + 1
        conf_teams.setdefault(record.conference, set()).add(record.team)
    return SelectionStats(
        per_team={
            team: TeamStat(team_selections[team], team_championships[team])
            for team in team_selections
        },
        per_conference={
            conf: ConferenceStat(conf_selections[conf], len(conf_teams[conf]))
            for conf in conf_selections
        },
    )


def reference_agreement(
    replayed: Mapping[int, Snapshot],
    reference: Mapping[int, Snapshot],
) -> list[AgreementEntry]:
    """Per-season rank agreement of replayed boards against reference boards.

    Kendall tau is computed over the teams the two boards share (None when
    fewer than two are shared); top4_overlap counts shared top-4 teams.
    """
    entries: list[AgreementEntry] = []
    for season in sorted(set(replayed) & set(reference)):
        ours, published = replayed[season], reference[season]
        common = [e for e in published.entries if ours.rank_of(e.team) is not None]
        tau = None
        if len(common) >= 2:
            tau = kendall_tau(
                [float(e.elo_rank) for e in common],
                [float(ours.rank_of(e.team)) for e in common],
            )
        overlap = len(
            {e.team for e in published.top(4)} & {e.team for e in ours.top(4)}
        )
        entries.append(
            AgreementEntry(
                season=season,
                n_reference=len(published.entries),
                n_common=len(common),
                kendall_tau=tau,
                top4_overlap=overlap,
            )
        )
    return entries


# --------------------------------------------------------------------------
# Rendering
#
# Each report has one view, a function of the report and the format that
# builds only that format's form: the table text (through `format_table`),
# the CSV rows with the header first, or the JSON payload. `emit` turns any
# view into text, so documents are composed from views, never from output.


def render_report(
    report: "Snapshot | ComparisonReport | SelectionStats | EvalSummary",
    fmt: str,
    selections: Sequence[SelectionRecord] | None = None,
) -> str:
    """Deterministic text rendering of a report object.

    Snapshot tables use the column order Elo ranking, Team, Conference,
    Elo rating, CFP ranking, with ratings rounded to integers in table
    format and kept at full precision in csv/json. Passing the season's
    selection records fills the CFP column of a snapshot.
    """
    fmt = _canonical_format(fmt)
    if isinstance(report, Snapshot):
        cfp = {r.team: r.committee_rank for r in selections or ()}
        return emit(_snapshot_view(report, cfp, fmt), fmt)
    if isinstance(report, ComparisonReport):
        return emit(_comparisons_view([report], None, None, fmt), fmt)
    if isinstance(report, SelectionStats):
        return emit(_stats_view(report, fmt), fmt)
    if isinstance(report, EvalSummary):
        return emit(_eval_view(report, fmt), fmt)
    raise TypeError(f"cannot render object of type {type(report).__name__}")


def render_comparisons(
    reports: Sequence[ComparisonReport],
    summary: AggregateSummary | None,
    fmt: str,
    agreement: Sequence[AgreementEntry] | None = None,
) -> str:
    """Render compare output as one document.

    With a summary the document holds every report and the cross-season
    aggregate (the aggregate has no CSV rows). With summary None it is the
    single-season report, and `reports` must hold exactly one. `agreement`,
    when given, is added as a `reference_agreement` key in JSON, as a blank
    row and its own rows in CSV, and as its table after the rest.
    """
    fmt = _canonical_format(fmt)
    if summary is None and len(reports) != 1:
        raise ValueError("a compare document without an aggregate holds one season")
    return emit(_comparisons_view(reports, summary, agreement, fmt), fmt)


def render_sweep(results: Sequence[tuple[float, EvalSummary]], fmt: str) -> str:
    """Render a K sweep as one row per K value."""
    fmt = _canonical_format(fmt)
    if fmt == "table":
        rows = [
            [f"{k:g}", str(s.n_games), f"{s.brier:.6f}", f"{s.log_loss:.6f}", f"{s.accuracy:.6f}"]
            for k, s in results
        ]
        return format_table(["K", "Games", "Brier", "Log loss", "Accuracy"], rows)
    rows = [
        [f"{k:g}" if fmt == "csv" else k, s.n_games, s.brier, s.log_loss, s.accuracy]
        for k, s in results
    ]
    return emit(_rows_view(["k", "n_games", "brier", "log_loss", "accuracy"], rows, fmt), fmt)


def render_agreement(entries: Sequence[AgreementEntry], fmt: str) -> str:
    """Render reference-board agreement, flagged as informational."""
    fmt = _canonical_format(fmt)
    return emit(_agreement_view(entries, fmt), fmt)


def emit(view: "str | list | dict", fmt: str) -> str:
    """Text of a view built for `fmt`: table text as it is, CSV rows through
    the one CSV writer, a JSON payload through the one JSON emitter."""
    if fmt == "table":
        return view
    if fmt == "csv":
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(view)
        return out.getvalue()
    if isinstance(view, list):
        return "".join(json_records(view))
    return json.dumps(view, indent=2) + "\n"


def json_records(records: Iterable[dict]) -> Iterator[str]:
    """`json.dumps(list(records), indent=2) + "\n"` for flat, non-empty
    records, in pieces of JSON_CHUNK records, each taken from `records` only
    when its piece is encoded.

    CPython's C encoder runs only without `indent`. So each chunk is encoded
    once with newline separators, then each record boundary is re-indented:
    an encoded string never holds a raw newline, so the boundary cannot occur
    in a value. Empty records and nested values are outside this path; [{}]
    and [{"a": [1, 2]}] would not match json.dumps(..., indent=2).
    """
    records = iter(records)
    lead = "[\n  {\n    "
    while chunk := list(islice(records, JSON_CHUNK)):
        body = json.dumps(chunk, separators=(",\n    ", ": "))[2:-2]
        yield lead + body.replace("},\n    {", "\n  },\n  {\n    ") + "\n  }"
        lead = ",\n  {\n    "
    yield "[]\n" if lead[0] == "[" else "\n]\n"  # "[]" when no record came


def _canonical_format(fmt: str) -> str:
    name = fmt.strip().lower()
    if name == "plain-table":
        name = "table"
    if name not in FORMATS:
        raise ValueError(f"unknown format {fmt!r} (choose from table, csv, json)")
    return name


def format_table(header: list[str], rows: list[list[str]]) -> str:
    """Fixed-width plain table with a header separator line."""
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    lines = [header, ["-" * w for w in widths], *rows]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() + "\n" for line in lines
    )


def _rows_view(header: list[str], rows: list[list], fmt: str) -> list:
    """CSV rows, header first, or the same cells as a list of JSON records."""
    return [header, *rows] if fmt == "csv" else [dict(zip(header, row)) for row in rows]


def _snapshot_view(snapshot: Snapshot, cfp: dict[str, int], fmt: str) -> "str | list | dict":
    if fmt == "table":
        rows = [
            [str(e.elo_rank), e.team, e.conference, str(round(e.rating)), str(cfp.get(e.team, ""))]
            for e in snapshot.entries
        ]
        header = ["Elo ranking", "Team", "Conference", "Elo rating", "CFP ranking"]
        return f"{snapshot.label}\n" + format_table(header, rows)
    header = ["elo_rank", "team", "conference", "rating", "cfp_rank"]
    rows = [[e.elo_rank, e.team, e.conference, e.rating, cfp.get(e.team)] for e in snapshot.entries]
    entries = _rows_view(header, rows, fmt)
    if fmt == "csv":
        return entries
    return {"label": snapshot.label, "as_of": snapshot.as_of.isoformat(), "entries": entries}


def _comparisons_view(
    reports: Sequence[ComparisonReport],
    summary: AggregateSummary | None,
    agreement: Sequence[AgreementEntry] | None,
    fmt: str,
) -> "str | list | dict":
    """The compare document; see `render_comparisons`."""
    if fmt == "table":
        blocks = [_comparison_view(r, fmt) for r in reports]
        view = "\n".join(blocks + ([] if summary is None else [_aggregate_view(summary, fmt)]))
    elif fmt == "csv":
        header = ["season", "committee_rank", "team", "conference", "elo_rank", "overlap_top4",
                  "top4_exact_match", "committee_within_top5", "max_committee_elo_rank"]
        view = [header, *(row for r in reports for row in _comparison_view(r, fmt))]
    elif summary is None:
        view = _comparison_view(reports[0], fmt)
    else:
        view = {
            "seasons": [_comparison_view(r, fmt) for r in reports],
            "aggregate": _aggregate_view(summary, fmt),
        }
    if agreement is None:
        return view
    section = _agreement_view(agreement, fmt)
    if fmt == "json":
        view["reference_agreement"] = section
    elif fmt == "csv":
        view += [[], *section]
    else:
        view += section
    return view


def _comparison_view(report: ComparisonReport, fmt: str) -> "str | list | dict":
    """One season's table text, CSV rows without the header, or JSON payload."""
    ranks = report.committee_elo_ranks
    max_rank = report.max_committee_elo_rank
    if fmt == "table":
        rows = [
            [str(r.committee_rank), r.team, r.conference, str(ranks[r.team] or "absent")]
            for r in report.committee
        ]
        lines = [
            f"season {report.season}",
            format_table(["CFP ranking", "Team", "Conference", "Elo ranking"], rows).rstrip(),
            f"top-4 overlap: {report.overlap_top4} of 4",
            f"top-4 exact match: {'yes' if report.top4_exact_match else 'no'}",
            f"all picks in Elo top 5: {'yes' if report.committee_within_top5 else 'no'}",
            f"deepest pick by Elo: {'absent from board' if max_rank is None else max_rank}",
        ]
        if report.spearman_committee is not None:
            lines.append(f"Spearman (committee vs Elo order): {report.spearman_committee:+.3f}")
        return "\n".join(lines) + "\n"
    if fmt == "csv":
        flags = [str(report.top4_exact_match).lower(), str(report.committee_within_top5).lower()]
        return [
            [report.season, r.committee_rank, r.team, r.conference, ranks[r.team],
             report.overlap_top4, *flags, max_rank]
            for r in report.committee
        ]
    return {
        "season": report.season,
        "overlap_top4": report.overlap_top4,
        "top4_exact_match": report.top4_exact_match,
        "committee_within_top5": report.committee_within_top5,
        "max_committee_elo_rank": max_rank,
        "spearman_committee": report.spearman_committee,
        "committee": _rows_view(
            ["committee_rank", "team", "conference", "elo_rank", "won_championship"],
            [[r.committee_rank, r.team, r.conference, ranks[r.team], r.won_championship]
             for r in report.committee],
            fmt,
        ),
        "elo_top": _rows_view(
            ["elo_rank", "team", "conference", "rating"],
            [[e.elo_rank, e.team, e.conference, e.rating] for e in report.elo_top],
            fmt,
        ),
    }


def _aggregate_view(summary: AggregateSummary, fmt: str) -> "str | dict":
    """The cross-season tallies as table text or JSON payload."""
    if fmt == "json":
        outside, elo_one = summary.outside_top_ten, summary.elo_one_not_selected
        return {
            "n_seasons": summary.n_seasons,
            "n_top4_exact": summary.n_top4_exact,
            "seasons_within_top5": list(summary.seasons_within_top5),
            "outside_top_ten": _rows_view(["season", "team", "elo_rank"], outside, fmt),
            "elo_one_not_selected": _rows_view(["season", "team"], elo_one, fmt),
            "mean_spearman": summary.mean_spearman,
        }
    lines = [
        "aggregate",
        f"seasons analyzed: {summary.n_seasons}",
        f"seasons where committee matched the Elo top 4 exactly: {summary.n_top4_exact}",
        "seasons with all picks in the Elo top 5: "
        + (", ".join(str(s) for s in summary.seasons_within_top5) or "none"),
        "picks outside the Elo top 10: "
        + (", ".join(f"{s} {t} (Elo {r})" for s, t, r in summary.outside_top_ten) or "none"),
        "Elo #1 left out: "
        + (", ".join(f"{s} {t}" for s, t in summary.elo_one_not_selected) or "never"),
    ]
    if summary.mean_spearman is not None:
        lines.append(f"mean Spearman across seasons: {summary.mean_spearman:+.3f}")
    return "\n".join(lines) + "\n"


def _stats_view(stats: SelectionStats, fmt: str) -> "str | list | dict":
    teams = sorted(
        stats.per_team.items(),
        key=lambda kv: (-kv[1].selections, -kv[1].championships, kv[0]),
    )
    conferences = sorted(
        stats.per_conference.items(),
        key=lambda kv: (-kv[1].selections, kv[0]),
    )
    if fmt == "table":
        team_table = format_table(
            ["Team", "Selections", "Championships Won"],
            [[team, str(s.selections), str(s.championships)] for team, s in teams],
        )
        conf_table = format_table(
            ["Conference", "Selections", "No. of teams"],
            [[conf, str(s.selections), str(s.distinct_teams)] for conf, s in conferences],
        )
        return team_table + "\n" + conf_table
    if fmt == "csv":
        return [
            ["section", "name", "selections", "championships", "distinct_teams"],
            *(["team", team, s.selections, s.championships, None] for team, s in teams),
            *(["conference", c, s.selections, None, s.distinct_teams] for c, s in conferences),
        ]
    return {
        "per_team": _rows_view(
            ["team", "selections", "championships"],
            [[team, s.selections, s.championships] for team, s in teams],
            fmt,
        ),
        "per_conference": _rows_view(
            ["conference", "selections", "distinct_teams"],
            [[conf, s.selections, s.distinct_teams] for conf, s in conferences],
            fmt,
        ),
    }


def _eval_view(summary: EvalSummary, fmt: str) -> "str | list | dict":
    if fmt == "table":
        return (
            f"games scored: {summary.n_games}\n"
            f"brier score:  {summary.brier:.6f}\n"
            f"log loss:     {summary.log_loss:.6f}\n"
            f"accuracy:     {summary.accuracy:.6f}\n"
        )
    header = ["n_games", "brier", "log_loss", "accuracy"]
    row = [summary.n_games, summary.brier, summary.log_loss, summary.accuracy]
    return [header, row] if fmt == "csv" else dict(zip(header, row))


def _agreement_view(entries: Sequence[AgreementEntry], fmt: str) -> "str | list":
    if fmt == "table":
        rows = [
            [str(e.season), str(e.n_reference), str(e.n_common),
             "n/a" if e.kendall_tau is None else f"{e.kendall_tau:+.3f}", str(e.top4_overlap)]
            for e in entries
        ]
        header = ["Season", "Board teams", "In replay", "Kendall tau", "Top-4 overlap"]
        return format_table(header, rows) + (
            "agreement vs published boards is informational: absolute published\n"
            "ratings depend on an unspecified dataset, start year, and carryover\n"
        )
    header = ["season", "n_reference", "n_common", "kendall_tau", "top4_overlap"]
    rows = [[e.season, e.n_reference, e.n_common, e.kendall_tau, e.top4_overlap] for e in entries]
    return _rows_view(header, rows, fmt)
