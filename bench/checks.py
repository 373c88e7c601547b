"""Output checks for every benchmark op.

Expected values come from the generator's ground truth (the accepted games
and the injected reject counts), from the bundled reference CSVs read
directly, and from the independent oracle
`tests/naive_elo.py::naive_replay_with_boundaries`, which is loaded
read-only from its source text. Each check returns None when the output is
right and a one-line reason when it is not.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
import math
import types
from dataclasses import dataclass
from pathlib import Path

from workloads import HEADER, SEASONS, TruthGame, Workload

# Largest rating difference accepted between the engine and the oracle. The
# two use different algebraic forms of the Elo update, so after tens of
# thousands of games their floating-point results differ in the last digits
# (about 1e-10 here); 1e-6 rating points is far below any visible change.
RATING_TOL = 1e-6
SWEEP_KS = [5.0, 10.0, 25.0, 50.0, 100.0]
COMPARE_TOP_N = 25


def load_oracle(root: Path) -> types.ModuleType:
    """tests/naive_elo.py as a module, without importing it from tests/
    (which would write bytecode there)."""
    path = root / "tests" / "naive_elo.py"
    module = types.ModuleType("naive_elo")
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@dataclass
class Expected:
    games: list[TruthGame]
    boards: dict[int, list[tuple[str, float]]]  # oracle board at each season's cut
    cuts: dict[int, str]  # season -> ISO cut date (day after its last game)
    picks: dict[int, dict[str, int]]  # season -> team -> committee rank
    published: dict[int, list[tuple[int, str]]]  # season -> [(elo_rank, team)]
    rejects: dict[str, int]
    window: tuple[int, int] | None


def _ranked(ratings: dict[str, float]) -> list[tuple[str, float]]:
    return sorted(ratings.items(), key=lambda kv: (-kv[1], kv[0]))


def expected_for(workload: Workload, root: Path) -> Expected:
    oracle = load_oracle(root)
    blocks: list[list[tuple[str, str]]] = []
    boards: dict[int, list[tuple[str, float]]] = {}
    cuts: dict[int, str] = {}
    for season in SEASONS:
        season_games = [g for g in workload.games if g.season == season]
        blocks.append([(g.winner, g.loser) for g in season_games])
        boards[season] = _ranked(oracle.naive_replay_with_boundaries(blocks))
        last = max(g.date for g in season_games)
        cuts[season] = (last + dt.timedelta(days=1)).isoformat()

    data = root / "src" / "cfbelo" / "data"
    aliases = json.loads((data / "team_aliases.json").read_text(encoding="utf-8"))
    picks: dict[int, dict[str, int]] = {}
    for row in csv.DictReader(io.StringIO((data / "cfp_selections_2014_2023.csv").read_text(encoding="utf-8"))):
        picks.setdefault(int(row["season"]), {})[aliases.get(row["team"], row["team"])] = int(row["committee_rank"])
    published: dict[int, list[tuple[int, str]]] = {}
    for row in csv.DictReader(io.StringIO((data / "elo_snapshots_2014_2023.csv").read_text(encoding="utf-8"))):
        published.setdefault(int(row["season"]), []).append(
            (int(row["elo_rank"]), aliases.get(row["team"], row["team"]))
        )
    return Expected(
        games=workload.games,
        boards=boards,
        cuts=cuts,
        picks=picks,
        published={s: sorted(v) for s, v in published.items()},
        rejects=dict(workload.expected_rejects),
        window=(2019, 2023) if workload.name == "export-season" else None,
    )


# --------------------------------------------------------------------------
# Per-op checks


def _board_mismatch(entries: list[dict], board: list[tuple[str, float]], what: str) -> str | None:
    if len(entries) != len(board):
        return f"{what}: {len(entries)} entries, expected {len(board)}"
    for i, (entry, (team, rating)) in enumerate(zip(entries, board)):
        if entry["elo_rank"] != i + 1 or entry["team"] != team:
            return f"{what}: rank {i + 1} is {entry['team']!r} (rank {entry['elo_rank']}), oracle has {team!r}"
        if not abs(entry["rating"] - rating) <= RATING_TOL:
            return f"{what}: {team} rated {entry['rating']!r}, oracle {rating!r}"
    return None


def check_rate(out: str, err: str, exp: Expected) -> str | None:
    doc = json.loads(out)
    want_label = f"final ratings after {len(exp.games)} games"
    if doc["label"] != want_label:
        return f"label {doc['label']!r}, expected {want_label!r}"
    return _board_mismatch(doc["entries"], exp.boards[SEASONS[-1]], "rate")


def check_snapshot(out: str, err: str, exp: Expected) -> str | None:
    season = SEASONS[-1]
    doc = json.loads(out)
    if doc["as_of"] != exp.cuts[season]:
        return f"as_of {doc['as_of']}, expected {exp.cuts[season]}"
    problem = _board_mismatch(doc["entries"], exp.boards[season][:COMPARE_TOP_N], "snapshot")
    if problem:
        return problem
    for entry in doc["entries"]:
        if entry["cfp_rank"] != exp.picks[season].get(entry["team"]):
            return f"snapshot: {entry['team']} cfp_rank {entry['cfp_rank']}"
    return None


def _check_compare_doc(doc: dict, exp: Expected) -> str | None:
    seasons = [s["season"] for s in doc["seasons"]]
    if seasons != list(SEASONS):
        return f"compare covers seasons {seasons}"
    for report in doc["seasons"]:
        season = report["season"]
        board = exp.boards[season][:COMPARE_TOP_N]
        ranks = {team: i + 1 for i, (team, _) in enumerate(board)}
        pick_ranks = [ranks.get(team) for team in exp.picks[season]]
        depth = max(4, *pick_ranks) if None not in pick_ranks else len(board)
        problem = _board_mismatch(report["elo_top"], board[:depth], f"compare {season}")
        if problem:
            return problem
        for pick in report["committee"]:
            if pick["elo_rank"] != ranks.get(pick["team"]):
                return f"compare {season}: {pick['team']} elo_rank {pick['elo_rank']}, oracle {ranks.get(pick['team'])}"
    if doc["aggregate"]["n_seasons"] != len(SEASONS):
        return f"aggregate n_seasons {doc['aggregate']['n_seasons']}"
    return None


def check_compare(out: str, err: str, exp: Expected) -> str | None:
    return _check_compare_doc(json.loads(out), exp)


def _kendall_tau(xs: list[float], ys: list[float]) -> float:
    n = len(xs)
    score = 0
    for i in range(n):
        for j in range(i + 1, n):
            product = (xs[i] - xs[j]) * (ys[i] - ys[j])
            score += (product > 0) - (product < 0)
    return score / (n * (n - 1) / 2)


def check_agreement(out: str, err: str, exp: Expected) -> str | None:
    doc = json.loads(out)
    section = doc.pop("reference_agreement", None)
    if section is None:
        return "no reference_agreement section"
    problem = _check_compare_doc(doc, exp)
    if problem:
        return problem
    if [e["season"] for e in section] != list(SEASONS):
        return f"agreement covers seasons {[e['season'] for e in section]}"
    for entry in section:
        season = entry["season"]
        ranks = {team: i + 1 for i, (team, _) in enumerate(exp.boards[season])}
        published = exp.published[season]
        common = [(rank, team) for rank, team in published if team in ranks]
        tau = None
        if len(common) >= 2:
            tau = _kendall_tau([float(r) for r, _ in common], [float(ranks[t]) for _, t in common])
        overlap = len({t for _, t in published[:4]} & {t for t, _ in exp.boards[season][:4]})
        want = {"n_reference": len(published), "n_common": len(common), "top4_overlap": overlap}
        got = {key: entry[key] for key in want}
        if got != want:
            return f"agreement {season}: {got}, expected {want}"
        if (tau is None) != (entry["kendall_tau"] is None) or (
            tau is not None and abs(entry["kendall_tau"] - tau) > 1e-12
        ):
            return f"agreement {season}: kendall_tau {entry['kendall_tau']}, expected {tau}"
    return None


def _n_scored(exp: Expected) -> int:
    if exp.window is None:
        return len(exp.games)
    return sum(exp.window[0] <= g.season <= exp.window[1] for g in exp.games)


def _summary_problem(row: dict, n_games: int, what: str) -> str | None:
    if row["n_games"] != n_games:
        return f"{what}: n_games {row['n_games']}, expected {n_games}"
    values = (row["brier"], row["log_loss"], row["accuracy"])
    if not all(isinstance(v, float) and math.isfinite(v) for v in values):
        return f"{what}: non-finite score in {row}"
    if not (0.0 <= row["brier"] <= 1.0 and row["log_loss"] >= 0.0 and 0.0 <= row["accuracy"] <= 1.0):
        return f"{what}: score out of range in {row}"
    return None


def check_backtest(out: str, err: str, exp: Expected) -> str | None:
    return _summary_problem(json.loads(out), _n_scored(exp), "backtest")


def check_sweep(out: str, err: str, exp: Expected) -> str | None:
    rows = json.loads(out)
    if [row["k"] for row in rows] != SWEEP_KS:
        return f"sweep K values {[row['k'] for row in rows]}, expected {SWEEP_KS}"
    for row in rows:
        problem = _summary_problem(row, len(exp.games), f"sweep k={row['k']}")
        if problem:
            return problem
    return None


def _truth_rows(exp: Expected) -> list[tuple]:
    return [(g.season, g.date.isoformat(), g.home, g.away, g.home_points, g.away_points, g.neutral) for g in exp.games]


def _reject_problem(err: str, exp: Expected) -> str | None:
    counts: dict[str, int] = {}
    announced = 0
    for line in err.splitlines():
        if line.startswith("cfbelo: rejected "):
            announced = int(line.split()[2])
        elif line[:1].isdigit():
            reason = line.split(",", 2)[1]
            counts[reason] = counts.get(reason, 0) + 1
    if counts != exp.rejects:
        return f"reject counts {dict(sorted(counts.items()))}, expected {dict(sorted(exp.rejects.items()))}"
    if announced != sum(exp.rejects.values()):
        return f"stderr announces {announced} rejected rows, expected {sum(exp.rejects.values())}"
    return None


def check_ingest_csv(out: str, err: str, exp: Expected) -> str | None:
    reader = csv.reader(io.StringIO(out))
    if next(reader, None) != HEADER:
        return "ingest csv: bad header"
    got = [
        (int(r[0]), r[1], r[3], r[4], int(r[5]), int(r[6]), {"true": True, "false": False}[r[7]]) for r in reader
    ]
    if got != _truth_rows(exp):
        return _first_difference(got, _truth_rows(exp), "ingest csv")
    return _reject_problem(err, exp)


def check_ingest_json(out: str, err: str, exp: Expected) -> str | None:
    got = [
        (g["season"], g["date"], g["home_team"], g["away_team"], g["home_points"], g["away_points"], g["neutral_site"])
        for g in json.loads(out)
    ]
    if got != _truth_rows(exp):
        return _first_difference(got, _truth_rows(exp), "ingest json")
    return _reject_problem(err, exp)


def _first_difference(got: list, want: list, what: str) -> str:
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"{what}: game {i} is {a}, expected {b}"
    return f"{what}: {len(got)} games, expected {len(want)}"


CHECKS = {
    "rate": check_rate,
    "snapshot": check_snapshot,
    "compare": check_compare,
    "agreement": check_agreement,
    "backtest": check_backtest,
    "sweep": check_sweep,
    "ingest_csv": check_ingest_csv,
    "ingest_json": check_ingest_json,
}


def check(op: str, out: str, err: str, exp: Expected) -> str | None:
    """None if `op`'s stdout and stderr are right, else the first problem."""
    try:
        return CHECKS[op](out, err, exp)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"{op}: malformed output ({type(exc).__name__}: {exc})"
