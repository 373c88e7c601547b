"""Acceptance suite: one test per shipped guarantee, each printing a
PASS/FAIL line (run with -s or -rA to see them all).

Run: pytest tests/test_acceptance.py -v
"""

import datetime as dt
import random
import time
from pathlib import Path

import pytest

from cfbelo.analysis import compare_all, selection_stats
from cfbelo.cli import main
from cfbelo.datasets import bundled_selections, bundled_snapshots
from cfbelo.elo import EloConfig, win_probability
from cfbelo.engine import Game, replay, snapshot_at
from cfbelo.evaluation import backtest, kendall_tau, simulate_league

from naive_elo import naive_replay

CFG = EloConfig()
SAMPLE_GAMES = Path(__file__).parent.parent / "src" / "cfbelo" / "data" / "sample_games_2021_2023.csv"
README = Path(__file__).parent.parent / "README.md"


def _report(number: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status}")
    assert not failures, f"criterion {number} ({name}):\n" + "\n".join(failures)


def test_criterion_1_formula_correctness():
    rng = random.Random(2014)
    failures = []
    started = time.perf_counter()
    pairs = [(rng.uniform(800, 2800), rng.uniform(800, 2800)) for _ in range(10_000)]
    shifts = [rng.uniform(-600, 600) for _ in range(10_000)]
    graded = []
    for (r_a, r_b), shift in zip(pairs, shifts):
        p = win_probability(r_a, r_b)
        if abs(p + win_probability(r_b, r_a) - 1.0) > 1e-12:
            failures.append(f"complement violated at ({r_a}, {r_b})")
            break
        if abs(win_probability(r_a + shift, r_b + shift) - p) > 1e-12:
            failures.append(f"translation invariance violated at ({r_a}, {r_b}) + {shift}")
            break
        graded.append((r_a - r_b, p))
    graded.sort()
    for (d1, p1), (d2, p2) in zip(graded, graded[1:]):
        if d2 > d1 and not p2 > p1:
            failures.append(f"monotonicity violated between diffs {d1} and {d2}")
            break
    if abs(win_probability(1500, 1900) - 1 / 11) > 1e-12:
        failures.append("(1500, 1900) is not 1/11")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.3f}s, budget 1s")
    _report(1, "formula correctness", failures)


def test_criterion_2_zero_sum_conservation():
    rng = random.Random(2015)
    teams = [f"T{i:02d}" for i in range(50)]
    start = dt.date(2023, 8, 26)
    games = []
    for i in range(10_000):
        a, b = rng.sample(teams, 2)
        games.append(Game(2023, start + dt.timedelta(days=i // 80), a, b, 1, 0))
    failures = []
    started = time.perf_counter()
    state = replay(games, CFG)
    elapsed = time.perf_counter() - started
    drift = abs(sum(r - CFG.initial_rating for r in state.ratings.values()))
    if drift > 1e-6:
        failures.append(f"rating sum drifted by {drift}")
    if state.games_applied != 10_000:
        failures.append(f"applied {state.games_applied} of 10000 games")
    if elapsed >= 1.0:
        failures.append(f"replay took {elapsed:.3f}s, budget 1s")
    _report(2, "zero-sum conservation", failures)


def test_criterion_3_oracle_equivalence():
    rng = random.Random(2016)
    failures = []
    for trial in range(100):
        n_teams = rng.randint(2, 8)
        teams = [f"T{i}" for i in range(n_teams)]
        pairs = [tuple(rng.sample(teams, 2)) for _ in range(rng.randint(1, 30))]
        start = dt.date(2023, 9, 2)
        games = [
            Game(2023, start + dt.timedelta(days=i), w, l, 1, 0)
            for i, (w, l) in enumerate(pairs)
        ]
        state = replay(games, CFG)
        expected = naive_replay(pairs)
        for team, rating in expected.items():
            if abs(state.ratings[team] - rating) > 1e-9:
                failures.append(
                    f"trial {trial}: {team} got {state.ratings[team]}, oracle {rating}"
                )
    _report(3, "oracle equivalence", failures)


TEAM_TABLE = {
    "Alabama": (8, 3),
    "Clemson": (6, 2),
    "Ohio State": (5, 1),
    "Oklahoma": (4, 0),
    "Georgia": (3, 2),
    "Michigan": (3, 0),
    "Notre Dame": (2, 0),
    "Washington": (2, 0),
    "LSU": (1, 1),
    "Oregon": (1, 0),
    "TCU": (1, 0),
    "Florida State": (1, 0),
    "Michigan State": (1, 0),
    "Cincinnati": (1, 0),
    "Texas": (1, 0),
}

CONFERENCE_TABLE = {
    "SEC": (12, 3),
    "Big Ten": (9, 3),
    "ACC": (8, 3),
    "Big 12": (6, 2),
    "Pac-12": (3, 2),
    "Independent": (1, 1),
    "American": (1, 1),
}

# The one correction to the printed tables, which stay verbatim above. The
# paper prints the Big 12 as 6 selections by 2 distinct teams, yet its own
# team table credits those six picks to three teams: Oklahoma 4, TCU 1 and
# Texas 1. The bundled selections list the same six rows under the Big 12
# (Oklahoma 2015, 2017, 2018 and 2019; TCU 2022; Texas 2023), and
# `selection_stats` counts a team toward each conference it was picked under,
# so 3 is the count. PAPER.md holds only the abstract, so the printed cell
# cannot be checked against the full text here; the erratum rests on this
# internal inconsistency alone, and the test re-derives it from TEAM_TABLE.
BIG_12_TEAMS = ("Oklahoma", "TCU", "Texas")
BIG_12_DISTINCT_TEAMS_ERRATUM = (2, 3)  # (printed, corrected)


def test_criterion_4_selection_statistics():
    stats = selection_stats(bundled_selections())
    failures = []
    got_teams = {t: (s.selections, s.championships) for t, s in stats.per_team.items()}
    if got_teams != TEAM_TABLE:
        for team in sorted(set(TEAM_TABLE) | set(got_teams)):
            if TEAM_TABLE.get(team) != got_teams.get(team):
                failures.append(
                    f"team {team}: computed {got_teams.get(team)}, published {TEAM_TABLE.get(team)}"
                )
    erratum_from, erratum_to = BIG_12_DISTINCT_TEAMS_ERRATUM
    printed_selections, printed_teams = CONFERENCE_TABLE["Big 12"]
    if erratum_from != printed_teams:
        failures.append(
            f"erratum Big 12: 'from' is {erratum_from}, but the printed cell is {printed_teams}"
        )
    big_12_picks = sum(TEAM_TABLE[team][0] for team in BIG_12_TEAMS)
    if big_12_picks != printed_selections or erratum_to != len(BIG_12_TEAMS):
        failures.append(
            f"erratum Big 12: 'to' is {erratum_to}, but the team table gives "
            f"{len(BIG_12_TEAMS)} teams {BIG_12_TEAMS} with {big_12_picks} picks "
            f"against {printed_selections} printed"
        )
    expected_confs = {**CONFERENCE_TABLE, "Big 12": (printed_selections, erratum_to)}
    got_confs = {c: (s.selections, s.distinct_teams) for c, s in stats.per_conference.items()}
    if got_confs != expected_confs:
        for conf in sorted(set(expected_confs) | set(got_confs)):
            if expected_confs.get(conf) != got_confs.get(conf):
                corrected = (
                    f" (corrected to {expected_confs[conf]} by erratum)" if conf == "Big 12" else ""
                )
                failures.append(
                    f"conference {conf}: computed {got_confs.get(conf)}, "
                    f"published {CONFERENCE_TABLE.get(conf)}{corrected}"
                )
    _report(4, "selection statistics", failures)


def test_criterion_5_comparison_claims():
    reports, agg = compare_all(bundled_snapshots(), bundled_selections())
    failures = []
    if agg.n_top4_exact != 0:
        failures.append(f"(a) expected 0 exact top-4 matches, got {agg.n_top4_exact}")
    if agg.seasons_within_top5 != (2016, 2021):
        failures.append(f"(b) expected within-top5 seasons (2016, 2021), got {agg.seasons_within_top5}")
    expected_outside = (
        (2020, "Notre Dame", 11),
        (2022, "TCU", 12),
        (2023, "Washington", 13),
    )
    if agg.outside_top_ten != expected_outside:
        failures.append(f"(c) expected outside-top-ten {expected_outside}, got {agg.outside_top_ten}")
    if agg.elo_one_not_selected != ((2022, "Alabama"),):
        failures.append(f"(d) expected Elo-#1 omission ((2022, 'Alabama'),), got {agg.elo_one_not_selected}")
    report_2023 = next(r for r in reports if r.season == 2023)
    ranks = sorted(report_2023.committee_elo_ranks.values())
    if ranks != [1, 5, 6, 13]:
        failures.append(f"(e) expected 2023 committee Elo ranks [1, 5, 6, 13], got {ranks}")
    fsu = bundled_snapshots()[2023].rank_of("Florida State")
    if fsu != 11:
        failures.append(f"(e) expected Florida State at Elo rank 11 in 2023, got {fsu}")
    _report(5, "comparison claims", failures)


def test_criterion_6_synthetic_recovery():
    failures = []
    started = time.perf_counter()
    for seed in range(10):
        league = simulate_league(16, 40, 600.0, seed=seed)
        state = replay(league.games, CFG)
        teams = sorted(league.strengths)
        tau = kendall_tau(
            [league.strengths[t] for t in teams], [state.ratings[t] for t in teams]
        )
        if tau < 0.8:
            failures.append(f"seed {seed}: kendall tau {tau:.3f} below 0.8")
        summary = backtest(league.games, CFG)
        if summary.brier >= 0.25:
            failures.append(f"seed {seed}: brier {summary.brier:.4f} not below 0.25")
    elapsed = time.perf_counter() - started
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.3f}s, budget 5s")
    _report(6, "synthetic recovery", failures)


def test_criterion_7_end_to_end_determinism(capsys, tmp_path):
    failures = []
    argv = ["compare", "--games", str(SAMPLE_GAMES), "--format", "json"]
    assert main(list(argv)) == 0
    first = capsys.readouterr().out
    assert main(list(argv)) == 0
    second = capsys.readouterr().out
    if first != second:
        failures.append("two identical compare runs differed")

    full_text = SAMPLE_GAMES.read_text(encoding="utf-8")
    lines = full_text.splitlines()
    truncated = "\n".join([lines[0]] + [l for l in lines[1:] if not l.startswith("2023,")]) + "\n"
    truncated_path = tmp_path / "through_2022.csv"
    truncated_path.write_text(truncated, encoding="utf-8")

    from cfbelo.ingest import parse_games

    full_games = parse_games(full_text).games
    trunc_games = parse_games(truncated).games
    for season in (2021, 2022):
        cut = dt.date(season, 12, 15)
        with_future = snapshot_at(full_games, cut, CFG)
        without_future = snapshot_at(trunc_games, cut, CFG)
        if with_future != without_future:
            failures.append(f"season {season}: snapshot changed when 2023 games were deleted")

    argv_trunc = ["compare", "--games", str(truncated_path), "--season", "2022", "--format", "json"]
    argv_full = ["compare", "--games", str(SAMPLE_GAMES), "--season", "2022", "--format", "json"]
    assert main(argv_trunc) == 0
    trunc_out = capsys.readouterr().out
    assert main(argv_full) == 0
    full_out = capsys.readouterr().out
    if trunc_out != full_out:
        failures.append("2022 compare output changed when 2023 games were deleted")
    _report(7, "end-to-end determinism", failures)


def test_criterion_8_reproduction_harness_and_note(capsys):
    failures = []
    readme = README.read_text(encoding="utf-8")
    if "not exactly reproducible" not in readme:
        failures.append("README lacks the reproducibility note")
    if "--agreement-report" not in readme:
        failures.append("README does not document the agreement harness")

    code = main(["compare", "--games", str(SAMPLE_GAMES), "--agreement-report"])
    out = capsys.readouterr().out
    if code != 0:
        failures.append(f"agreement harness exited {code}")
    if "Kendall tau" not in out or "informational" not in out:
        failures.append("agreement harness did not emit the rank-agreement section")
    for season in ("2021", "2022", "2023"):
        if season not in out:
            failures.append(f"agreement report missing season {season}")
    _report(8, "reproduction harness and note", failures)
