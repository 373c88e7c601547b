import dataclasses
import datetime as dt
import math
import sys
from functools import reduce
from operator import add
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfbelo.analysis import compare_all
from cfbelo.elo import EloConfig, win_probability
from cfbelo.engine import CarryoverPolicy, Game, Snapshot, ordered, rank_teams, replay, replay_arms
from cfbelo.evaluation import (
    LOG_CLAMP,
    EvalSummary,
    PredictionRecord,
    backtest,
    kendall_tau,
    prediction_records,
    simulate_league,
    summarize,
    sweep_k,
)
from cfbelo.ingest import SelectionRecord, parse_games

CFG = EloConfig()
DEMO_GAMES = Path(__file__).parent.parent / "src" / "cfbelo" / "data" / "sample_games_2021_2023.csv"


def games_from_demo_file():
    return parse_games(DEMO_GAMES.read_text(encoding="utf-8")).games


def one_game(season=2023, date="2023-09-02", a="A", b="B"):
    return Game(season, dt.date.fromisoformat(date), a, b, 7, 3)


# The edges of the clamp, the knife edge, and subnormals.
EDGE_PROBABILITIES = [0.0, 0.5, 1.0, LOG_CLAMP, 1.0 - LOG_CLAMP, math.ulp(0.0), sys.float_info.min / 2]


def reference_summary(p_winners):
    """The scorer as a plain loop, kept as the oracle for the faster one."""
    n = len(p_winners)
    brier = log_loss = hits = 0.0
    for p in p_winners:
        brier += (1.0 - p) ** 2
        log_loss -= math.log(min(max(p, LOG_CLAMP), 1.0 - LOG_CLAMP))
        if p > 0.5:
            hits += 1.0
        elif p == 0.5:
            hits += 0.5
    return EvalSummary(n_games=n, brier=brier / n, log_loss=log_loss / n, accuracy=hits / n)


class TestSummarize:
    def test_single_even_game_scores_constant_baseline(self):
        # two fresh teams: the only prediction is exactly 0.5
        summary = backtest([one_game()], CFG)
        assert summary.n_games == 1
        assert summary.brier == 0.25
        assert summary.log_loss == pytest.approx(math.log(2), abs=1e-12)
        assert summary.accuracy == 0.5

    def test_near_constant_half_with_tiny_k(self):
        games = [
            Game(2023, dt.date(2023, 9, 2) + dt.timedelta(days=i), "A", "B", 1, 0)
            for i in range(50)
        ]
        summary = backtest(games, EloConfig(k_factor=1e-9))
        assert summary.brier == pytest.approx(0.25, abs=1e-9)
        assert summary.log_loss == pytest.approx(math.log(2), abs=1e-9)

    def test_perfect_prediction_limit(self):
        records = [
            PredictionRecord(one_game(), 1.0 - 1e-9),
            PredictionRecord(one_game(b="C"), 1.0 - 1e-9),
        ]
        summary = summarize(records)
        assert summary.brier == pytest.approx(0.0, abs=1e-15)
        assert summary.accuracy == 1.0

    def test_log_loss_clamped_on_degenerate_inputs(self):
        summary = summarize([PredictionRecord(one_game(), 0.0)])
        assert math.isfinite(summary.log_loss)
        assert summary.log_loss == pytest.approx(-math.log(1e-12))

    def test_accuracy_knife_edge_scores_half(self):
        records = [
            PredictionRecord(one_game(), 0.5),
            PredictionRecord(one_game(b="C"), 0.9),
            PredictionRecord(one_game(b="D"), 0.1),
        ]
        assert summarize(records).accuracy == pytest.approx(0.5)

    def test_empty_records_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(EDGE_PROBABILITIES)), min_size=1))
    def test_scorer_equals_the_reference_loop(self, p_winners):
        records = [PredictionRecord(one_game(), p) for p in p_winners]
        assert summarize(records) == reference_summary(p_winners)


class TestBacktest:
    def test_window_restricts_scored_games(self):
        games = [
            one_game(season=2022, date="2022-09-03"),
            one_game(season=2022, date="2022-09-10", b="C"),
            one_game(season=2023, date="2023-09-02"),
        ]
        assert backtest(games, CFG, eval_window=(2022, 2022)).n_games == 2
        assert backtest(games, CFG, eval_window=(2023, 2023)).n_games == 1
        assert backtest(games, CFG).n_games == 3

    def test_empty_window_intersection_raises(self):
        with pytest.raises(ValueError, match="no season"):
            backtest([one_game(season=2023)], CFG, eval_window=(1990, 1991))

    def test_predictions_precede_outcomes(self):
        league = simulate_league(8, 10, 400.0, seed=5)
        later = simulate_league(8, 10, 400.0, seed=6, season=2001)
        full = prediction_records(league.games + later.games, CFG, eval_window=(2000, 2000))
        prefix = prediction_records(league.games, CFG, eval_window=(2000, 2000))
        assert full == prefix

    def test_warmup_seasons_inform_window_predictions(self):
        year_one = [one_game(season=2022, date=f"2022-09-{d:02d}") for d in range(1, 11)]
        year_two = [one_game(season=2023, date="2023-09-02")]
        cold = backtest(year_two, CFG)
        warmed = backtest(year_one + year_two, CFG, eval_window=(2023, 2023))
        assert warmed.n_games == cold.n_games == 1
        assert warmed.brier < cold.brier  # A's ten prior wins over B are known


class TestSweep:
    def test_singleton_matches_backtest(self):
        league = simulate_league(6, 8, 400.0, seed=9)
        [(k, summary)] = sweep_k(league.games, [25.0])
        assert k == 25.0
        assert summary == backtest(league.games, CFG)

    def test_duplicate_k_entries_identical(self):
        league = simulate_league(6, 8, 400.0, seed=9)
        results = sweep_k(league.games, [10.0, 10.0])
        assert results[0][1] == results[1][1]

    def test_results_ordered_like_input(self):
        league = simulate_league(6, 8, 400.0, seed=9)
        ks = [100.0, 5.0, 25.0]
        assert [k for k, _ in sweep_k(league.games, ks)] == ks

    def test_sensitivity_to_k_is_observable(self):
        league = simulate_league(16, 15, 600.0, seed=13)
        results = dict(sweep_k(league.games, [5.0, 25.0, 100.0]))
        assert results[25.0].brier != results[5.0].brier
        assert results[25.0].brier != results[100.0].brier

    def test_nonpositive_k_rejected(self):
        with pytest.raises(ValueError):
            sweep_k([one_game()], [25.0, 0.0])


POLICIES = st.one_of(
    st.sampled_from([CarryoverPolicy(), CarryoverPolicy("reset")]),
    st.floats(0.0, 1.0).map(lambda rho: CarryoverPolicy("regress", rho)),
)
WINDOWS = st.one_of(
    st.none(),
    st.tuples(st.integers(2019, 2024), st.integers(0, 3)).map(lambda w: (w[0], w[0] + w[1])),
)


@st.composite
def seasons_of_games(draw):
    """One to four seasons among six teams, many games sharing a date, in
    ingest order."""
    games = []
    for season in range(2020, 2020 + draw(st.integers(1, 4))):
        for _ in range(draw(st.integers(1, 12))):
            day = dt.date(season, 9, 1) + dt.timedelta(days=draw(st.integers(0, 9)))
            team_a, team_b = draw(st.permutations("ABCDEF"))[:2]
            a_wins = draw(st.booleans())
            games.append(Game(season, day, team_a, team_b, int(a_wins), int(not a_wins)))
    return games


class TestOnePassScorer:
    @settings(max_examples=100, deadline=None)
    @given(seasons_of_games(), POLICIES, WINDOWS, st.lists(st.floats(0.5, 200.0), min_size=1, max_size=5))
    def test_sweep_and_backtest_equal_summaries_of_prediction_records(self, games, policy, window, ks):
        per_k = [prediction_records(games, dataclasses.replace(CFG, k_factor=k), policy, window) for k in ks]
        if not per_k[0]:
            for score in (lambda: sweep_k(games, ks, policy, window), lambda: backtest(games, CFG, policy, window)):
                with pytest.raises(ValueError, match="matches no season"):
                    score()
            return
        assert sweep_k(games, ks, policy, window) == [(k, summarize(records)) for k, records in zip(ks, per_k)]
        assert backtest(games, CFG, policy, window) == summarize(prediction_records(games, CFG, policy, window))

    @settings(max_examples=100, deadline=None)
    @given(seasons_of_games(), POLICIES, WINDOWS, st.lists(st.floats(0.5, 200.0), min_size=1, max_size=3))
    def test_each_recorded_probability_is_the_winners_form(self, games, policy, window, ks):
        # The winner's probability is win_probability(r_winner, r_loser), which
        # 1 - p_a does not always equal to the last bit.
        first, last = window or (-math.inf, math.inf)
        cfgs = [dataclasses.replace(CFG, k_factor=k) for k in ks]
        in_order = ordered(games)
        for cfg, (_, _, p_winners) in zip(cfgs, replay_arms(games, cfgs, policy, window=(first, last))):
            expected = []
            for i, game in enumerate(in_order):
                if not first <= game.season <= last:
                    continue
                before = in_order[:i]
                ratings = replay(before, cfg, policy).ratings
                if before and before[-1].season != game.season:
                    ratings = policy.apply(ratings, cfg.initial_rating)
                r_winner = ratings.get(game.winner, cfg.initial_rating)
                expected.append(win_probability(r_winner, ratings.get(game.loser, cfg.initial_rating), cfg))
            assert list(p_winners) == expected

    def test_each_arms_probabilities_are_packed_doubles(self):
        games = parse_games(DEMO_GAMES.read_text(encoding="utf-8")).games
        cfgs = [CFG, dataclasses.replace(CFG, k_factor=40.0)]
        scored = sum(2022 <= g.season <= 2023 for g in games)
        for window, n in ((None, 0), ((2022, 2023), scored)):
            for _, _, p_winners in replay_arms(games, cfgs, window=window):
                assert (p_winners.typecode, len(p_winners)) == ("d", n)


class TestSimulateLeague:
    def test_same_seed_same_league(self):
        one = simulate_league(8, 5, 400.0, seed=3)
        two = simulate_league(8, 5, 400.0, seed=3)
        assert one.games == two.games
        assert one.strengths == two.strengths

    def test_different_seeds_differ(self):
        one = simulate_league(8, 5, 400.0, seed=3)
        two = simulate_league(8, 5, 400.0, seed=4)
        assert one.games != two.games

    def test_round_robin_shape(self):
        league = simulate_league(6, 4, 300.0, seed=1)
        assert len(league.games) == 4 * (6 * 5 // 2)
        dates = [g.date for g in league.games]
        assert dates == sorted(dates)

    def test_strength_spread_endpoints(self):
        league = simulate_league(16, 1, 600.0, seed=1)
        values = sorted(league.strengths.values())
        assert values[0] == 1200.0
        assert values[-1] == 1800.0

    def test_even_teams_split_within_binomial_bounds(self):
        league = simulate_league(2, 1000, 0.0, seed=21)
        team = "Team 01"
        wins = sum(g.winner == team for g in league.games)
        # p = 0.5, n = 1000: three sigma is about 47.4
        assert abs(wins - 500) <= 48

    def test_heavy_favorite_wins_per_closed_form(self):
        league = simulate_league(2, 1000, 800.0, seed=23)
        favorite = max(league.strengths, key=league.strengths.get)
        wins = sum(g.winner == favorite for g in league.games)
        # p = 100/101, n = 1000: mean 990.1, three sigma about 9.4
        assert abs(wins - 1000 * (100 / 101)) <= 9.4

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            simulate_league(1, 5, 400.0, seed=1)
        with pytest.raises(ValueError):
            simulate_league(4, 0, 400.0, seed=1)

    def test_many_rounds_stay_inside_the_season_window(self):
        league = simulate_league(2, 1000, 0.0, seed=2)
        dates = [g.date for g in league.games]
        assert min(dates).month == 9
        assert max(dates) <= dt.date(2000, 12, 31)
        assert dates == sorted(dates)


class TestKendallTau:
    def test_identical_orderings(self):
        assert kendall_tau([1, 2, 3, 4], [10, 20, 30, 40]) == 1.0

    def test_reversed_orderings(self):
        assert kendall_tau([1, 2, 3, 4], [4, 3, 2, 1]) == -1.0

    def test_one_swap(self):
        # one discordant pair out of six
        assert kendall_tau([1, 2, 3, 4], [2, 1, 3, 4]) == pytest.approx(4 / 6)

    def test_ties_contribute_nothing(self):
        assert kendall_tau([1, 1, 2], [1, 2, 3]) == pytest.approx(2 / 3)

    @pytest.mark.parametrize("xs,ys", [([1, 2, 3], [1, 2]), ([1], [1])], ids=["unequal", "one-element"])
    def test_needs_two_sequences_of_equal_length_at_least_two(self, xs, ys):
        with pytest.raises(ValueError, match="need two sequences of equal length >= 2"):
            kendall_tau(xs, ys)


class TestStrengthRecovery:
    def test_ratings_recover_true_ordering(self):
        league = simulate_league(16, 40, 600.0, seed=0)
        state = replay(league.games, CFG)
        teams = sorted(league.strengths)
        tau = kendall_tau(
            [league.strengths[t] for t in teams], [state.ratings[t] for t in teams]
        )
        assert tau >= 0.8

    def test_model_beats_coin_flip_baseline_across_seeds(self):
        for seed in range(10):
            league = simulate_league(8, 20, 400.0, seed=seed)
            summary = backtest(league.games, CFG)
            assert summary.brier < 0.25, seed
            assert summary.log_loss < math.log(2), seed


def compensated_sum(values):
    """The float sum() of CPython 3.12 and later (Neumaier's compensation)."""
    total = compensation = 0.0
    for x in values:
        t = total + x
        if abs(total) >= abs(x):
            compensation += (total - t) + x
        else:
            compensation += (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


class TestLeftToRightSums:
    """Scores add left to right, so the printed digits match on every Python.

    Python 3.11's sum() already adds left to right, so on 3.11 these tests pin
    the contract; only a 3.12+ interpreter running sum() would fail them.
    """

    def test_summarize_adds_left_to_right(self):
        records = prediction_records(games_from_demo_file())
        p = [r.p_winner_pregame for r in records]
        brier_terms = [(1.0 - x) ** 2 for x in p]
        log_terms = [-math.log(min(max(x, LOG_CLAMP), 1.0 - LOG_CLAMP)) for x in p]
        # The input tells the two orders apart.
        assert compensated_sum(brier_terms) != reduce(add, brier_terms, 0.0)
        assert compensated_sum(log_terms) != reduce(add, log_terms, 0.0)
        summary = summarize(records)
        assert summary.brier == reduce(add, brier_terms, 0.0) / len(p)
        assert summary.log_loss == reduce(add, log_terms, 0.0) / len(p)

    def test_mean_spearman_adds_left_to_right(self):
        # Each permutation gives the committee picks' Elo ranks in one season.
        perms = [(2, 1, 4, 3), (1, 2, 3, 4), (2, 4, 1, 3), (3, 4, 1, 2), (4, 3, 2, 1), (1, 2, 4, 3)]
        snapshots, selections = {}, []
        for season, perm in enumerate(perms, start=2000):
            teams = [f"T{season}-{rank}" for rank in perm]
            ratings = {f"T{season}-{rank}": 2000.0 - rank for rank in range(1, 5)}
            snapshots[season] = Snapshot(f"{season} board", dt.date(season, 12, 1), rank_teams(ratings))
            selections += [SelectionRecord(season, i + 1, t, "Conf", False) for i, t in enumerate(teams)]
        reports, summary = compare_all(snapshots, selections)
        rhos = [r.spearman_committee for r in reports]
        assert compensated_sum(rhos) != reduce(add, rhos, 0.0)
        assert summary.mean_spearman == reduce(add, rhos, 0.0) / len(rhos)
