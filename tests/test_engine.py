import datetime as dt
import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfbelo import datasets
from cfbelo.elo import EloConfig
from cfbelo.engine import (
    CarryoverPolicy,
    Game,
    InvalidGameError,
    OutOfOrderError,
    RatingOverflowError,
    TiedScoreError,
    board_label,
    default_cut_date,
    default_cuts,
    label_season,
    ordered,
    rank_teams,
    replay,
    replay_arms,
    selection_sunday,
    snapshot_at,
    snapshots_at,
)

from naive_elo import naive_replay, naive_replay_with_boundaries

CFG = EloConfig()


def game(season, date, team_a, team_b, score_a, score_b, **kw):
    return Game(season, dt.date.fromisoformat(date), team_a, team_b, score_a, score_b, **kw)


def winner_loser_games(pairs, season=2023, start="2023-09-02"):
    """Build a daily schedule where the first team of each pair wins 1-0."""
    first = dt.date.fromisoformat(start)
    return [
        Game(season, first + dt.timedelta(days=i), w, l, 1, 0)
        for i, (w, l) in enumerate(pairs)
    ]


class TestGame:
    def test_winner_and_loser_follow_scores(self):
        g = game(2023, "2023-11-25", "Michigan", "Ohio State", 30, 24)
        assert g.winner == "Michigan"
        assert g.loser == "Ohio State"

    def test_tie_is_unrepresentable(self):
        with pytest.raises(TiedScoreError):
            game(2023, "2023-09-02", "A", "B", 21, 21)

    def test_self_play_rejected(self):
        with pytest.raises(InvalidGameError):
            game(2023, "2023-09-02", "A", "A", 21, 7)

    def test_negative_score_rejected(self):
        with pytest.raises(InvalidGameError):
            game(2023, "2023-09-02", "A", "B", -1, 7)


class TestOneGameReplay:
    def test_upset_free_update_splits_k(self):
        state = replay([game(2023, "2023-09-02", "B", "A", 10, 3)], CFG)
        assert state.ratings == {"A": 1487.5, "B": 1512.5}
        assert state.games_applied == 1
        assert state.last_date == dt.date(2023, 9, 2)

    def test_unseen_teams_enter_at_the_configured_initial(self):
        state = replay([game(2023, "2023-09-02", "A", "B", 7, 3)], EloConfig(initial_rating=1000.0))
        assert state.ratings == {"A": 1012.5, "B": 987.5}

    def test_only_participants_change(self):
        games = [game(2023, "2023-09-02", "A", "B", 7, 3), game(2023, "2023-09-09", "C", "D", 7, 3)]
        cut = dt.date(2023, 9, 5)
        state, boards, _ = replay_arms(games, (CFG,), cuts=[cut])[0]
        assert boards[cut] == {"A": 1512.5, "B": 1487.5}
        assert state.ratings == {"A": 1512.5, "B": 1487.5, "C": 1512.5, "D": 1487.5}

    def test_returned_state_and_boards_share_nothing(self):
        games = [game(2023, "2023-09-02", "A", "B", 7, 3)]
        cut = dt.date(2023, 9, 3)
        state, boards, _ = replay_arms(games, (CFG,), cuts=[cut])[0]
        boards[cut]["A"] = 0.0
        assert state.ratings == {"A": 1512.5, "B": 1487.5}
        assert replay(games, CFG).ratings is not replay(games, CFG).ratings

    def test_overflow_in_the_last_game_names_it(self):
        cfg = EloConfig(initial_rating=1.7e308, k_factor=1e308)
        with pytest.raises(RatingOverflowError, match=r"after game 0 on 2023-09-02: 'A' is at inf"):
            replay([game(2023, "2023-09-02", "A", "B", 21, 7)], cfg)


class TestReplay:
    def test_empty_stream_is_identity(self):
        state = replay([], CFG, CarryoverPolicy())
        assert state.ratings == {}
        assert state.games_applied == 0
        assert state.last_date is None

    def test_three_game_cycle_matches_oracle(self):
        pairs = [("A", "B"), ("B", "C"), ("C", "A")]
        state = replay(winner_loser_games(pairs), CFG)
        expected = naive_replay(pairs)
        for team, rating in expected.items():
            assert state.ratings[team] == pytest.approx(rating, abs=1e-9)

    def test_single_season_reset_equals_full(self):
        pairs = [("A", "B"), ("C", "A"), ("B", "C"), ("A", "C")]
        games = winner_loser_games(pairs)
        full = replay(games, CFG, CarryoverPolicy())
        reset = replay(games, CFG, CarryoverPolicy("reset"))
        assert full.ratings == reset.ratings

    def test_regress_zero_equals_reset_across_seasons(self):
        year_one = winner_loser_games([("A", "B"), ("B", "C")], season=2022, start="2022-09-03")
        year_two = winner_loser_games([("C", "A"), ("A", "B")], season=2023, start="2023-09-02")
        games = year_one + year_two
        regress0 = replay(games, CFG, CarryoverPolicy("regress", 0.0))
        reset = replay(games, CFG, CarryoverPolicy("reset"))
        assert regress0.ratings == pytest.approx(reset.ratings)

    def test_full_carryover_keeps_ratings_across_seasons(self):
        year_one = winner_loser_games([("A", "B")], season=2022, start="2022-09-03")
        year_two = winner_loser_games([("A", "B")], season=2023, start="2023-09-02")
        state = replay(year_one + year_two, CFG)
        expected = naive_replay([("A", "B"), ("A", "B")])
        assert state.ratings == pytest.approx(expected, abs=1e-12)

    def test_carryover_modes_match_boundary_oracle(self):
        blocks = [
            [("A", "B"), ("B", "C"), ("A", "C")],
            [("C", "A"), ("C", "B"), ("B", "A")],
        ]
        year_one = winner_loser_games(blocks[0], season=2022, start="2022-09-03")
        year_two = winner_loser_games(blocks[1], season=2023, start="2023-09-02")
        games = year_one + year_two
        for mode, rho in (("full", 1.0), ("reset", 0.0), ("regress", 0.35)):
            policy = CarryoverPolicy(mode, rho) if mode == "regress" else CarryoverPolicy(mode)
            state = replay(games, CFG, policy)
            expected = naive_replay_with_boundaries(blocks, mode=mode, rho=rho)
            for team, rating in expected.items():
                assert state.ratings[team] == pytest.approx(rating, abs=1e-9), (mode, team)

    def test_decreasing_season_raises_with_index(self):
        games = [
            game(2023, "2023-09-02", "A", "B", 7, 3),
            game(2022, "2023-09-09", "A", "C", 7, 3),
        ]
        with pytest.raises(OutOfOrderError, match="game 1"):
            replay(games, CFG)

    def test_same_day_games_keep_ingest_order(self):
        forward = [
            game(2023, "2023-09-02", "A", "B", 7, 3),
            game(2023, "2023-09-02", "B", "C", 7, 3),
        ]
        swapped = list(reversed(forward))
        assert replay(forward, CFG).ratings != replay(swapped, CFG).ratings

    def test_random_replays_match_naive_oracle(self):
        rng = random.Random(101)
        for trial in range(25):
            n_teams = rng.randint(2, 8)
            teams = [f"T{i}" for i in range(n_teams)]
            pairs = []
            for _ in range(rng.randint(1, 30)):
                a, b = rng.sample(teams, 2)
                pairs.append((a, b))
            state = replay(winner_loser_games(pairs), CFG)
            expected = naive_replay(pairs)
            for team, rating in expected.items():
                assert state.ratings[team] == pytest.approx(rating, abs=1e-9), trial

    def test_conservation_over_many_games(self):
        rng = random.Random(103)
        teams = [f"T{i}" for i in range(20)]
        pairs = [tuple(rng.sample(teams, 2)) for _ in range(2000)]
        state = replay(winner_loser_games(pairs), CFG)
        drift = sum(r - CFG.initial_rating for r in state.ratings.values())
        assert abs(drift) <= 1e-6

    @pytest.mark.parametrize(
        "policy",
        [CarryoverPolicy(), CarryoverPolicy("reset"), CarryoverPolicy("regress", 0.6)],
    )
    def test_conservation_holds_across_season_boundaries(self, policy):
        rng = random.Random(107)
        teams = [f"T{i}" for i in range(12)]
        games = []
        for season in (2021, 2022, 2023):
            pairs = [tuple(rng.sample(teams, 2)) for _ in range(90)]
            games += winner_loser_games(pairs, season=season, start=f"{season}-09-01")
        state = replay(games, CFG, policy)
        drift = sum(r - CFG.initial_rating for r in state.ratings.values())
        assert abs(drift) <= 1e-6

    def test_regress_one_equals_full(self):
        year_one = winner_loser_games([("A", "B"), ("B", "C")], season=2022, start="2022-09-03")
        year_two = winner_loser_games([("C", "A")], season=2023, start="2023-09-02")
        games = year_one + year_two
        assert replay(games, CFG, CarryoverPolicy("regress", 1.0)).ratings == pytest.approx(
            replay(games, CFG, CarryoverPolicy()).ratings
        )


class TestSnapshotAt:
    def test_cut_before_first_game_is_empty(self):
        games = winner_loser_games([("A", "B")])
        snap = snapshot_at(games, dt.date(1900, 1, 1), CFG)
        assert snap.entries == ()

    def test_top_n_beyond_team_count_returns_everyone(self):
        games = winner_loser_games([("A", "B"), ("C", "D")])
        snap = snapshot_at(games, dt.date(2024, 1, 1), CFG, top_n=50)
        assert len(snap.entries) == 4

    def test_ranks_are_contiguous_and_sorted(self):
        games = winner_loser_games([("A", "B"), ("A", "C"), ("B", "C")])
        snap = snapshot_at(games, dt.date(2024, 1, 1), CFG)
        assert [e.elo_rank for e in snap.entries] == [1, 2, 3]
        ratings = [e.rating for e in snap.entries]
        assert ratings == sorted(ratings, reverse=True)
        assert snap.entries[0].team == "A"

    def test_equal_ratings_break_by_name(self):
        entries = rank_teams({"Zeta": 1500.0, "Alpha": 1500.0, "Mid": 1600.0})
        assert [e.team for e in entries] == ["Mid", "Alpha", "Zeta"]

    def test_prefix_property(self):
        early = winner_loser_games([("A", "B"), ("B", "C")], season=2022, start="2022-09-03")
        late = winner_loser_games([("C", "A")], season=2023, start="2023-09-02")
        cut = dt.date(2022, 12, 15)
        with_future = snapshot_at(early + late, cut, CFG)
        without_future = snapshot_at(early, cut, CFG)
        assert with_future == without_future

    def test_deterministic_across_runs(self):
        games = winner_loser_games([("A", "B"), ("B", "C"), ("C", "A")])
        one = snapshot_at(games, dt.date(2024, 1, 1), CFG)
        two = snapshot_at(games, dt.date(2024, 1, 1), CFG)
        assert one == two

    def test_conference_labels_attach_when_known(self):
        games = winner_loser_games([("A", "B")])
        snap = snapshot_at(games, dt.date(2024, 1, 1), CFG, conferences={"A": "Big Ten"})
        assert snap.entries[0].conference == "Big Ten"
        assert snap.entries[1].conference == "Unknown"

    @pytest.mark.parametrize("n", [-1, -12])
    def test_top_keeps_no_entries_for_a_negative_n_as_rank_teams_does(self, n):
        board = datasets.bundled_snapshots()[2023]
        assert len(board.entries) == 13
        assert board.top(n) == () == rank_teams({e.team: e.rating for e in board.entries}, top_n=n)


class TestBoardLabel:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(1000, 9999), st.dates())
    def test_label_season_reads_back_the_season_of_every_board_label(self, season, cut):
        assert label_season(board_label(season, cut)) == season

    @settings(max_examples=100, deadline=None)
    @given(st.dates(), st.integers(0, 10**6))
    def test_other_labels_name_no_season(self, cut, games_applied):
        assert label_season(snapshot_at([], cut).label) is None  # "as of D"
        assert label_season(f"final ratings after {games_applied} games") is None
        assert label_season(board_label(20231, cut)) is None

    def test_datasets_selection_sunday_is_the_engine_rule(self):
        assert datasets.selection_sunday is selection_sunday


class TestCarryoverPolicy:
    @pytest.mark.parametrize(
        "text,mode,rho",
        [("full", "full", 1.0), ("reset", "reset", 0.0), ("regress:0.5", "regress", 0.5)],
    )
    def test_parse(self, text, mode, rho):
        policy = CarryoverPolicy.parse(text)
        assert policy.mode == mode
        if mode == "regress":
            assert policy.rho == rho

    @pytest.mark.parametrize("text", ["partial", "regress:1.5", "regress:x", ""])
    def test_parse_rejects_bad_values(self, text):
        with pytest.raises(ValueError):
            CarryoverPolicy.parse(text)

    def test_unknown_mode_is_rejected_naming_the_three_modes(self):
        with pytest.raises(ValueError, match=r"one of \('full', 'reset', 'regress'\), got 'bogus'"):
            CarryoverPolicy("bogus")


class TestDefaultCutDate:
    def test_day_after_last_game_of_latest_season(self):
        games = winner_loser_games([("A", "B"), ("B", "C")], start="2023-11-25")
        assert default_cut_date(games) == dt.date(2023, 11, 27)

    def test_explicit_season(self):
        games = winner_loser_games([("A", "B")], season=2022, start="2022-12-03")
        games += winner_loser_games([("A", "B")], season=2023, start="2023-12-02")
        assert default_cut_date(games, season=2022) == dt.date(2022, 12, 4)

    def test_unknown_season_raises(self):
        games = winner_loser_games([("A", "B")])
        with pytest.raises(ValueError):
            default_cut_date(games, season=1999)

    def test_errors_name_what_is_missing(self):
        with pytest.raises(ValueError, match="no games to derive a cut date from"):
            default_cut_date([])
        with pytest.raises(ValueError, match="no games found for season 1999"):
            default_cut_date(winner_loser_games([("A", "B")]), season=1999)


POLICIES = st.one_of(
    st.sampled_from([CarryoverPolicy(), CarryoverPolicy("reset")]),
    st.floats(0.0, 1.0).map(lambda rho: CarryoverPolicy("regress", rho)),
)


@st.composite
def multi_season_games(draw):
    """One to three seasons of games among five teams, in ingest order, with
    many games sharing a date."""
    games = []
    for season in range(2020, 2020 + draw(st.integers(1, 3))):
        for _ in range(draw(st.integers(1, 8))):
            day = dt.date(season, 9, 1) + dt.timedelta(days=draw(st.integers(0, 6)))
            team_a, team_b = draw(st.permutations("ABCDE"))[:2]
            a_wins = draw(st.booleans())
            games.append(Game(season, day, team_a, team_b, int(a_wins), int(not a_wins)))
    return games


@st.composite
def cut_dates(draw, games):
    """Cuts before the first game, on a game date, between seasons, after the
    last game, and a few anywhere around them."""
    dates = sorted({g.date for g in games})
    first, last = dates[0], dates[-1]
    cuts = {first - dt.timedelta(days=1), draw(st.sampled_from(dates)), last + dt.timedelta(days=1)}
    cuts |= {dt.date(g.season + 1, 1, 1) for g in games}
    near = st.dates(first - dt.timedelta(days=3), last + dt.timedelta(days=3))
    return cuts | set(draw(st.lists(near, max_size=3)))


class TestOneArmReplay:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), multi_season_games(), POLICIES)
    def test_cut_boards_equal_replay_of_visible_games(self, data, games, policy):
        cuts = data.draw(cut_dates(games))
        _, boards, _ = replay_arms(games, (CFG,), policy, cuts)[0]
        assert set(boards) == cuts
        assert list(boards) == sorted(cuts)
        for cut in cuts:
            visible = [g for g in games if g.date <= cut]
            assert boards[cut] == replay(visible, CFG, policy).ratings, cut

    @settings(max_examples=60, deadline=None)
    @given(multi_season_games(), POLICIES)
    def test_final_ratings_match_boundary_oracle(self, games, policy):
        state, _, _ = replay_arms(games, (CFG,), policy)[0]
        blocks = [
            [(g.winner, g.loser) for g in block]
            for _, block in itertools.groupby(ordered(games), key=lambda g: g.season)
        ]
        expected = naive_replay_with_boundaries(blocks, mode=policy.mode, rho=policy.rho)
        assert state.ratings.keys() == expected.keys()
        for team, rating in expected.items():
            assert state.ratings[team] == pytest.approx(rating, abs=1e-9), team
        assert state.games_applied == len(games)

    def test_overflow_hidden_by_a_reset_is_caught_on_the_cut_board(self):
        # A's second win overflows in its last game; the 2023 reset hides that
        # from the final ratings, but the board cut between seasons holds it.
        games = [
            game(2022, "2022-09-03", "A", "B", 21, 7),
            game(2022, "2022-09-03", "C", "D", 21, 7),
            game(2022, "2022-09-10", "A", "C", 21, 7),
            game(2023, "2023-09-02", "E", "F", 21, 7),
        ]
        cfg = EloConfig(initial_rating=1e308, k_factor=1.2e308)
        assert all(map(math.isfinite, replay(games, cfg, CarryoverPolicy("reset")).ratings.values()))
        with pytest.raises(RatingOverflowError, match=r"at the cut on 2023-01-01: 'A' is at inf"):
            replay_arms(games, (cfg,), CarryoverPolicy("reset"), [dt.date(2023, 1, 1)])

    def test_overflow_names_the_game_that_read_it(self):
        games = [game(2023, "2023-09-02", "A", "B", 21, 7), game(2023, "2023-09-09", "A", "C", 21, 7)]
        cfg = EloConfig(initial_rating=1.7e308, k_factor=1e308)
        with pytest.raises(RatingOverflowError, match=r"by game 1 on 2023-09-09: 'A' is at inf"):
            replay_arms(games, (cfg,))


def season_blocks(games):
    """Ordered (winner, loser) pairs grouped into season blocks, for the boundary oracle."""
    return [
        [(g.winner, g.loser) for g in block]
        for _, block in itertools.groupby(ordered(games), key=lambda g: g.season)
    ]


class TestSnapshotsAt:
    @settings(max_examples=60, deadline=None)
    @given(st.data(), multi_season_games(), POLICIES, st.none() | st.integers(0, 6))
    def test_each_board_is_a_snapshot_at_its_cut(self, data, games, policy, top_n):
        cuts = {f"cut {i}": cut for i, cut in enumerate(sorted(data.draw(cut_dates(games))))}
        boards = snapshots_at(games, cuts, CFG, policy, top_n)
        assert [(b.label, b.as_of) for b in boards] == list(cuts.items())
        for board, (label, cut) in zip(boards, cuts.items()):
            assert board == snapshot_at(games, cut, CFG, policy, top_n, label)
            visible = [g for g in games if g.date <= cut]
            expected = naive_replay_with_boundaries(season_blocks(visible), mode=policy.mode, rho=policy.rho)
            depth = len(expected) if top_n is None else min(top_n, len(expected))
            assert [e.elo_rank for e in board.entries] == list(range(1, depth + 1)), label
            for entry in board.entries:
                assert entry.rating == pytest.approx(expected[entry.team], abs=1e-9), (label, entry.team)

    def test_no_cuts_no_boards(self):
        assert snapshots_at(winner_loser_games([("A", "B")]), {}) == []

    def test_games_after_the_latest_cut_are_never_folded(self):
        # A season decrease after the last cut would be an ordering error.
        games = winner_loser_games([("A", "B")], season=2023) + [game(2022, "2024-09-01", "C", "D", 1, 0)]
        [board] = snapshots_at(games, {"2023": dt.date(2023, 12, 1)})
        assert [e.team for e in board.entries] == ["A", "B"]
        with pytest.raises(OutOfOrderError):
            replay(games, CFG)

    @settings(max_examples=60, deadline=None)
    @given(multi_season_games())
    def test_default_cuts_agree_with_default_cut_date(self, games):
        cuts = default_cuts(games)
        assert set(cuts) == {g.season for g in games}
        for season, cut in cuts.items():
            assert cut == default_cut_date(games, season)
            assert cut == max(g.date for g in games if g.season == season) + dt.timedelta(days=1)
        assert default_cut_date(games) == cuts[max(cuts)]
