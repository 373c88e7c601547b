import datetime as dt
import json

import pytest

from cfbelo import datasets, ingest
from cfbelo.datasets import (
    bundled_aliases,
    bundled_conferences,
    bundled_selections,
    bundled_snapshots,
    sample_games,
    selection_sunday,
)
from cfbelo.ingest import load_aliases


class TestBundledSnapshots:
    def test_one_board_per_cfp_season(self):
        assert sorted(bundled_snapshots()) == list(range(2014, 2024))

    def test_ranks_contiguous_and_sorted_by_rating(self):
        for season, snap in bundled_snapshots().items():
            assert [e.elo_rank for e in snap.entries] == list(range(1, len(snap.entries) + 1))
            ratings = [e.rating for e in snap.entries]
            assert ratings == sorted(ratings, reverse=True), season

    def test_2023_board_top_four(self):
        top4 = [(e.team, e.rating) for e in bundled_snapshots()[2023].top(4)]
        assert top4 == [
            ("Michigan", 2174.0),
            ("Georgia", 2111.0),
            ("Ohio State", 2108.0),
            ("Penn State", 2061.0),
        ]

    def test_2022_board_led_by_alabama(self):
        leader = bundled_snapshots()[2022].entries[0]
        assert (leader.team, leader.conference, leader.rating) == ("Alabama", "SEC", 2151.0)

    def test_board_depths_match_source(self):
        depths = {s: len(snap.entries) for s, snap in bundled_snapshots().items()}
        assert depths == {
            2014: 10, 2015: 10, 2016: 10, 2017: 10, 2018: 10,
            2019: 10, 2020: 11, 2021: 10, 2022: 12, 2023: 13,
        }

    def test_misspelled_cincinnati_canonicalized(self):
        board_2021 = bundled_snapshots()[2021]
        assert board_2021.rank_of("Cincinnati") == 5
        assert board_2021.rank_of("Cincinatti") is None


class TestBundledSelections:
    def test_four_per_season_forty_total(self):
        records = bundled_selections()
        assert len(records) == 40
        for season in range(2014, 2024):
            group = [r for r in records if r.season == season]
            assert sorted(r.committee_rank for r in group) == [1, 2, 3, 4]

    def test_nine_championships_none_in_2023(self):
        records = bundled_selections()
        champs = [r for r in records if r.won_championship]
        assert len(champs) == 9
        assert all(r.season != 2023 for r in champs)

    def test_notre_dame_conference_changes_by_season(self):
        records = {(r.season, r.team): r for r in bundled_selections()}
        assert records[(2018, "Notre Dame")].conference == "Independent"
        assert records[(2020, "Notre Dame")].conference == "ACC"


class TestSelectionSunday:
    @pytest.mark.parametrize(
        "season,expected",
        [
            (2014, dt.date(2014, 12, 7)),
            (2021, dt.date(2021, 12, 5)),
            (2022, dt.date(2022, 12, 4)),
            (2023, dt.date(2023, 12, 3)),
        ],
    )
    def test_first_sunday_of_december(self, season, expected):
        assert selection_sunday(season) == expected


class TestAliasesAndConferences:
    def test_alias_loader_validates_shape(self):
        assert load_aliases('{"Ohio St.": "Ohio State"}') == {"Ohio St.": "Ohio State"}
        with pytest.raises(ValueError):
            load_aliases('["not", "a", "mapping"]')
        with pytest.raises(ValueError):
            load_aliases('{"a": 1}')

    def test_bundled_boards_build_one_alias_table(self, monkeypatch):
        built = []
        resolve = ingest._ResolvedDirectory.__init__
        monkeypatch.setattr(
            ingest._ResolvedDirectory, "__init__", lambda self, d: built.append(1) or resolve(self, d)
        )
        bundled_aliases.cache_clear()
        bundled_snapshots.cache_clear()
        try:
            bundled_snapshots()
        finally:
            bundled_aliases.cache_clear()
            bundled_snapshots.cache_clear()
        assert len(built) <= 1

    def test_bundled_aliases_equal_the_raw_directory(self):
        assert bundled_aliases() == json.loads(datasets._read(datasets.ALIASES_RESOURCE))

    def test_conference_map_covers_board_teams(self):
        conferences = bundled_conferences()
        for snap in bundled_snapshots().values():
            for entry in snap.entries:
                assert entry.team in conferences


class TestSampleGames:
    def test_parses_clean(self):
        parsed = sample_games()
        assert len(parsed.games) == 318
        assert parsed.rejected == []
        assert parsed.warnings == []

    def test_covers_three_seasons_ending_at_championships(self):
        games = sample_games().games
        assert {g.season for g in games} == {2021, 2022, 2023}
        last_2023 = max(g.date for g in games if g.season == 2023)
        assert last_2023 == dt.date(2023, 12, 2)  # championship Saturday

    def test_all_committee_teams_present(self):
        teams = {g.team_a for g in sample_games().games} | {
            g.team_b for g in sample_games().games
        }
        for record in bundled_selections():
            if record.season >= 2021:
                assert record.team in teams
