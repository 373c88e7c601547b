import datetime as dt
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfbelo.analysis import (
    SeasonMismatchError,
    compare,
    compare_all,
    emit,
    reference_agreement,
    render_agreement,
    render_comparisons,
    render_report,
    render_sweep,
    selection_stats,
    spearman_rho,
)
from cfbelo.datasets import bundled_selections, bundled_snapshots, sample_games
from cfbelo.engine import Snapshot, rank_teams, snapshot_at
from cfbelo.evaluation import EvalSummary
from cfbelo.ingest import SelectionRecord


def by_season(season):
    return [r for r in bundled_selections() if r.season == season]


def make_snapshot(ratings, season=2023, conferences=None):
    return Snapshot(
        label=f"{season} selection day",
        as_of=dt.date(season, 12, 3),
        entries=rank_teams(ratings, conferences=conferences),
    )


def make_selections(teams, season=2023):
    return [
        SelectionRecord(season, i + 1, team, "Conf", False) for i, team in enumerate(teams)
    ]


class TestCompare:
    def test_2023_board_vs_committee(self):
        report = compare(bundled_snapshots()[2023], by_season(2023))
        assert report.overlap_top4 == 1
        assert report.committee_elo_ranks == {
            "Michigan": 1,
            "Texas": 5,
            "Alabama": 6,
            "Washington": 13,
        }
        assert report.max_committee_elo_rank == 13
        assert report.top4_exact_match is False
        assert report.committee_within_top5 is False
        assert report.spearman_committee == pytest.approx(0.4)

    def test_2021_committee_all_inside_top5(self):
        report = compare(bundled_snapshots()[2021], by_season(2021))
        assert report.committee_within_top5 is True
        assert report.overlap_top4 == 3

    def test_identity_committee_is_exact_match(self):
        snap = make_snapshot({"A": 1900.0, "B": 1800.0, "C": 1700.0, "D": 1600.0, "E": 1500.0})
        report = compare(snap, make_selections(["A", "B", "C", "D"]))
        assert report.overlap_top4 == 4
        assert report.top4_exact_match is True
        assert report.committee_within_top5 is True
        assert report.spearman_committee == pytest.approx(1.0)

    def test_absent_team_reported_not_fatal(self):
        snap = make_snapshot({"A": 1900.0, "B": 1800.0, "C": 1700.0, "D": 1600.0})
        report = compare(snap, make_selections(["A", "B", "C", "Ghost"]))
        assert report.committee_elo_ranks["Ghost"] is None
        assert report.max_committee_elo_rank is None
        assert report.committee_within_top5 is False
        assert report.spearman_committee is None

    def test_season_mismatch_raises(self):
        with pytest.raises(SeasonMismatchError):
            compare(bundled_snapshots()[2022], by_season(2023))

    def test_label_without_a_year_skips_the_mismatch_check(self):
        snap = bundled_snapshots()[2023]
        unlabeled = Snapshot("final board", snap.as_of, snap.entries)
        report = compare(unlabeled, by_season(2023))
        assert report.season == 2023

    def test_january_cut_is_not_read_as_next_season(self):
        # The post-bowl cut of the library flow is labeled "as of 2024-01-05".
        board = snapshot_at(sample_games().games, dt.date(2024, 1, 5))
        report = compare(board, by_season(2023))
        assert report.season == 2023

    def test_needs_exactly_four_records(self):
        with pytest.raises(ValueError):
            compare(bundled_snapshots()[2023], by_season(2023)[:3])

    def test_empty_snapshot_rejected(self):
        empty = Snapshot(label="2023 empty", as_of=dt.date(2023, 12, 3), entries=())
        with pytest.raises(ValueError):
            compare(empty, by_season(2023))

    def test_overlap_matches_brute_force_on_random_instances(self):
        rng = random.Random(37)
        for _ in range(100):
            teams = [f"T{i}" for i in range(rng.randint(4, 12))]
            ratings = {t: rng.uniform(1300, 2400) for t in teams}
            committee = rng.sample(teams, 4)
            snap = make_snapshot(ratings)
            report = compare(snap, make_selections(committee))
            top4 = {e.team for e in snap.entries[:4]}
            assert report.overlap_top4 == len(top4 & set(committee))

    def test_entries_below_deepest_pick_are_irrelevant(self):
        rng = random.Random(41)
        for _ in range(50):
            teams = [f"T{i}" for i in range(12)]
            ratings = {t: rng.uniform(1300, 2400) for t in teams}
            committee = rng.sample(teams, 4)
            snap = make_snapshot(ratings)
            report = compare(snap, make_selections(committee))
            cut = max(4, report.max_committee_elo_rank)
            truncated = Snapshot(snap.label, snap.as_of, snap.entries[:cut])
            assert compare(truncated, make_selections(committee)) == report


class TestCompareAll:
    def test_aggregates_over_published_boards(self):
        reports, agg = compare_all(bundled_snapshots(), bundled_selections())
        assert agg.n_seasons == 10
        assert agg.n_top4_exact == 0
        assert agg.seasons_within_top5 == (2016, 2021)
        assert agg.outside_top_ten == (
            (2020, "Notre Dame", 11),
            (2022, "TCU", 12),
            (2023, "Washington", 13),
        )
        assert agg.elo_one_not_selected == ((2022, "Alabama"),)
        assert [r.season for r in reports] == list(range(2014, 2024))

    def test_missing_snapshot_names_season(self):
        snapshots = dict(bundled_snapshots())
        del snapshots[2019]
        with pytest.raises(ValueError, match="2019"):
            compare_all(snapshots, bundled_selections())


class TestSelectionStats:
    def test_counts_from_bundled_records(self):
        stats = selection_stats(bundled_selections())
        per_team = {t: (s.selections, s.championships) for t, s in stats.per_team.items()}
        assert per_team["Alabama"] == (8, 3)
        assert per_team["Clemson"] == (6, 2)
        assert per_team["Ohio State"] == (5, 1)
        assert per_team["Oklahoma"] == (4, 0)
        assert per_team["Georgia"] == (3, 2)
        assert len(per_team) == 15

    def test_conference_counts_from_bundled_records(self):
        stats = selection_stats(bundled_selections())
        per_conf = {c: (s.selections, s.distinct_teams) for c, s in stats.per_conference.items()}
        assert per_conf["SEC"] == (12, 3)
        assert per_conf["Big Ten"] == (9, 3)
        assert per_conf["ACC"] == (8, 3)
        assert per_conf["Pac-12"] == (3, 2)
        assert per_conf["Independent"] == (1, 1)
        assert per_conf["American"] == (1, 1)
        # Oklahoma, TCU and Texas were all selected as Big 12 members.
        assert per_conf["Big 12"] == (6, 3)

    def test_empty_records_empty_stats(self):
        stats = selection_stats([])
        assert stats.per_team == {}
        assert stats.per_conference == {}

    def test_totals_property_on_random_record_sets(self):
        rng = random.Random(43)
        pool = [(f"T{i}", f"C{i % 5}") for i in range(20)]
        for _ in range(50):
            seasons = rng.randint(1, 12)
            records = []
            for season in range(2000, 2000 + seasons):
                picks = rng.sample(pool, 4)
                champion = rng.randrange(5)  # 4 == no champion that season
                for rank, (team, conf) in enumerate(picks, start=1):
                    records.append(
                        SelectionRecord(season, rank, team, conf, champion == rank - 1)
                    )
            stats = selection_stats(records)
            team_total = sum(s.selections for s in stats.per_team.values())
            conf_total = sum(s.selections for s in stats.per_conference.values())
            assert team_total == conf_total == 4 * seasons
            champs = sum(s.championships for s in stats.per_team.values())
            assert champs == sum(r.won_championship for r in records)


class TestSpearman:
    def test_perfect_agreement(self):
        assert spearman_rho([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_perfect_reversal(self):
        assert spearman_rho([1, 2, 3, 4], [40, 30, 20, 10]) == pytest.approx(-1.0)

    def test_known_middle_value(self):
        # displaced ranks 1,4,2,3 against 1,2,3,4: d^2 sums to 6
        assert spearman_rho([1, 2, 3, 4], [1, 4, 2, 3]) == pytest.approx(0.4)

    @pytest.mark.parametrize("xs,ys", [([1, 2, 3], [1, 2]), ([1], [1])], ids=["unequal", "one-element"])
    def test_needs_two_sequences_of_equal_length_at_least_two(self, xs, ys):
        with pytest.raises(ValueError, match="need two sequences of equal length >= 2"):
            spearman_rho(xs, ys)


class TestRenderReport:
    def test_snapshot_table_mirrors_published_layout(self):
        text = render_report(bundled_snapshots()[2023], "table", selections=by_season(2023))
        lines = text.splitlines()
        assert lines[1].split() == ["Elo", "ranking", "Team", "Conference", "Elo", "rating", "CFP", "ranking"]
        first = lines[3].split()
        assert first == ["1", "Michigan", "Big", "Ten", "2174", "1"]

    def test_empty_snapshot_renders_header_only(self):
        empty = Snapshot(label="empty", as_of=dt.date(2023, 12, 3), entries=())
        text = render_report(empty, "table")
        assert "Elo ranking" in text
        assert len(text.splitlines()) == 3  # label, header, separator

    def test_render_is_deterministic(self):
        snap = bundled_snapshots()[2019]
        for fmt in ("table", "csv", "json"):
            assert render_report(snap, fmt) == render_report(snap, fmt)

    def test_snapshot_json_round_trips(self):
        payload = json.loads(render_report(bundled_snapshots()[2023], "json", by_season(2023)))
        assert payload["entries"][0] == {
            "elo_rank": 1,
            "team": "Michigan",
            "conference": "Big Ten",
            "rating": 2174.0,
            "cfp_rank": 1,
        }
        assert payload["entries"][4]["cfp_rank"] == 3  # Texas

    def test_comparison_render_all_formats(self):
        report = compare(bundled_snapshots()[2023], by_season(2023))
        table = render_comparisons([report], None, "table")
        assert "top-4 overlap: 1 of 4" in table
        csv_text = render_comparisons([report], None, "csv")
        assert csv_text.splitlines()[1].startswith("2023,1,Michigan")
        payload = json.loads(render_comparisons([report], None, "json"))
        assert payload["max_committee_elo_rank"] == 13
        with pytest.raises(TypeError, match="ComparisonReport"):  # the compare document has one writer
            render_report(report, "table")

    def test_stats_render_contains_published_rows(self):
        stats = selection_stats(bundled_selections())
        table = render_report(stats, "table")
        assert "Alabama" in table and "Championships Won" in table
        csv_text = render_report(stats, "csv")
        assert "team,Alabama,8,3," in csv_text
        assert "conference,SEC,12,,3" in csv_text

    def test_eval_summary_renders(self):
        summary = EvalSummary(n_games=10, brier=0.2, log_loss=0.5, accuracy=0.7)
        assert "brier" in render_report(summary, "table")
        payload = json.loads(render_report(summary, "json"))
        assert payload["n_games"] == 10
        assert render_report(summary, "csv").splitlines()[0] == "n_games,brier,log_loss,accuracy"

    def test_sweep_render(self):
        rows = [(5.0, EvalSummary(4, 0.25, 0.69, 0.5)), (25.0, EvalSummary(4, 0.2, 0.6, 0.75))]
        table = render_sweep(rows, "table")
        assert table.splitlines()[0].split() == ["K", "Games", "Brier", "Log", "loss", "Accuracy"]
        assert len(json.loads(render_sweep(rows, "json"))) == 2

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match="format"):
            render_report(bundled_snapshots()[2023], "yaml")

    def test_unknown_object_rejected(self):
        with pytest.raises(TypeError):
            render_report(object(), "table")

    @pytest.mark.parametrize(
        "render",
        [
            lambda: render_report(bundled_snapshots()[2023], "xml", by_season(2023)),
            lambda: render_report(selection_stats(bundled_selections()), "xml"),
            lambda: render_report(EvalSummary(4, 0.25, 0.69, 0.5), "xml"),
            lambda: render_comparisons(*compare_all(bundled_snapshots(), bundled_selections()), "xml"),
            lambda: render_comparisons([compare(bundled_snapshots()[2023], by_season(2023))], None, "xml"),
            lambda: render_comparisons(
                *compare_all(bundled_snapshots(), bundled_selections()), "xml",
                reference_agreement(bundled_snapshots(), bundled_snapshots()),
            ),
            lambda: render_sweep([(5.0, EvalSummary(4, 0.25, 0.69, 0.5))], "xml"),
            lambda: render_agreement(reference_agreement(bundled_snapshots(), bundled_snapshots()), "xml"),
        ],
        ids=["snapshot", "stats", "eval", "comparisons", "one-season", "agreement-section", "sweep", "agreement"],
    )
    def test_every_renderer_rejects_an_unknown_format_alike(self, render):
        with pytest.raises(ValueError) as raised:
            render()
        assert str(raised.value) == "unknown format 'xml' (choose from table, csv, json)"


class TestReferenceAgreement:
    def test_identical_boards_agree_perfectly(self):
        boards = bundled_snapshots()
        entries = reference_agreement(boards, boards)
        assert len(entries) == 10
        assert all(e.kendall_tau == pytest.approx(1.0) for e in entries)
        assert all(e.top4_overlap == 4 for e in entries)
        assert all(e.n_common == e.n_reference for e in entries)

    def test_disjoint_boards_share_nothing(self):
        ours = {2023: make_snapshot({"X": 1600.0, "Y": 1500.0})}
        entries = reference_agreement(ours, bundled_snapshots())
        assert entries[0].n_common == 0
        assert entries[0].kendall_tau is None


# Strings a JSON encoder must escape or keep verbatim: newlines, quotes, text
# that looks like a record boundary, and non-ASCII text.
AWKWARD_TEXT = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["\n", '"', "\\", "},\n    {", '"},\n    {"', "é", "日本", " "]),
)
SCALARS = st.one_of(
    AWKWARD_TEXT,
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.none(),
)


class TestJsonEmitter:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.dictionaries(AWKWARD_TEXT, SCALARS, min_size=1, max_size=6), max_size=8))
    def test_json_emit_equals_indented_dumps(self, rows):
        assert emit(rows, "json") == json.dumps(rows, indent=2) + "\n"

    def test_empty_row_list(self):
        assert emit([], "json") == json.dumps([], indent=2) + "\n"

    def test_single_season_document_needs_exactly_one_report(self):
        reports, _ = compare_all(bundled_snapshots(), bundled_selections())
        with pytest.raises(ValueError, match="one season"):
            render_comparisons(reports[:2], None, "json")
        # The document's shape is checked before its format.
        with pytest.raises(ValueError, match="one season"):
            render_comparisons(reports[:2], None, "xml")
