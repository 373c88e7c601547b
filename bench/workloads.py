"""Seeded workload generator for the cfbelo benchmark.

A workload is a set of generated input files plus the CLI invocations (ops)
the benchmark runs on them. The same (workload, seed) always gives the same
bytes, and every seed gives the same shape: team count, games per season,
seasons, and the count of each injected bad-row reason code. Only the
schedule, the results and the positions of injected rows depend on the seed.

    python3 bench/workloads.py --workload export-season --seed 7 --out DIR

writes the workload's files into DIR. The benchmark calls `generate` again
in process when it needs the ground truth (the accepted games in replay
order and the expected reject counts) to check outputs against.
"""

from __future__ import annotations

import argparse
import csv
import datetime as dt
import io
import json
import random
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from cfbelo import datasets  # noqa: E402

SEASONS = tuple(range(2014, 2024))
WEEKS_PER_SEASON = 14
HEADER = ["season", "date", "week", "home_team", "away_team", "home_points", "away_points", "neutral_site"]

# Why each workload exists:
# - export-season: a full all-division export (most names unknown to the
#   alias directory) with injected bad rows and alias spellings, run through
#   ingest and every replay-based command. Exercises parse and render on the
#   ingest ops (no replay), and the replay fold, the selection-day cuts,
#   backtest, sweep and the warning flood at full scale.
# - fbs-clean: an FBS-sized file whose names all resolve through a
#   benchmark-owned alias file, so no warnings. Per-op fixed costs dominate.
SHAPES = {
    "export-season": {"n_teams": 715, "games_per_week": 250, "bad_rows": 20, "self_aliases": False},
    "fbs-clean": {"n_teams": 130, "games_per_week": 57, "bad_rows": 0, "self_aliases": True},
}

# Row-level reject reason codes of cfbelo.ingest; each gets `bad_rows`
# injected rows in export-season. bad_header is file-level and aborts the
# file, so it has its own tests rather than a row here.
REASONS = (
    "field_count",
    "bad_season",
    "bad_date",
    "bad_week",
    "bad_points",
    "bad_neutral",
    "empty_team",
    "self_play",
    "tie",
    "duplicate",
    "date_out_of_season",
)

_PLACES = (
    "Alder", "Aspen", "Birch", "Bramble", "Briar", "Cedar", "Copper", "Cypress",
    "Elm", "Fern", "Flint", "Granite", "Hawthorn", "Hazel", "Heron", "Hickory",
    "Juniper", "Larch", "Laurel", "Linden", "Magnolia", "Maple", "Marble", "Meadow",
    "Osprey", "Pine", "Quarry", "Raven", "Redwood", "Rowan", "Sable", "Slate",
    "Spruce", "Sycamore", "Thistle", "Willow",
)
_KINDS = (
    "State", "Tech", "College", "A&M", "University", "Institute", "Poly",
    "Christian", "Baptist", "Methodist", "Wesleyan", "Lutheran", "Mines",
    "Maritime", "Central", "Northern", "Southern", "Eastern", "Western", "Valley",
)


@dataclass(frozen=True)
class Op:
    """One CLI invocation: a metric name and cfbelo argv."""

    name: str
    argv: tuple[str, ...]


@dataclass(frozen=True)
class TruthGame:
    season: int
    week: int
    date: dt.date
    home: str
    away: str
    home_points: int
    away_points: int
    neutral: bool

    @property
    def winner(self) -> str:
        return self.home if self.home_points > self.away_points else self.away

    @property
    def loser(self) -> str:
        return self.away if self.home_points > self.away_points else self.home


@dataclass
class Workload:
    name: str
    files: dict[str, bytes]
    games: list[TruthGame]
    teams: list[str]
    expected_rejects: dict[str, int] = field(default_factory=dict)

    def write(self, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        for name, data in self.files.items():
            (workdir / name).write_bytes(data)


# Probe name -> (file, exit code the README promises). ROADMAP item 4,
# defects 1 and 2: a season-99999 row must be rejected (exit 0), and a
# non-UTF-8 file is bad input (exit 1).
_PROBES = {
    "probe_season_99999": ("probe_season.csv", 0),
    "probe_non_utf8": ("probe_encoding.csv", 1),
}


def workload_ops(name: str, workdir: Path) -> list[Op]:
    """The timed ops of workload `name`, in the order one pass runs them."""
    games = str(workdir / "games.csv")
    ops = []
    if name == "export-season":
        ops.append(Op("ingest_csv", ("ingest", "--games", games, "--format", "csv")))
        ops.append(Op("ingest_json", ("ingest", "--games", games, "--format", "json")))
    src = ("--games", games)
    if SHAPES[name]["self_aliases"]:
        src += ("--aliases", str(workdir / "aliases.json"))
    ops.append(Op("rate", ("rate",) + src + ("--format", "json")))
    if name == "fbs-clean":
        ops.append(Op("snapshot", ("snapshot",) + src + ("--season", "2023", "--top-n", "25", "--format", "json")))
    ops.append(Op("compare", ("compare",) + src + ("--format", "json")))
    ops.append(Op("agreement", ("compare",) + src + ("--agreement-report", "--format", "json")))
    window = ("--eval-window", "2019..2023") if name == "export-season" else ()
    ops.append(Op("backtest", ("backtest",) + src + window + ("--format", "json")))
    ops.append(Op("sweep", ("sweep",) + src + ("--format", "json")))
    return ops


def probe_ops(name: str, workdir: Path) -> list[tuple[Op, int]]:
    """Untimed defect probes of workload `name`, each with the exit code the
    README promises for it."""
    if name != "export-season":
        return []
    return [
        (Op(probe, ("ingest", "--games", str(workdir / fname), "--format", "csv")), code)
        for probe, (fname, code) in sorted(_PROBES.items())
    ]


def real_team_names() -> list[str]:
    """Canonical names of every team on a bundled board or selection list,
    plus every canonical target of the bundled alias directory."""
    names = {r.team for r in datasets.bundled_selections()}
    for snap in datasets.bundled_snapshots().values():
        names.update(e.team for e in snap.entries)
    names.update(datasets.bundled_aliases().values())
    return sorted(names)


def _fake_names(count: int, taken: set[str]) -> list[str]:
    out = []
    for kind in _KINDS:
        for place in _PLACES:
            name = f"{place} {kind}"
            if name.casefold() not in taken:
                out.append(name)
    if len(out) < count:
        raise ValueError(f"only {len(out)} synthetic names available, need {count}")
    return out[:count]


def _saturdays(season: int) -> list[dt.date]:
    # The last Saturday is the day before selection Sunday (conference
    # championship day), so each season's default cut is selection Sunday.
    last = datasets.selection_sunday(season) - dt.timedelta(days=1)
    return [last - dt.timedelta(weeks=WEEKS_PER_SEASON - 1 - i) for i in range(WEEKS_PER_SEASON)]


def _schedule(rng: random.Random, teams: list[str], strength: dict[str, float], games_per_week: int) -> list[TruthGame]:
    games: list[TruthGame] = []
    for season in SEASONS:
        for week, saturday in enumerate(_saturdays(season)):
            pool = teams[:]
            rng.shuffle(pool)
            week_games = []
            for i in range(games_per_week):
                home, away = pool[2 * i], pool[2 * i + 1]
                neutral = rng.random() < 0.05
                edge = strength[home] - strength[away] + (0.0 if neutral else 55.0)
                home_wins = rng.random() < 1.0 / (1.0 + 10.0 ** (-edge / 400.0))
                loser = rng.randrange(0, 36)
                winner = loser + rng.randrange(1, 36)
                # Some games move to Thursday/Friday, except in the final week.
                shift = 0 if week == WEEKS_PER_SEASON - 1 else rng.choice((0, 0, 0, 0, 0, 0, 0, 0, 1, 2))
                week_games.append(
                    TruthGame(
                        season=season,
                        week=week + 1,
                        date=saturday - dt.timedelta(days=shift),
                        home=home,
                        away=away,
                        home_points=winner if home_wins else loser,
                        away_points=loser if home_wins else winner,
                        neutral=neutral,
                    )
                )
            week_games.sort(key=lambda g: g.date)  # stable: keeps draw order within a day
            games.extend(week_games)
    return games


def _row(g: TruthGame, home: str | None = None, away: str | None = None) -> list[str]:
    return [
        str(g.season),
        g.date.isoformat(),
        str(g.week),
        g.home if home is None else home,
        g.away if away is None else away,
        str(g.home_points),
        str(g.away_points),
        "true" if g.neutral else "false",
    ]


def _bad_row(reason: str, g: TruthGame) -> list[str]:
    """A row derived from a valid game that ingest rejects with exactly `reason`."""
    row = _row(g)
    if reason == "field_count":
        return row[:-1]
    if reason == "bad_season":
        row[0] = row[0][:2] + "l" + row[0][3:]
    elif reason == "bad_date":
        row[1] = g.date.strftime("%m/%d/%Y")
    elif reason == "bad_week":
        row[2] = f"wk{g.week}"
    elif reason == "bad_points":
        row[5] = "forfeit"
    elif reason == "bad_neutral":
        row[7] = "maybe"
    elif reason == "empty_team":
        row[4] = " "
    elif reason == "self_play":
        row[4] = row[3]
    elif reason == "tie":
        row[6] = row[5]
    elif reason == "date_out_of_season":
        row[1] = dt.date(g.season, 6, 15).isoformat()
    else:
        raise ValueError(reason)
    return row


def _spellings(real: list[str]) -> dict[str, list[str]]:
    """Alternative raw spellings per canonical name that the bundled alias
    directory resolves: its own aliases plus case and spacing variants."""
    out: dict[str, list[str]] = {}
    for alias, canonical in datasets.bundled_aliases().items():
        if alias != canonical:
            out.setdefault(canonical, []).append(alias)
    for name in real:
        out.setdefault(name, []).extend([name.upper(), "  " + name.replace(" ", "   ") + " "])
    return out


def _csv_bytes(rows: list[list[str]]) -> bytes:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(HEADER)
    writer.writerows(rows)
    return buf.getvalue().encode("utf-8")


def generate(name: str, seed: int) -> Workload:
    """Build workload `name` from `seed`; deterministic in both."""
    shape = SHAPES[name]
    rng = random.Random(f"cfbelo-bench:{name}:{seed}")
    real = real_team_names()
    if shape["n_teams"] < len(real) or 2 * shape["games_per_week"] > shape["n_teams"]:
        raise ValueError(f"inconsistent shape for {name}")
    taken = {n.casefold() for n in real} | {a.casefold() for a in datasets.bundled_aliases()}
    teams = real + _fake_names(shape["n_teams"] - len(real), taken)
    # Real names get the strongest hidden strengths so the replayed boards
    # put committee picks near the top, as on real data.
    strength = {t: 1850.0 + 250.0 * rng.random() for t in real}
    strength.update({t: rng.gauss(1450.0, 160.0) for t in teams[len(real):]})
    games = _schedule(rng, teams, strength, shape["games_per_week"])

    rows: list[list[str]] = []
    expected_rejects: dict[str, int] = {}
    if shape["bad_rows"]:
        spell = _spellings(real)
        n_bad = shape["bad_rows"]
        # Positions (index of the valid game a bad row follows) per reason.
        plan: dict[int, list[str]] = {}
        for reason in REASONS:
            for idx in rng.sample(range(len(games)), n_bad):
                plan.setdefault(idx, []).append(reason)
            expected_rejects[reason] = n_bad
        for idx, g in enumerate(games):
            home = rng.choice(spell[g.home]) if g.home in spell and rng.random() < 0.5 else None
            away = rng.choice(spell[g.away]) if g.away in spell and rng.random() < 0.5 else None
            rows.append(_row(g, home, away))
            for reason in plan.get(idx, ()):
                if reason == "duplicate":
                    # Same pairing, same date, swapped orientation: a second
                    # copy of the game just accepted.
                    row = _row(g, g.away, g.home)
                    row[5], row[6] = row[6], row[5]
                    rows.append(row)
                else:
                    rows.append(_bad_row(reason, g))
    else:
        rows = [_row(g) for g in games]

    files = {"games.csv": _csv_bytes(rows)}
    if shape["self_aliases"]:
        files["aliases.json"] = (json.dumps({t: t for t in teams}, indent=2, sort_keys=True) + "\n").encode("utf-8")
    if name == "export-season":
        head = [_row(g) for g in games[:3]]
        bad = _row(games[3])
        bad[0] = "99999"
        files["probe_season.csv"] = _csv_bytes(head + [bad])
        # A Latin-1 byte in a team name; the rest of the file is valid.
        files["probe_encoding.csv"] = _csv_bytes(head) + b"2014,2014-09-06,1,Caf\xe9 State,Alder State,21,14,false\n"
    return Workload(
        name=name,
        files=files,
        games=games,
        teams=teams,
        expected_rejects=expected_rejects,
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SHAPES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory to write the files into")
    args = parser.parse_args(argv)
    generate(args.workload, args.seed).write(Path(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
