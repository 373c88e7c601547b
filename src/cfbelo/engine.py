"""Season replay and calendar: fold games through the Elo update, snapshot at cut dates.

Replay is order-sensitive and therefore sequential. Every replay in the
package is one pass of `replay_arms`, which advances one ratings dict per
config through that config's `elo.kernel`; the state objects it returns are
values that share nothing with the fold.
"""

from __future__ import annotations

import datetime as dt
import math
import re
from array import array
from operator import attrgetter
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .elo import EloConfig, kernel

UNKNOWN_CONFERENCE = "Unknown"


class InvalidGameError(ValueError):
    """A game that cannot exist: self-play, negative score, and the like."""


class TiedScoreError(InvalidGameError):
    """Equal scores. The rating model assumes every game has a winner."""


class OutOfOrderError(ValueError):
    """A season decreases along the date order of the games."""


class RatingOverflowError(ValueError):
    """A rating overflowed: K or the initial rating is too large for a double."""


@dataclass(frozen=True, slots=True)
class Game:
    """One completed head-to-head contest."""

    season: int
    date: dt.date
    team_a: str
    team_b: str
    score_a: int
    score_b: int
    neutral_site: bool = False

    def __post_init__(self) -> None:
        if self.team_a == self.team_b:
            raise InvalidGameError(f"{self.date}: {self.team_a!r} cannot play itself")
        if self.score_a < 0 or self.score_b < 0:
            raise InvalidGameError(f"{self.date}: scores must be non-negative")
        if self.score_a == self.score_b:
            raise TiedScoreError(
                f"{self.date}: {self.team_a} vs {self.team_b} ended {self.score_a}-{self.score_b}"
            )

    @property
    def winner(self) -> str:
        return self.team_a if self.score_a > self.score_b else self.team_b

    @property
    def loser(self) -> str:
        return self.team_b if self.score_a > self.score_b else self.team_a


@dataclass(frozen=True)
class RatingState:
    """All teams' current ratings plus how far the replay has advanced."""

    ratings: dict[str, float]
    games_applied: int
    last_date: dt.date | None


@dataclass(frozen=True)
class CarryoverPolicy:
    """What happens to ratings at a season boundary.

    mode "full" keeps ratings, "reset" returns every team to the initial
    rating, "regress" blends toward it: r -> initial + rho * (r - initial).
    """

    mode: str = "full"
    rho: float = 1.0

    _MODES = ("full", "reset", "regress")

    def __post_init__(self) -> None:
        if self.mode not in self._MODES:
            raise ValueError(f"carryover mode must be one of {self._MODES}, got {self.mode!r}")
        if self.mode == "regress" and not (0.0 <= self.rho <= 1.0):
            raise ValueError(f"regress rho must be within [0, 1], got {self.rho}")

    @classmethod
    def parse(cls, text: str) -> "CarryoverPolicy":
        """Parse the CLI spelling: "full", "reset", or "regress:RHO"."""
        if text in ("full", "reset"):
            return cls(text)
        if text.startswith("regress:"):
            try:
                rho = float(text.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad regress factor in {text!r}") from None
            return cls("regress", rho)
        raise ValueError(f"unknown carryover policy {text!r} (use full, reset, or regress:RHO)")

    def apply(self, ratings: dict[str, float], initial: float) -> dict[str, float]:
        if self.mode == "full":
            return dict(ratings)
        if self.mode == "reset":
            return {team: initial for team in ratings}
        return {team: initial + self.rho * (r - initial) for team, r in ratings.items()}


@dataclass(frozen=True)
class SnapshotEntry:
    elo_rank: int
    team: str
    conference: str
    rating: float


@dataclass(frozen=True)
class Snapshot:
    """Frozen ranked list of (team, rating) at a named cut date."""

    label: str
    as_of: dt.date
    entries: tuple[SnapshotEntry, ...]

    def rank_of(self, team: str) -> int | None:
        for entry in self.entries:
            if entry.team == team:
                return entry.elo_rank
        return None

    def top(self, n: int) -> tuple[SnapshotEntry, ...]:
        return self.entries[: max(n, 0)]


def ordered(games: Iterable[Game]) -> list[Game]:
    """Stable sort by date; same-day games keep their ingest sequence."""
    return sorted(games, key=attrgetter("date"))


def replay_arms(
    games: Iterable[Game],
    cfgs: Sequence[EloConfig],
    policy: CarryoverPolicy = CarryoverPolicy(),
    cuts: Iterable[dt.date] = (),
    window: tuple[float, float] | None = None,
) -> list[tuple[RatingState, dict[dt.date, dict[str, float]], array]]:
    """The one replay fold: order the games once and, on each game, update one
    private ratings dict per config (an arm) through that arm's `kernel`.

    The carryover policy fires when the season field increases; boundaries are
    never inferred from date gaps. A season decrease along the date order is
    an ordering error.

    Returns, per arm, the final state; per cut date, a copy of the ratings
    after the games dated on or before it, before any later season's
    carryover; and, for each game whose season lies inside the inclusive
    `window` (none without one), the winner's pre-game win probability
    `win_probability(r_winner, r_loser, cfg)`, in replay order, in an `array("d")`. Raises
    RatingOverflowError, naming the game, once any arm's rating is not finite.
    """
    games = ordered(games)
    arms = [({}, {}, array("d")) for _ in cfgs]
    plays = [(kernel(cfg, ratings), p_winners.append) for cfg, (ratings, _, p_winners) in zip(cfgs, arms)]
    first, last = window or (math.inf, -math.inf)
    pending = sorted(set(cuts), reverse=True)
    season = games[0].season if games else 0
    scored = first <= season <= last
    try:
        for index, game in enumerate(games):
            while pending and pending[-1] < game.date:
                cut = pending.pop()
                for ratings, boards, _ in arms:
                    boards[cut] = dict(ratings)
            if game.season != season:
                if game.season < season:
                    raise OutOfOrderError(f"game {index}: season {game.season} follows season {season}")
                for (ratings, _, _), cfg in zip(arms, cfgs):
                    ratings.update(policy.apply(ratings, cfg.initial_rating))
                season = game.season
                scored = first <= season <= last
            a, b, a_won = game.team_a, game.team_b, game.score_a > game.score_b
            for play, append in plays:
                p_winner = play(a, b, a_won, scored)
                if scored:
                    append(p_winner)
    except ValueError:  # a kernel refuses a rating that is no longer finite
        for ratings, *_ in arms:
            _require_finite(ratings, f"by game {index} on {games[index].date}")
        raise
    last_date = games[-1].date if games else None
    for ratings, boards, _ in arms:
        for cut in reversed(pending):
            boards[cut] = dict(ratings)
        # An overflow in a team's last game is never read by a kernel.
        _require_finite(ratings, f"after game {len(games) - 1} on {last_date}")
        for cut, board in boards.items():
            _require_finite(board, f"at the cut on {cut}")
    return [(RatingState(ratings, len(games), last_date), boards, p) for ratings, boards, p in arms]


def _require_finite(ratings: Mapping[str, float], where: str) -> None:
    if not all(map(math.isfinite, ratings.values())):
        team = next(t for t, r in ratings.items() if not math.isfinite(r))
        raise RatingOverflowError(f"rating overflow {where}: {team!r} is at {ratings[team]}")


def replay(
    games: Sequence[Game],
    cfg: EloConfig = EloConfig(),
    policy: CarryoverPolicy = CarryoverPolicy(),
) -> RatingState:
    """Fold every game in date order, handling season boundaries."""
    return replay_arms(games, (cfg,), policy)[0][0]


def rank_teams(
    ratings: Mapping[str, float],
    top_n: int | None = None,
    conferences: Mapping[str, str] | None = None,
) -> tuple[SnapshotEntry, ...]:
    """Rank teams by rating descending; equal ratings order by team name."""
    conferences = conferences or {}
    board = sorted(ratings.items(), key=lambda item: (-item[1], item[0]))
    if top_n is not None:
        board = board[: max(top_n, 0)]
    return tuple(
        SnapshotEntry(
            elo_rank=i + 1,
            team=team,
            conference=conferences.get(team, UNKNOWN_CONFERENCE),
            rating=rating,
        )
        for i, (team, rating) in enumerate(board)
    )


def snapshot_at(
    games: Sequence[Game],
    as_of: dt.date,
    cfg: EloConfig = EloConfig(),
    policy: CarryoverPolicy = CarryoverPolicy(),
    top_n: int | None = None,
    label: str | None = None,
    conferences: Mapping[str, str] | None = None,
) -> Snapshot:
    """The one-cut case of `snapshots_at`, labeled "as of DATE" unless given a label.

    A cut before the first game yields an empty snapshot; a top_n beyond the
    team count returns everyone.
    """
    label = label if label is not None else f"as of {as_of.isoformat()}"
    return snapshots_at(games, {label: as_of}, cfg, policy, top_n, conferences)[0]


def snapshots_at(
    games: Iterable[Game],
    cuts: Mapping[str, dt.date],
    cfg: EloConfig = EloConfig(),
    policy: CarryoverPolicy = CarryoverPolicy(),
    top_n: int | None = None,
    conferences: Mapping[str, str] | None = None,
) -> list[Snapshot]:
    """The ranked board at each cut, labeled by its key, in the order of `cuts`.

    One fold over the games dated on or before the latest cut yields every
    board, so a board never sees games after its cut and later games cannot
    add an ordering error.
    """
    last_cut = max(cuts.values(), default=dt.date.min)
    _, boards, _ = replay_arms([g for g in games if g.date <= last_cut], (cfg,), policy, cuts.values())[0]
    return [
        Snapshot(label, cut, rank_teams(boards[cut], top_n=top_n, conferences=conferences))
        for label, cut in cuts.items()
    ]


def default_cuts(games: Iterable[Game]) -> dict[int, dt.date]:
    """The day after each season's last game, keyed by the season field.

    With a games file that ends each season at the conference championships,
    this is selection day. Files that include postseason games need an
    explicit cut date instead.
    """
    ends: dict[int, dt.date] = {}
    for game in games:
        if game.season not in ends or game.date > ends[game.season]:
            ends[game.season] = game.date
    return {season: end + dt.timedelta(days=1) for season, end in ends.items()}


def default_cut_date(games: Sequence[Game], season: int | None = None) -> dt.date:
    """The default cut of `season` (the latest season if None)."""
    cuts = default_cuts(games)
    if not cuts:
        raise ValueError("no games to derive a cut date from")
    if season is None:
        season = max(cuts)
    if season not in cuts:
        raise ValueError(f"no games found for season {season}")
    return cuts[season]


# Season calendar: every rule that ties a date to a season, and the board label.
def season_window(season: int) -> tuple[dt.date, dt.date] | None:
    # College seasons run August through the following January.
    try:
        return dt.date(season, 8, 1), dt.date(season + 1, 1, 31)
    except (ValueError, OverflowError):  # no calendar date in that year
        return None


def board_season(date: dt.date) -> int:
    # January games belong to the previous calendar year's season.
    return date.year if date.month >= 6 else date.year - 1


def selection_sunday(season: int) -> dt.date:
    """Nominal selection day: the first Sunday of December. The four teams were
    announced later in 2019 (December 8, against December 1 here) and 2020
    (December 20, against December 6)."""
    first = dt.date(season, 12, 1)
    return first + dt.timedelta(days=(6 - first.weekday()) % 7)


def board_label(season: int, cut: dt.date) -> str:
    return f"{season} board as of {cut.isoformat()}"


def label_season(label: str) -> int | None:
    # Only a leading year names the season: "as of 2024-01-05" names none, as a
    # January cut belongs to the season before.
    match = re.match(r"[0-9]{4}(?=\s|$)", label)
    return int(match.group()) if match else None
