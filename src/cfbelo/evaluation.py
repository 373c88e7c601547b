"""Backtesting of predictive quality, K sweeps, and a synthetic league
generator with known ground-truth strengths for recovery checks."""

from __future__ import annotations

import datetime as dt
import math
import random
from dataclasses import dataclass, replace
from typing import Sequence

from .elo import EloConfig, win_probability
from .engine import CarryoverPolicy, Game, ordered, replay_arms

LOG_CLAMP = 1e-12


@dataclass(frozen=True, slots=True)
class PredictionRecord:
    """Pre-game win probability assigned to the team that went on to win."""

    game: Game
    p_winner_pregame: float


@dataclass(frozen=True)
class EvalSummary:
    n_games: int
    brier: float
    log_loss: float
    accuracy: float


@dataclass(frozen=True)
class SyntheticLeague:
    games: list[Game]
    strengths: dict[str, float]


def prediction_records(
    games: Sequence[Game],
    cfg: EloConfig = EloConfig(),
    policy: CarryoverPolicy = CarryoverPolicy(),
    eval_window: tuple[int, int] | None = None,
) -> list[PredictionRecord]:
    """Replay every game, recording the winner's pre-update win probability
    for games whose season falls inside the inclusive eval window.

    Predictions are always made before the game's outcome touches the
    ratings, so truncating later seasons cannot change earlier records.
    """
    first, last = window = eval_window or (-math.inf, math.inf)
    scored = [g for g in ordered(games) if first <= g.season <= last]
    return list(map(PredictionRecord, scored, replay_arms(games, (cfg,), policy, window=window)[0][2]))


def summarize(records: Sequence[PredictionRecord]) -> EvalSummary:
    """Brier score, log loss, and accuracy over prediction records.

    Each record's realized outcome is "the winner won", so per game the Brier
    term is (1 - p)^2 and the log-loss term is -ln(p) with p clamped away
    from 0 and 1. A coin-flip p of exactly 0.5 earns half an accuracy point.
    """
    return _summary([r.p_winner_pregame for r in records])


def _summary(p_winners: Sequence[float], eval_window: tuple[int, int] | None = None) -> EvalSummary:
    """`summarize` over a list or array of winner probabilities; empty under `eval_window`, no season matched."""
    if not p_winners:
        raise ValueError("no predictions to summarize" if eval_window is None else
                         f"eval window {eval_window[0]}..{eval_window[1]} matches no season in the data")
    n = len(p_winners)
    log, high = math.log, 1.0 - LOG_CLAMP
    # Plain left-to-right sums: from Python 3.12 on, sum() compensates float
    # rounding, which would change the printed digits between versions.
    brier = log_loss = 0.0
    for p in p_winners:
        brier += (1.0 - p) ** 2
        log_loss -= log(LOG_CLAMP if p < LOG_CLAMP else high if p > high else p)
    # Whole and half points are exact in a float, so the order does not matter.
    hits = sum(map(0.5.__lt__, p_winners)) + 0.5 * p_winners.count(0.5)
    return EvalSummary(n_games=n, brier=brier / n, log_loss=log_loss / n, accuracy=hits / n)


def backtest(
    games: Sequence[Game],
    cfg: EloConfig = EloConfig(),
    policy: CarryoverPolicy = CarryoverPolicy(),
    eval_window: tuple[int, int] | None = None,
) -> EvalSummary:
    """Replay the stream and score predictions inside the eval window."""
    window = eval_window or (-math.inf, math.inf)
    return _summary(replay_arms(games, (cfg,), policy, window=window)[0][2], eval_window)


def sweep_k(
    games: Sequence[Game],
    k_values: Sequence[float],
    policy: CarryoverPolicy = CarryoverPolicy(),
    eval_window: tuple[int, int] | None = None,
    base_cfg: EloConfig = EloConfig(),
) -> list[tuple[float, EvalSummary]]:
    """Independent backtests over the same game stream, one per K value, all
    advanced in one replay and returned in the order the K values were given."""
    cfgs = [replace(base_cfg, k_factor=k) for k in k_values]
    arms = replay_arms(games, cfgs, policy, window=eval_window or (-math.inf, math.inf))
    return [(k, _summary(p_winners, eval_window)) for k, (_, _, p_winners) in zip(k_values, arms)]


def simulate_league(
    n_teams: int,
    n_rounds: int,
    strength_spread: float,
    seed: int,
    season: int = 2000,
) -> SyntheticLeague:
    """Round-robin league with hidden strengths and logistic outcomes.

    Strengths are evenly spaced across the spread, centered on the default
    initial rating. Each round plays every pairing once in a shuffled order,
    and each winner is drawn with the default model's logistic win
    probability, applied to the true strengths. Same seed, same league.
    """
    if n_teams < 2:
        raise ValueError("need at least 2 teams")
    if n_rounds < 1:
        raise ValueError("need at least 1 round")
    rng = random.Random(seed)
    teams = [f"Team {i + 1:02d}" for i in range(n_teams)]
    lo = EloConfig().initial_rating - strength_spread / 2.0
    step = strength_spread / (n_teams - 1)
    strengths = {team: lo + i * step for i, team in enumerate(teams)}

    pairings = [(a, b) for i, a in enumerate(teams) for b in teams[i + 1 :]]
    # Strengths never change, so each pairing's odds are worked out once.
    odds = {(a, b): win_probability(strengths[a], strengths[b]) for a, b in pairings}
    start = dt.date(season, 9, 1)
    # Rounds spread across September..December so dates stay inside a
    # plausible season window however many rounds are asked for.
    last_offset = 120
    games: list[Game] = []
    for round_no in range(n_rounds):
        offset = (round_no * last_offset) // max(n_rounds - 1, 1)
        date = start + dt.timedelta(days=offset)
        round_pairs = pairings[:]
        rng.shuffle(round_pairs)
        for team_a, team_b in round_pairs:
            a_wins = rng.random() < odds[team_a, team_b]
            loser_points = rng.randrange(0, 31)
            winner_points = loser_points + rng.randrange(1, 22)
            games.append(
                Game(
                    season=season,
                    date=date,
                    team_a=team_a,
                    team_b=team_b,
                    score_a=winner_points if a_wins else loser_points,
                    score_b=loser_points if a_wins else winner_points,
                )
            )
    return SyntheticLeague(games=games, strengths=strengths)


def kendall_tau(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Kendall tau-a between two paired value sequences.

    Counts concordant minus discordant pairs over all pairs; tied pairs on
    either side contribute zero.
    """
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need two sequences of equal length >= 2")
    n = len(xs)
    concordant = discordant = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = xs[i] - xs[j]
            dy = ys[i] - ys[j]
            product = dx * dy
            if product > 0:
                concordant += 1
            elif product < 0:
                discordant += 1
    return (concordant - discordant) / (n * (n - 1) / 2)
