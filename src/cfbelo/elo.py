"""Core Elo mathematics: the win probability and the paired zero-sum rating update.

`kernel` holds the one copy of the formula: it binds a config to a ratings
dict and plays one game at a time on it, so a kernel shares that dict with
its caller. `win_probability` and `update_pair` are pure, over plain floats,
and go through a kernel bound to a dict of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

Rating = float


@dataclass(frozen=True)
class EloConfig:
    """Constants of the rating model.

    With the defaults, a win probability is 1 / (1 + 10 ** (diff / 400)) and
    each game moves at most 25 rating points. The odds base is fixed at 10.
    """

    initial_rating: float = 1500.0
    k_factor: float = 25.0
    scale: float = 400.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.initial_rating):
            raise ValueError("initial_rating must be finite")
        if not (math.isfinite(self.k_factor) and self.k_factor > 0):
            raise ValueError("k_factor must be a positive finite number")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be a positive finite number")


def _saturated(r_a: float, r_b: float, exponent: float) -> float:
    # 10**exponent overflows double precision past ~1e300, so saturate for
    # rating gaps that extreme (hundreds of thousands of points at scale 400),
    # once both ratings are known to be finite.
    for name, value in (("r_a", r_a), ("r_b", r_b)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite rating, got {float(value)!r}")
    return 0.0 if exponent > 300.0 else 1.0


def kernel(cfg: EloConfig, ratings: dict[str, float]) -> Callable[[str, str, bool, bool], float | None]:
    """Bind `cfg` once to `ratings` and return `play(a, b, a_won, scored)`, which
    plays one game: it reads both ratings (a new team starts at
    cfg.initial_rating), moves A by k * (outcome - p_a) with
    p_a = 1 / (1 + 10 ** ((r_b - r_a) / scale)), moves B by the opposite
    and writes both back. For a scored game it returns the winner's pre-game
    probability, `win_probability(r_winner, r_loser, cfg)`, never 1 - p_a,
    which differs in the last bit.
    """
    k, scale, initial = cfg.k_factor, cfg.scale, cfg.initial_rating
    get = ratings.get

    def play(a: str, b: str, a_won: bool, scored: bool) -> float | None:
        r_a = get(a, initial)
        r_b = get(b, initial)
        exponent = (r_b - r_a) / scale
        # Also false for an inf or NaN, which `_saturated` refuses.
        inside = -300.0 <= exponent <= 300.0
        p_a = 1.0 / (1.0 + 10.0**exponent) if inside else _saturated(r_a, r_b, exponent)
        delta_a = k * ((1.0 if a_won else 0.0) - p_a)
        ratings[a] = r_a + delta_a
        ratings[b] = r_b - delta_a
        if not scored or a_won:
            return p_a if scored else None
        # (r_a - r_b) / scale is exactly -exponent, so this is win_probability(r_b, r_a).
        return 1.0 / (1.0 + 10.0**-exponent) if inside else _saturated(r_b, r_a, -exponent)

    return play


def win_probability(r_a: Rating, r_b: Rating, cfg: EloConfig = EloConfig()) -> float:
    """Win probability of side A against side B given their current ratings.

    p_a = 1 / (1 + 10 ** ((r_b - r_a) / scale)), strictly increasing in
    r_a - r_b and invariant under shifting both ratings by a constant, from
    `kernel`. Saturates to 0 or 1 for gaps whose odds overflow a double.
    """
    return kernel(cfg, {"a": r_a, "b": r_b})("a", "b", True, True)


def update_pair(r_a: Rating, r_b: Rating, a_won: bool, cfg: EloConfig = EloConfig()) -> tuple[Rating, Rating]:
    """Post-game ratings for both sides of one game, won by A if `a_won`, through `kernel`.

    Each side moves by k * (outcome - expectation). The winner gains what the
    loser drops, so the rating sum is conserved, and the step magnitude is
    strictly below k for finite inputs.
    """
    ratings = {"a": r_a, "b": r_b}
    kernel(cfg, ratings)("a", "b", a_won, False)
    return ratings["a"], ratings["b"]
