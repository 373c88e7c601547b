"""Core Elo mathematics: expected score and the paired zero-sum rating update.

Pure functions over plain floats. No shared state, safe to call concurrently.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

Rating = float


class Winner(enum.Enum):
    """Which side won a game. Draws are not representable on purpose."""

    A = "A"
    B = "B"


@dataclass(frozen=True)
class EloConfig:
    """Constants of the rating model.

    With the defaults, a win probability is 1 / (1 + 10 ** (diff / 400)) and
    each game moves at most 25 rating points.
    """

    initial_rating: float = 1500.0
    k_factor: float = 25.0
    scale: float = 400.0
    base: float = 10.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.initial_rating):
            raise ValueError("initial_rating must be finite")
        if not (math.isfinite(self.k_factor) and self.k_factor > 0):
            raise ValueError("k_factor must be a positive finite number")
        if not (math.isfinite(self.scale) and self.scale > 0):
            raise ValueError("scale must be a positive finite number")
        if not (math.isfinite(self.base) and self.base > 1):
            raise ValueError("base must be a finite number greater than 1")


@dataclass(frozen=True)
class MatchExpectation:
    """Pre-game win probabilities for the two sides of one game."""

    p_a: float

    @property
    def p_b(self) -> float:
        # Derived, never stored, so p_a + p_b is exactly 1.
        return 1.0 - self.p_a


def _require_finite(value: float, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite rating, got {value!r}")
    return value


def win_probability(r_a: Rating, r_b: Rating, cfg: EloConfig = EloConfig()) -> float:
    """Win probability of side A against side B given their current ratings.

    p_a = 1 / (1 + base ** ((r_b - r_a) / scale)), strictly increasing in
    r_a - r_b and invariant under shifting both ratings by a constant. This is
    the package's one copy of the formula; every other caller goes through it.
    """
    if not (math.isfinite(r_a) and math.isfinite(r_b)):
        _require_finite(r_a, "r_a")
        _require_finite(r_b, "r_b")
    exponent = (r_b - r_a) / cfg.scale
    # base**exponent overflows double precision past ~1e300, so saturate for
    # rating gaps that extreme (hundreds of thousands of points at scale 400).
    magnitude = exponent * math.log10(cfg.base)
    if magnitude > 300.0:
        return 0.0
    if magnitude < -300.0:
        return 1.0
    return 1.0 / (1.0 + cfg.base**exponent)


def expected_score(r_a: Rating, r_b: Rating, cfg: EloConfig = EloConfig()) -> MatchExpectation:
    """Both sides' win probabilities; see `win_probability`."""
    return MatchExpectation(p_a=win_probability(r_a, r_b, cfg))


def step(r_a: Rating, r_b: Rating, a_won: bool, cfg: EloConfig = EloConfig()) -> tuple[float, Rating, Rating]:
    """Side A's pre-game win probability and both post-game ratings.

    Each side moves by k * (outcome - expectation). The winner gains what the
    loser drops, so the rating sum is conserved, and the step magnitude is
    strictly below k for finite inputs. This is the package's one copy of the
    update rule.
    """
    p_a = win_probability(r_a, r_b, cfg)
    delta_a = cfg.k_factor * ((1.0 if a_won else 0.0) - p_a)
    return p_a, r_a + delta_a, r_b - delta_a


def update_pair(
    r_a: Rating,
    r_b: Rating,
    winner: Winner,
    cfg: EloConfig = EloConfig(),
) -> tuple[Rating, Rating]:
    """Post-game ratings for both sides; see `step`."""
    _, new_a, new_b = step(r_a, r_b, winner is Winner.A, cfg)
    return new_a, new_b
