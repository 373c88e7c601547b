import math
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfbelo.elo import EloConfig, kernel, update_pair, win_probability

from naive_elo import naive_expected

CFG = EloConfig()


class TestExpectedScore:
    def test_equal_ratings_are_a_coin_flip(self):
        assert win_probability(1500, 1500) == 0.5

    def test_400_point_favorite_wins_ten_of_eleven(self):
        # exponent is exactly -1, so p = 1 / (1 + 1/10)
        assert win_probability(1900, 1500) == pytest.approx(10 / 11, abs=1e-12)

    def test_400_point_underdog_is_the_complement(self):
        assert win_probability(1500, 1900) == pytest.approx(1 / 11, abs=1e-12)

    def test_matches_strength_weight_oracle(self):
        rng = random.Random(7)
        for _ in range(200):
            r_a = rng.uniform(1000, 2600)
            r_b = rng.uniform(1000, 2600)
            assert win_probability(r_a, r_b) == pytest.approx(
                naive_expected(r_a, r_b), abs=1e-12
            )

    def test_rejects_non_finite_ratings(self):
        with pytest.raises(ValueError):
            win_probability(float("nan"), 1500)
        with pytest.raises(ValueError):
            win_probability(1500, float("inf"))

    def test_win_probability_is_the_textbook_expression_bit_for_bit(self):
        # Pins the float operations and their order: ratings must stay
        # bit-identical to every earlier replay, not merely close.
        rng = random.Random(37)
        for _ in range(500):
            r_a, r_b = rng.uniform(800, 2800), rng.uniform(800, 2800)
            cfg = EloConfig(scale=rng.choice([400.0, 173.0]))
            expected = 1.0 / (1.0 + 10.0 ** ((r_b - r_a) / cfg.scale))
            assert win_probability(r_a, r_b, cfg) == expected

    def test_update_pair_names_the_non_finite_side(self):
        with pytest.raises(ValueError, match="r_a must be a finite rating, got nan"):
            update_pair(float("nan"), float("inf"), True)
        with pytest.raises(ValueError, match="r_b must be a finite rating, got inf"):
            update_pair(1500.0, float("inf"), False)

    def test_huge_gap_saturates_without_overflow(self):
        assert win_probability(1e9, 0.0) == 1.0
        assert win_probability(0.0, 1e9) == 0.0
        # just inside the overflow guard: still strictly between 0 and 1
        p = win_probability(0.0, 119000.0)
        assert 0.0 < p < 1.0


class TestExpectedScoreProperties:
    def test_complement_property(self):
        rng = random.Random(11)
        for _ in range(1000):
            r_a = rng.uniform(800, 2800)
            r_b = rng.uniform(800, 2800)
            total = win_probability(r_a, r_b) + win_probability(r_b, r_a)
            assert abs(total - 1.0) <= 1e-12

    def test_translation_invariance(self):
        rng = random.Random(13)
        for _ in range(1000):
            r_a = rng.uniform(800, 2800)
            r_b = rng.uniform(800, 2800)
            shift = rng.uniform(-500, 500)
            assert abs(
                win_probability(r_a + shift, r_b + shift) - win_probability(r_a, r_b)
            ) <= 1e-12

    def test_strictly_increasing_in_rating_gap(self):
        gaps = [-800, -200, -50, -1, 0, 1, 50, 200, 800]
        probs = [win_probability(1500 + g, 1500) for g in gaps]
        assert all(a < b for a, b in zip(probs, probs[1:]))


class TestUpdatePair:
    def test_even_game_moves_half_k(self):
        assert update_pair(1500, 1500, True) == (1512.5, 1487.5)

    def test_heavy_favorite_gains_little(self):
        r_a, r_b = update_pair(2000, 1500, True)
        assert r_a == pytest.approx(2001.331, abs=1e-3)
        assert r_b == pytest.approx(1498.669, abs=1e-3)
        # frozen from the strength-weight oracle
        p = naive_expected(2000, 1500)
        assert r_a == pytest.approx(2000 + 25 * (1 - p), abs=1e-12)

    def test_zero_sum(self):
        rng = random.Random(17)
        for _ in range(500):
            r_a = rng.uniform(1000, 2600)
            r_b = rng.uniform(1000, 2600)
            new_a, new_b = update_pair(r_a, r_b, rng.random() < 0.5)
            assert abs((new_a + new_b) - (r_a + r_b)) <= 1e-9

    def test_winner_up_loser_down_step_below_k(self):
        rng = random.Random(19)
        for _ in range(500):
            r_a = rng.uniform(1000, 2600)
            r_b = rng.uniform(1000, 2600)
            new_a, new_b = update_pair(r_a, r_b, True)
            assert new_a > r_a
            assert new_b < r_b
            assert 0 < new_a - r_a < CFG.k_factor

    def test_upset_moves_more_than_half_k(self):
        # underdog win: expectation below .5, so the gain beats k/2
        rng = random.Random(23)
        for _ in range(200):
            r_a = rng.uniform(1000, 1800)
            r_b = r_a + rng.uniform(1, 700)
            new_a, _ = update_pair(r_a, r_b, True)
            assert new_a - r_a > CFG.k_factor / 2

    def test_custom_k_scales_step(self):
        new_a, new_b = update_pair(1500, 1500, False, EloConfig(k_factor=50))
        assert (new_a, new_b) == (1475.0, 1525.0)


class TestEloConfig:
    def test_defaults(self):
        assert (CFG.initial_rating, CFG.k_factor, CFG.scale) == (1500, 25, 400)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"k_factor": 0},
            {"k_factor": -5},
            {"scale": 0},
            {"initial_rating": float("inf")},
            {"k_factor": float("nan")},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            EloConfig(**kwargs)


# The formula and update rule as they read before `kernel` existed, with the
# odds base pinned to the model's 10, kept as the reference the kernel must
# match bit for bit.
BASE = 10.0


def reference_win_probability(r_a, r_b, cfg):
    for value, name in ((r_a, "r_a"), (r_b, "r_b")):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be a finite rating, got {float(value)!r}")
    exponent = (r_b - r_a) / cfg.scale
    magnitude = exponent * math.log10(BASE)
    if magnitude > 300.0:
        return 0.0
    if magnitude < -300.0:
        return 1.0
    return 1.0 / (1.0 + BASE**exponent)


def reference_step(r_a, r_b, a_won, cfg):
    p_a = reference_win_probability(r_a, r_b, cfg)
    delta_a = cfg.k_factor * ((1.0 if a_won else 0.0) - p_a)
    return p_a, r_a + delta_a, r_b - delta_a


def bits(x):
    return struct.pack("<d", x)


CONFIGS = st.builds(
    EloConfig,
    initial_rating=st.just(1500.0),
    k_factor=st.sampled_from([25.0, 5.0, 100.0, 1e-9, 1e308]),
    scale=st.sampled_from([400.0, 173.0, 1e-300]),
)
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def rating_pairs(draw):
    """Two ratings: any finite pair, a gap at or a few ulps around the edge
    where the odds saturate, or a pair with an inf or NaN on either side."""
    cfg = draw(CONFIGS)
    kind = draw(st.sampled_from(["finite", "edge", "edge", "non-finite"]))
    if kind == "finite":
        return cfg, draw(FINITE), draw(FINITE)
    if kind == "edge":
        r_a = draw(st.floats(-1e6, 1e6))
        gap = draw(st.sampled_from([-300.0, 300.0])) * cfg.scale
        for _ in range(draw(st.integers(-3, 3))):
            gap = math.nextafter(gap, math.inf)
        return cfg, r_a, r_a + gap
    pair = [draw(FINITE), draw(st.sampled_from([math.nan, math.inf, -math.inf]))]
    if draw(st.booleans()):
        pair.reverse()
    if draw(st.booleans()):
        pair[0] = pair[1]
    return cfg, *pair


class TestKernel:
    @settings(max_examples=400, deadline=None)
    @given(rating_pairs(), st.booleans(), st.booleans())
    def test_kernel_is_bit_equal_to_the_reference_step(self, drawn, a_won, scored):
        cfg, r_a, r_b = drawn
        ratings = {"A": r_a, "B": r_b}
        play = kernel(cfg, ratings)
        try:
            expected = reference_step(r_a, r_b, a_won, cfg)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                play("A", "B", a_won, scored)
            assert str(raised.value) == str(exc)
            with pytest.raises(ValueError) as raised:
                update_pair(r_a, r_b, a_won, cfg)
            assert str(raised.value) == str(exc)
            assert bits(ratings["A"]) == bits(r_a) and bits(ratings["B"]) == bits(r_b)
            return
        p_a, new_a, new_b = expected
        p_winner = play("A", "B", a_won, scored)
        assert bits(ratings["A"]) == bits(new_a) and bits(ratings["B"]) == bits(new_b)
        if scored:
            # The winner's own form, never 1 - p_a.
            assert bits(p_winner) == bits(p_a if a_won else reference_win_probability(r_b, r_a, cfg))
        else:
            assert p_winner is None
        assert list(map(bits, update_pair(r_a, r_b, a_won, cfg))) == [bits(new_a), bits(new_b)]
        assert bits(win_probability(r_a, r_b, cfg)) == bits(p_a)

    def test_unplayed_teams_start_at_the_initial_rating(self):
        cfg = EloConfig(initial_rating=1000.0)
        ratings = {}
        assert kernel(cfg, ratings)("A", "B", True, True) == 0.5
        assert ratings == {"A": 1012.5, "B": 987.5}
