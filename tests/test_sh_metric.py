"""Swap+substitution distance versus direct enumeration of decompositions."""

from __future__ import annotations

import itertools
import math
import random

import pytest

import reference as ref
from swapsensus import (
    INF,
    LengthMismatch,
    NotMatching,
    SHWitness,
    sh_cost,
    sh_distance,
    swap_distance,
    swap_string,
)


def apply_witness(s: str, t: str, w: SHWitness) -> str:
    out = list(s)
    for p in w.swaps:  # 1-based left edge of the exchanged pair
        out[p - 1], out[p] = out[p], out[p - 1]
    for p in w.substitutions:
        out[p - 1] = t[p - 1]
    return "".join(out)


def check_witness(s: str, t: str, cost: int, w: SHWitness) -> None:
    assert w.cost == len(w.swaps) + len(w.substitutions) == cost
    assert list(w.swaps) == sorted(w.swaps)
    assert list(w.substitutions) == sorted(w.substitutions)
    for a, b in zip(w.swaps, w.swaps[1:]):
        assert b - a >= 2, "swap positions must be non-adjacent"
    touched = {q for p in w.swaps for q in (p, p + 1)}
    assert touched.isdisjoint(w.substitutions)
    for p in w.swaps:
        assert s[p - 1] != s[p], "a swap must exchange distinct symbols"
    assert apply_witness(s, t, w) == t


class TestKnownValues:
    def test_examples(self):
        cost, w = sh_distance("baba", "abca")
        assert cost == 2
        assert w.swaps == (1,)
        assert w.substitutions == (3,)

        cost, w = sh_distance("abab", "baba")
        assert cost == 2
        assert w.swaps == (1, 3)
        assert w.substitutions == ()

        cost, w = sh_distance("abc", "bca")
        assert cost == 3
        assert w.swaps == ()
        assert w.substitutions == (1, 2, 3)

    def test_identity(self):
        cost, w = sh_distance("abcabc", "abcabc")
        assert cost == 0
        assert w == SHWitness((), ())

    def test_single_column(self):
        assert sh_cost("a", "b") == 1
        assert sh_cost("a", "a") == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            sh_distance("ab", "abc")
        with pytest.raises(LengthMismatch, match=r"\|s\|=2 vs \|t\|=3"):
            sh_cost("ab", "abc")

    def test_helper_matches_witness(self):
        assert sh_distance("abab", "baba")[1].swaps == (1, 3)
        assert sh_distance("abc", "bca")[1].swaps == ()


class TestAgainstEnumeration:
    """sh_cost equals the minimum over every explicit decomposition."""

    def test_exhaustive_two_symbols(self):
        for n in (1, 2, 3, 4):
            for s in ref.all_words("ab", n):
                for t in ref.all_words("ab", n):
                    cost, w = sh_distance(s, t)
                    assert cost == ref.exhaustive_sh_distance(s, t), (s, t)
                    check_witness(s, t, cost, w)

    def test_exhaustive_three_symbols(self):
        for s in ref.all_words("abc", 3):
            for t in ref.all_words("abc", 3):
                cost, w = sh_distance(s, t)
                assert cost == ref.exhaustive_sh_distance(s, t), (s, t)
                check_witness(s, t, cost, w)

    def test_random_pairs(self):
        rng = random.Random(201)
        for _ in range(2000):
            n = rng.randint(1, 8)
            s = "".join(rng.choice("abc") for _ in range(n))
            t = "".join(rng.choice("abc") for _ in range(n))
            cost, w = sh_distance(s, t)
            assert cost == ref.exhaustive_sh_distance(s, t), (s, t)
            check_witness(s, t, cost, w)

    def test_matches_the_per_position_scan(self):
        # sh_distance and sh_cost visit only the mismatching positions; the
        # reference reads every one. Same cost and the same greedy witness.
        rng = random.Random(203)
        swapped = 0
        for _ in range(4000):
            n = rng.randint(1, 14)
            s = "".join(rng.choice("abc") for _ in range(n))
            t = list(s)
            for _ in range(rng.randint(0, n)):
                p = rng.randrange(n)
                if p + 1 < n and rng.random() < 0.5:
                    t[p], t[p + 1] = t[p + 1], t[p]
                else:
                    t[p] = rng.choice("abc")
            t = "".join(t)
            expect = ref.scan_sh_distance(s, t)
            assert sh_distance(s, t) == expect, (s, t)
            assert sh_cost(s, t) == expect[0], (s, t)
            swapped += bool(expect[1].swaps)
        assert swapped > 1000


class TestMetricProperties:
    def _random_pair(self, rng: random.Random) -> tuple[str, str]:
        n = rng.randint(1, 10)
        s = "".join(rng.choice("abc") for _ in range(n))
        t = "".join(rng.choice("abc") for _ in range(n))
        return s, t

    def test_sandwich_with_hamming(self):
        rng = random.Random(202)
        for _ in range(3000):
            s, t = self._random_pair(rng)
            ham = sum(1 for a, b in zip(s, t) if a != b)
            cost = sh_cost(s, t)
            assert cost <= ham <= 2 * cost, (s, t)

    def test_symmetry(self):
        rng = random.Random(203)
        for _ in range(3000):
            s, t = self._random_pair(rng)
            assert sh_cost(s, t) == sh_cost(t, s), (s, t)

    def test_zero_exactly_on_equal_words(self):
        rng = random.Random(204)
        for _ in range(2000):
            s, t = self._random_pair(rng)
            assert (sh_cost(s, t) == 0) == (s == t)

    def test_weakened_triangle(self):
        rng = random.Random(205)
        for _ in range(3000):
            n = rng.randint(1, 8)
            s = "".join(rng.choice("abc") for _ in range(n))
            t = "".join(rng.choice("abc") for _ in range(n))
            u = "".join(rng.choice("abc") for _ in range(n))
            bound = min(
                2 * sh_cost(s, t) + sh_cost(t, u),
                sh_cost(s, t) + 2 * sh_cost(t, u),
            )
            assert sh_cost(s, u) <= bound, (s, t, u)

    def test_equals_swap_distance_on_matching_words(self):
        rng = random.Random(206)
        seen_positive = False
        for _ in range(1500):
            n = rng.randint(1, 10)
            s = "".join(rng.choice("abc") for _ in range(n))
            bits = []
            for p in range(n - 1):
                can = (not bits or bits[-1] == "0") and s[p] != s[p + 1]
                bits.append("1" if can and rng.random() < 0.4 else "0")
            t = ref.apply_bits(s, "".join(bits))
            d = swap_distance(s, t)
            assert sh_cost(s, t) == d
            seen_positive = seen_positive or d > 0
        assert seen_positive

    def test_at_most_swap_distance_in_general(self):
        rng = random.Random(207)
        pairs = [self._random_pair(rng) for _ in range(2000)]
        for n in range(1, 5):
            words = ["".join(p) for p in itertools.product("abc", repeat=n)]
            pairs += itertools.product(words, repeat=2)
        for s, t in pairs:
            d = swap_distance(s, t)
            if not math.isinf(d):
                assert sh_cost(s, t) <= d
            assert sh_cost(s, t) <= len(s)
            # Both distances read one greedy trace: the swap distance is
            # finite exactly when the trace substitutes nowhere, and the
            # first substitution is where the forced swap fails.
            _, w = sh_distance(s, t)
            assert math.isinf(d) == bool(w.substitutions), (s, t)
            if not w.substitutions:
                assert d == len(w.swaps), (s, t)
            try:
                h = swap_string(s, t)
            except NotMatching as exc:
                assert w.substitutions[:1] == (exc.position,), (s, t)
            else:
                assert h.popcount == d, (s, t)
