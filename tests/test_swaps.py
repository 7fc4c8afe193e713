"""Swap permutation encoding, composition, and the three-way analysis.

Derived values in this file are checked against tests/reference.py, which
enumerates every disjoint exchange set directly.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

import reference as ref
from reference import (
    Blocked,
    Matching,
    PrerequisiteNotMatching,
    three_way_match,
    xor_compose,
)
from swapsensus import (
    INF,
    LengthMismatch,
    NotMatching,
    SwapStr,
    apply_swaps,
    swap_distance,
    swap_string,
)


@st.composite
def word_with_proper_swaps(draw) -> tuple[str, SwapStr]:
    """A word plus a valid swap string marking only distinct-symbol pairs."""
    n = draw(st.integers(1, 10))
    s = "".join(draw(st.sampled_from("abc")) for _ in range(n))
    bits: list[str] = []
    for p in range(n - 1):
        can = (not bits or bits[-1] == "0") and s[p] != s[p + 1]
        bits.append("1" if can and draw(st.booleans()) else "0")
    return s, SwapStr("".join(bits), n)


class TestSwapStr:
    def test_adjacent_ones_rejected(self):
        with pytest.raises(ValueError):
            SwapStr("110", 4)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError):
            SwapStr("102", 4)

    def test_wrong_length_rejected(self):
        with pytest.raises(LengthMismatch):
            SwapStr("10", 4)

    def test_length_one_word_has_empty_bits(self):
        h = SwapStr("", 1)
        assert h.popcount == 0
        assert h.ones() == ()

    def test_ones_positions_are_one_based(self):
        h = SwapStr("1010", 5)
        assert h.ones() == (1, 3)
        assert h.popcount == 2
        assert str(h) == "1010"


class TestSwapString:
    def test_known_pairs(self):
        assert swap_string("abab", "baba").bits == "101"
        assert swap_string("abc", "abc").bits == "00"
        assert swap_string("ababc", "babac").bits == "1010"

    def test_not_matching_reports_first_failure(self):
        with pytest.raises(NotMatching) as exc:
            swap_string("abc", "bca")
        assert exc.value.position == 1

    def test_unequal_lengths(self):
        with pytest.raises(LengthMismatch):
            swap_string("ab", "abc")

    def test_single_symbol_words(self):
        assert swap_string("a", "a").bits == ""
        with pytest.raises(NotMatching):
            swap_string("a", "b")

    def test_matches_the_per_character_scan(self):
        # swap_string visits only the mismatching positions; the reference
        # reads every one. Same SwapStr, or NotMatching at the same position.
        rng = random.Random(105)
        seen = Counter()
        for trial in range(6000):
            n = rng.randint(1, 12)
            s = "".join(rng.choice("abc") for _ in range(n))
            t = ref.apply_bits(s, _random_proper_bits(rng, s))
            if trial % 4 == 1:
                t = s
            elif trial % 4 == 2:  # a matching pair with one substitution
                p = rng.randrange(n)
                t = t[:p] + rng.choice("abc") + t[p + 1 :]
            elif trial % 4 == 3:
                t = "".join(rng.choice("abc") for _ in range(n))
            outcomes = []
            for scan in (swap_string, ref.scan_swap_string):
                try:
                    outcomes.append(scan(s, t))
                except NotMatching as e:
                    outcomes.append(e.position)
            assert outcomes[0] == outcomes[1], (s, t)
            got = outcomes[0]
            seen["n=1" if n == 1 else "equal" if s == t else type(got).__name__] += 1
        assert min(seen[key] for key in ("n=1", "equal", "SwapStr", "int")) > 100, seen

    @given(word_with_proper_swaps())
    def test_round_trip_recovers_exact_bits(self, pair):
        s, h = pair
        t = apply_swaps(s, h)
        assert swap_string(s, t).bits == h.bits

    @given(word_with_proper_swaps())
    def test_symmetry(self, pair):
        s, h = pair
        t = apply_swaps(s, h)
        assert swap_string(s, t).bits == swap_string(t, s).bits

    @given(word_with_proper_swaps())
    def test_zero_bit_means_equal_prefix_multisets(self, pair):
        s, h = pair
        t = apply_swaps(s, h)
        g = swap_string(s, t)
        for p in range(1, len(s)):  # 1-based swap position p covers pair (p, p+1)
            if g.bits[p - 1] == "0":
                assert Counter(s[:p]) == Counter(t[:p])
            else:
                assert Counter(s[:p]) != Counter(t[:p])


class TestApplySwaps:
    def test_known_applications(self):
        assert apply_swaps("abab", SwapStr("101", 4)) == "baba"
        assert apply_swaps("abbac", SwapStr("0010", 5)) == "ababc"
        assert apply_swaps("abc", SwapStr("00", 3)) == "abc"

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            apply_swaps("abc", SwapStr("101", 4))

    @given(word_with_proper_swaps())
    def test_applying_twice_is_identity(self, pair):
        s, h = pair
        assert apply_swaps(apply_swaps(s, h), h) == s

    def test_marked_equal_pair_is_allowed_but_not_a_swap(self):
        # apply_swaps tolerates a mark on an equal pair; the result is the
        # same word, whose swap string is all zeros, not the given bits.
        assert apply_swaps("aab", SwapStr("10", 3)) == "aab"
        assert swap_string("aab", "aab").bits == "00"


class TestXorCompose:
    def test_known_xor(self):
        assert xor_compose("1010", "1001") == "0011"

    def test_identity_and_self_inverse(self):
        assert xor_compose("1010", "0000") == "1010"
        assert xor_compose("1010", "1010") == "0000"

    def test_accepts_swapstr_operands(self):
        assert xor_compose(SwapStr("100", 4), SwapStr("001", 4)) == "101"

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            xor_compose("10", "100")

    def test_raw_non_binary_and_empty_operands(self):
        # Raw operands are compared symbol by symbol, whatever the symbols.
        assert xor_compose("", "") == ""
        assert xor_compose("abc", "abd") == "001"
        assert xor_compose("2a1", "1a1") == "100"
        assert xor_compose("\u00e9x\u20ac", "ex\u20ac") == "100"
        rng = random.Random(106)
        for _ in range(500):
            m = rng.randint(0, 8)
            a = "".join(rng.choice("01ab") for _ in range(m))
            b = "".join(rng.choice("01ab") for _ in range(m))
            assert xor_compose(a, b) == "".join(
                "1" if x != y else "0" for x, y in zip(a, b)
            ), (a, b)

    def test_union_adjacency_is_pairwise_collision(self):
        # The lemma behind disentangle's O(kn) certification: for valid swap
        # strings, some pairwise XOR holds "11" exactly when the union of
        # their ones holds two adjacent positions.
        rng = random.Random(104)
        outcomes = Counter()
        for _ in range(2000):
            n = rng.randint(1, 10)
            family = []
            for _ in range(rng.randint(1, 5)):
                bits = ""
                for _ in range(n - 1):
                    free = not bits.endswith("1")
                    bits += "1" if free and rng.random() < 0.3 else "0"
                family.append(SwapStr(bits, n))
            ones = {p for h in family for p in h.ones()}
            adjacent = any(p + 1 in ones for p in ones)
            collides = any(
                "11" in xor_compose(a, b) for a, b in combinations(family, 2)
            )
            assert adjacent == collides, [h.bits for h in family]
            outcomes[adjacent] += 1
        assert outcomes[True] > 0 and outcomes[False] > 0


class TestSwapDistanceAgainstEnumeration:
    """swap_distance versus direct enumeration of every exchange set."""

    def test_known_values(self):
        assert swap_distance("abab", "baba") == 2
        assert swap_distance("abcd", "badc") == 2
        assert swap_distance("abc", "bca") == INF
        assert swap_distance("x", "x") == 0

    def test_exhaustive_small_words(self):
        for n in (1, 2, 3, 4):
            for s in ref.all_words("ab", n):
                for t in ref.all_words("ab", n):
                    expect = ref.exhaustive_swap_distance(s, t)
                    got = swap_distance(s, t)
                    if expect is None:
                        assert got == INF, (s, t)
                    else:
                        assert got == expect, (s, t)

    def test_exhaustive_three_symbols(self):
        for s in ref.all_words("abc", 3):
            for t in ref.all_words("abc", 3):
                expect = ref.exhaustive_swap_distance(s, t)
                got = swap_distance(s, t)
                if expect is None:
                    assert got == INF, (s, t)
                else:
                    assert got == expect, (s, t)

    def test_random_pairs(self):
        rng = random.Random(101)
        for _ in range(2000):
            n = rng.randint(1, 8)
            s = "".join(rng.choice("abc") for _ in range(n))
            t = "".join(rng.choice("abc") for _ in range(n))
            expect = ref.exhaustive_swap_distance(s, t)
            got = swap_distance(s, t)
            if expect is None:
                assert got == INF, (s, t)
            else:
                assert got == expect, (s, t)

    def test_matching_words_have_unique_exchange_set(self):
        rng = random.Random(102)
        for _ in range(500):
            n = rng.randint(2, 8)
            s = "".join(rng.choice("abc") for _ in range(n))
            t = "".join(rng.choice("abc") for _ in range(n))
            achieving = [
                bits
                for bits in ref.proper_swap_bitstrings(s)
                if ref.apply_bits(s, bits) == t
            ]
            assert len(achieving) <= 1, (s, t, achieving)
            if achieving:
                assert swap_string(s, t).bits == achieving[0]


class TestThreeWayMatch:
    def test_blocked_example(self):
        out = three_way_match("ababc", "babac", "abbca")
        assert isinstance(out, Blocked)
        assert out.p == 4
        assert out.forced_window == "bac"

    def test_matching_example(self):
        out = three_way_match("bacd", "abcd", "abdc")
        assert isinstance(out, Matching)
        assert out.h.bits == "101"
        assert apply_swaps("bacd", out.h) == "abdc"

    def test_repeated_middle_word(self):
        out = three_way_match("abab", "baba", "baba")
        assert isinstance(out, Matching)
        assert out.h.bits == swap_string("abab", "baba").bits

    def test_prerequisite_violations(self):
        with pytest.raises(PrerequisiteNotMatching):
            three_way_match("abc", "bca", "abc")
        with pytest.raises(PrerequisiteNotMatching):
            three_way_match("abc", "abc", "bca")

    def test_random_chains_agree_with_enumeration(self):
        rng = random.Random(103)
        blocked_seen = 0
        matching_seen = 0
        for _ in range(400):
            n = rng.randint(2, 10)
            s1 = "".join(rng.choice("abc") for _ in range(n))
            s2 = ref.apply_bits(s1, _random_proper_bits(rng, s1))
            s3 = ref.apply_bits(s2, _random_proper_bits(rng, s2))
            out = three_way_match(s1, s2, s3)
            expect = ref.exhaustive_swap_distance(s1, s3)
            if isinstance(out, Matching):
                matching_seen += 1
                assert expect == out.h.popcount, (s1, s2, s3)
                assert apply_swaps(s1, out.h) == s3
            else:
                blocked_seen += 1
                assert expect is None, (s1, s2, s3)
                assert 2 <= out.p <= n - 1
                assert len(out.forced_window) == 3
                assert out.forced_window == s2[out.p - 2 : out.p + 1]
                # Every word matching both outer words keeps the middle
                # word's symbols on the window around the collision.
                common = ref.all_matching_words(s1) & ref.all_matching_words(s3)
                for w in common:
                    assert w[out.p - 2 : out.p + 1] == out.forced_window, (
                        s1,
                        s2,
                        s3,
                        w,
                    )
        assert blocked_seen > 0 and matching_seen > 0


def _random_proper_bits(rng: random.Random, s: str) -> str:
    bits: list[str] = []
    for p in range(len(s) - 1):
        can = (not bits or bits[-1] == "0") and s[p] != s[p + 1]
        bits.append("1" if can and rng.random() < 0.4 else "0")
    return "".join(bits)


def test_inf_is_float_infinity():
    assert math.isinf(swap_distance("abc", "bca"))
