"""Disentanglement: necessary swaps only, certified against full enumeration."""

from __future__ import annotations

import math
import random
import statistics
import sys

import pytest

import reference as ref
from conftest import best_of, random_words
from swapsensus import (
    CertificationFailure,
    Disentanglement,
    Infeasible,
    Instance,
    NotMatching,
    SwapStr,
    disentangle,
    swap_distance,
    swap_string,
    xor_compose,
)

TANGLED_SHORT = ("gabcahi", "gcaabih", "gcabaih")
TANGLED_LONG = (
    "abgabcahidabdefeda",
    "bagcaabihdabefddea",
    "bagcabaihdbaefdeda",
)


def common_matches(words) -> set[str]:
    sets = [ref.all_matching_words(w) for w in words]
    return set.intersection(*sets)


def random_matching_family(rng: random.Random, max_n: int = 8, max_k: int = 4):
    """Words built from one center by independent proper swap sets."""
    return matching_family(rng, rng.randint(1, max_n), rng.randint(1, max_k))


def matching_family(rng: random.Random, n: int, k: int):
    """k words of length n built from one random center by proper swap sets."""
    center = "".join(rng.choice("abc") for _ in range(n))
    out = []
    for _ in range(k):
        bits = []
        for p in range(n - 1):
            can = (not bits or bits[-1] == "0") and center[p] != center[p + 1]
            bits.append("1" if can and rng.random() < 0.4 else "0")
        out.append(ref.apply_bits(center, "".join(bits)))
    return tuple(out)


class TestKnownInstances:
    def test_seven_letter_instance(self):
        dz = disentangle(Instance(TANGLED_SHORT))
        assert isinstance(dz, Disentanglement)
        assert dz.strings_prime == ("gacbahi", "gacbaih", "gacbaih")
        assert dz.budgets == (1, 2, 1)
        assert dz.total == 4
        assert dz.tangled_intervals == ((2, 5),)

    def test_eighteen_letter_instance(self):
        dz = disentangle(Instance(TANGLED_LONG))
        assert isinstance(dz, Disentanglement)
        assert dz.strings_prime == (
            "abgacbahidabedfeda",
            "bagacbaihdabedfdea",
            "bagacbaihdbaedfeda",
        )
        assert dz.budgets == (2, 3, 2)
        assert dz.total == 7
        assert dz.tangled_intervals == ((4, 7), (13, 15))

    def test_benign_pairs_left_unchanged(self):
        dz = disentangle(Instance(("abab", "baba")))
        assert isinstance(dz, Disentanglement)
        assert dz.strings_prime == ("abab", "baba")
        assert dz.budgets == (0, 0)
        assert dz.total == 0
        assert dz.tangled_intervals == ()

    def test_single_word(self):
        dz = disentangle(Instance(("abcab",)))
        assert isinstance(dz, Disentanglement)
        assert dz.strings_prime == ("abcab",)
        assert dz.budgets == (0,)

    def test_length_one_words(self):
        # Empty swap strings: the safety net ORs no bits at all.
        dz = disentangle(Instance(("a", "a", "a")))
        assert isinstance(dz, Disentanglement)
        assert dz.strings_prime == ("a", "a", "a")
        assert dz.budgets == (0, 0, 0)
        assert dz.encoded == (SwapStr("", 1),) * 3

    def test_interval_resolution(self):
        dz = disentangle(Instance(("abc", "acb", "bac")))
        assert isinstance(dz, Disentanglement)
        assert dz.strings_prime == ("abc", "abc", "abc")
        assert dz.budgets == (0, 1, 1)
        assert dz.tangled_intervals == ((1, 3),)


class TestInfeasibleInstances:
    @pytest.mark.parametrize(
        "words,reason,column",
        [
            (
                ("ab", "aa"),
                "word 2 has a different symbol multiset than word 1",
                None,
            ),
            (
                ("bac", "abc", "cab"),
                "column 1: every word could swap, no symbol is pinned",
                1,
            ),
            (
                ("bca", "acb"),
                "column 1: words that cannot swap disagree (['a', 'b'])",
                1,
            ),
            # A mover lacks the forced symbol: at an interval's first
            # column, then at a later frontier column.
            (
                ("aabc", "baac", "cbaa"),
                "column 1: word 3 cannot bring the forced symbol 'a' in by a swap",
                1,
            ),
            (
                ("caaa", "aaac"),
                "column 2: word 2 cannot bring the forced symbol 'c' in by a swap",
                2,
            ),
            # The movers push different symbols on: at an interval's first
            # column, then at a later frontier column.
            (
                ("abcb", "bbca", "cbba"),
                "column 1: swapping words disagree on the symbol pushed to "
                "column 2 (['a', 'c'])",
                1,
            ),
            (
                ("aabc", "acba", "baac"),
                "column 2: swapping words disagree on the symbol pushed to "
                "column 3 (['a', 'c'])",
                2,
            ),
            # The frontier rules again, with three words and at a later column.
            (
                ("abc", "bca", "cab"),
                "column 1: every word could swap, no symbol is pinned",
                1,
            ),
            (
                ("ababc", "abbca", "abacb"),
                "column 3: words that cannot swap disagree (['a', 'b'])",
                3,
            ),
        ],
    )
    def test_reason_names_the_rule(self, words, reason, column):
        out = disentangle(Instance(words))
        assert out == Infeasible(reason, column)
        assert common_matches(words) == set()

    @pytest.mark.parametrize(
        "words",
        [
            ("aa", "ab"),  # the words disagree at the last column
            ("aa", "ba"),  # the last column lacks the forced symbol 'b'
        ],
    )
    def test_multiset_rule_covers_the_last_column(self, words):
        # Left of the scan every column agrees, or pairs benignly, and an
        # interval's columns are forced equal; so words with one symbol
        # multiset agree at the last column whenever the scan reaches it.
        out = disentangle(Instance(words))
        assert out == Infeasible(
            "word 2 has a different symbol multiset than word 1", None
        )


class TestAgainstEnumeration:
    """Feasibility, necessity, and match-set preservation at desk scale."""

    def _check_feasible(self, words, dz: Disentanglement) -> None:
        k = len(words)
        # Pairwise matching, certified through the encoding.
        hs = [swap_string(dz.strings_prime[0], w) for w in dz.strings_prime]
        for a in range(k):
            for b in range(a + 1, k):
                assert "11" not in xor_compose(hs[a], hs[b])
        # Budgets are exactly the sizes of the applied swap sets, and all
        # applied swaps sit inside the reported intervals.
        spans = [
            set(range(lo, hi)) for lo, hi in dz.tangled_intervals
        ]  # swap at 1-based p touches columns p and p+1
        for w, wp, x in zip(words, dz.strings_prime, dz.budgets):
            h = swap_string(w, wp)
            assert h.popcount == x
            for p in h.ones():
                assert any(p in span for span in spans), (words, p)
        assert dz.total == sum(dz.budgets)

        cs = common_matches(words)
        assert cs, "feasible result for an instance with no common match"
        # The necessary swaps are shared by every common match: the exact
        # swaps reappear in every match's swap string, and distances split
        # additively into consumed budget plus remaining distance.
        for t in cs:
            for w, wp, x in zip(words, dz.strings_prime, dz.budgets):
                applied = set(swap_string(w, wp).ones())
                assert applied <= set(swap_string(w, t).ones())
                assert swap_distance(w, t) == x + swap_distance(wp, t)
        # Every original common match survives disentangling. The reverse
        # can fail: the disentangled words may admit additional matches,
        # which downstream consumers screen out by certification.
        assert cs <= common_matches(dz.strings_prime)

    def test_matching_families(self):
        rng = random.Random(401)
        for _ in range(200):
            words = random_matching_family(rng)
            dz = disentangle(Instance(words))
            assert isinstance(dz, Disentanglement), words
            self._check_feasible(words, dz)

    def test_arbitrary_words(self):
        rng = random.Random(402)
        feasible_seen = 0
        infeasible_seen = 0
        for _ in range(300):
            words = random_words(rng, max_n=6)
            out = disentangle(Instance(words))
            cs = common_matches(words)
            if isinstance(out, Disentanglement):
                feasible_seen += 1
                self._check_feasible(words, out)
            else:
                infeasible_seen += 1
                assert cs == set(), (words, out.reason)
        assert feasible_seen > 30 and infeasible_seen > 30

    def test_idempotence(self):
        rng = random.Random(403)
        cases = []
        for source in [TANGLED_SHORT, TANGLED_LONG] + [
            random_matching_family(rng) for _ in range(100)
        ]:
            dz = disentangle(Instance(source))
            assert isinstance(dz, Disentanglement), source
            cases.append(dz.strings_prime)
        for words in cases:
            dz = disentangle(Instance(words))
            assert isinstance(dz, Disentanglement)
            assert dz.strings_prime == words
            assert dz.budgets == (0,) * len(words)
            assert dz.total == 0
            assert dz.tangled_intervals == ()

    def test_intervals_independent_of_word_order(self):
        rng = random.Random(404)
        checked = 0
        while checked < 120:
            words = random_matching_family(rng, max_n=8, max_k=4)
            dz = disentangle(Instance(words))
            if not isinstance(dz, Disentanglement):
                continue
            order = list(range(len(words)))
            rng.shuffle(order)
            permuted = tuple(words[i] for i in order)
            dz2 = disentangle(Instance(permuted))
            assert isinstance(dz2, Disentanglement)
            assert dz2.tangled_intervals == dz.tangled_intervals
            assert dz2.budgets == tuple(dz.budgets[i] for i in order)
            assert dz2.strings_prime == tuple(dz.strings_prime[i] for i in order)
            assert dz2.total == dz.total
            checked += 1


def _edited_from_a_centre(rng: random.Random) -> tuple[str, ...]:
    """Words made from one centre by a few adjacent exchanges each, which may
    overlap, and now and then one substitution."""
    n, k = rng.randint(2, 12), rng.randint(2, 6)
    centre = "".join(rng.choice("abc") for _ in range(n))
    out = []
    for _ in range(k):
        w = list(centre)
        for _ in range(rng.randint(0, 3)):
            p = rng.randrange(n - 1)
            w[p], w[p + 1] = w[p + 1], w[p]
        if rng.random() < 0.1:
            w[rng.randrange(n)] = rng.choice("abc")
        out.append("".join(w))
    return tuple(out)


def _shuffles_of_one_word(rng: random.Random) -> tuple[str, ...]:
    """Shuffles of one word: one symbol multiset, so the scan's rules decide."""
    n, k = rng.randint(3, 6), rng.randint(3, 6)
    word = [rng.choice("abcd") for _ in range(n)]
    out = []
    for _ in range(k):
        rng.shuffle(word)
        out.append("".join(word))
    return tuple(out)


def test_records_match_the_every_word_reference():
    # The scan reads its movers from the input's columns and rebuilds only
    # the words that moved; the former scan swaps copies of every word. Both
    # must give the same record, reasons and columns included, and every
    # rule of the scan must be exercised.
    rules = {
        "every word could swap": 0,
        "words that cannot swap disagree": 0,
        "cannot bring the forced symbol": 0,
        "swapping words disagree": 0,
    }
    rng = random.Random(406)
    feasible = 0
    for make in (_edited_from_a_centre, _shuffles_of_one_word):
        for _ in range(2000):
            inst = Instance(make(rng))
            out = disentangle(inst)
            assert repr(out) == repr(ref.scan_disentangle(inst)), inst.words
            if isinstance(out, Disentanglement):
                feasible += 1
                continue
            for rule in rules:
                rules[rule] += rule in out.reason
    assert min(rules.values()) >= 50, rules
    assert feasible >= 1000


def test_certification_is_linear_in_k():
    # One centre at n=200; the safety net must not compare every pair of
    # words, so time grows about linearly in k (a pairwise check gives ~2).
    sizes = (50, 100, 200, 400)
    family = matching_family(random.Random(405), 200, max(sizes))
    times = []
    for k in sizes:
        inst = Instance(family[:k])
        elapsed, dz = best_of(3, lambda: disentangle(inst))
        assert isinstance(dz, Disentanglement)
        times.append(max(elapsed, 1e-6))
    fit = statistics.linear_regression(
        [math.log(k) for k in sizes], [math.log(t) for t in times]
    )
    assert fit.slope <= 1.5, f"log-log slope {fit.slope:.2f} exceeds 1.5 ({times})"


def _mismatch(base, word):
    raise NotMatching(2)


@pytest.mark.parametrize(
    "fake",
    [
        _mismatch,
        # Valid swap strings whose union "11" has adjacent ones.
        lambda base, word: SwapStr("10" if word == "abc" else "01", 3),
    ],
    ids=["not-matching", "adjacent-union"],
)
def test_failed_safety_net_is_a_bug_not_a_no(monkeypatch, fake):
    # The package attribute disentangle is the function; patch the module.
    monkeypatch.setattr(sys.modules["swapsensus.disentangle"], "swap_string", fake)
    with pytest.raises(CertificationFailure):
        disentangle(Instance(("abc", "bac")))
