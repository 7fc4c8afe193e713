"""Radius consensus under swap+substitution distance: the branching search."""

from __future__ import annotations

import random
import sys

import pytest

import reference as ref
from conftest import check_move, count_calls, random_words
from swapsensus import (
    CertificationFailure,
    Instance,
    dollar_pad,
    gen_planted,
    hamming_distance,
    radius_consensus_sh,
    sh_cost,
    sh_radius,
)


def ref_feasible(inst: Instance, d: int) -> bool:
    return any(
        all(sh_cost(w, t) <= d for w in inst.words)
        for t in ref.all_words("".join(inst.alphabet), inst.n)
    )


class TestKnownInstances:
    def test_three_word_example(self):
        ans = radius_consensus_sh(Instance(("baba", "cabc", "abca")), 2)
        assert ans.feasible
        assert ans.solution == "baba"
        assert ans.per_string_distances == (0, 2, 2)

    def test_identical_words_zero_radius(self):
        ans = radius_consensus_sh(Instance(("abcb", "abcb")), 0)
        assert ans.feasible and ans.solution == "abcb"

    def test_two_far_words(self):
        ans = radius_consensus_sh(Instance(("aa", "bb")), 1)
        assert ans.feasible
        assert ans.solution in ("ab", "ba")
        assert ans.per_string_distances == (1, 1)

    def test_infeasible_radius(self):
        ans = radius_consensus_sh(Instance(("aa", "bb")), 0)
        assert not ans.feasible
        assert ans.reason == "no word within swap+substitution radius 0 of all inputs"

    def test_padded_instance_is_infeasible_at_radius_3(self):
        # Its candidates recur under many move orders; a subtree already
        # proved empty is not searched again (124,937 nodes if it were).
        inst = dollar_pad(Instance(("aabbcb", "bccabc", "abacca")))
        ans = radius_consensus_sh(inst, 3)
        assert not ans.feasible
        assert ans.stats.nodes_expanded == 6_219

    def test_distance_calls_on_the_padded_instance(self, monkeypatch):
        # Hamming distances are computed for the root's three words only,
        # then derived from the parent's (18,657 calls if every node
        # recomputed them). sh_cost runs only where the sandwich sh <=
        # hamming <= 2 * sh cannot decide: for the prune, words with hamming
        # > 3d - depth; for the first violator, words with d < hamming <= 2d
        # that the prune did not already price (14,458 calls if every word
        # paid it in the prune and every word up to the first violator in the
        # scan, 8,122 if the scan priced its words again).
        ham_calls = count_calls(monkeypatch, sh_radius, "hamming_distance")
        sh_calls = count_calls(monkeypatch, sh_radius, "sh_cost")
        inst = dollar_pad(Instance(("aabbcb", "bccabc", "abacca")))
        ans = radius_consensus_sh(inst, 3)
        assert ans.stats.nodes_expanded == 6_219
        assert len(ham_calls) == 3
        assert len(sh_calls) == 8_098

    def test_a_repeated_word_is_priced_once_per_node(self, monkeypatch):
        # Each word of gen_planted's instances occurs twice. The search sees
        # the same first violator and prune, so its nodes and witness stay
        # the same, and it prices no more words than without the repeats;
        # only the certificate, which recomputes every input word's
        # distance, pays for them (789 calls in all if the search priced
        # each copy at each node).
        calls = count_calls(monkeypatch, sh_radius, "sh_cost")
        totals = [0, 0]
        for seed in range(6):
            inst, _ = gen_planted(seed, 16, 4, 4, 3)
            twice = Instance(inst.words + inst.words)
            for d in (2, 3):
                calls.clear()
                once_ans = radius_consensus_sh(inst, d)
                once = len(calls)
                calls.clear()
                twice_ans = radius_consensus_sh(twice, d)
                assert twice_ans.solution == once_ans.solution
                assert twice_ans.stats.nodes_expanded == once_ans.stats.nodes_expanded
                repeats_certified = inst.k if once_ans.feasible else 0
                assert len(calls) == once + repeats_certified, (seed, d)
                totals[0] += once
                totals[1] += len(calls)
        assert totals == [589, 625]

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            radius_consensus_sh(Instance(("ab",)), -1)

    def test_witness_beyond_the_radius_is_refused(self, monkeypatch):
        monkeypatch.setattr(sh_radius, "_radius_search", lambda *args: "ba")
        with pytest.raises(CertificationFailure, match=r"^word 1: recomputed distance 1 > slack 0$"):
            radius_consensus_sh(Instance(("ab", "ab")), 0)


class TestMoves:
    def test_each_move_is_a_window_that_changes_the_candidate(self):
        # _radius_search spells each child and re-prices only the columns
        # its window covers, so a move must name exactly what it rewrites.
        rng = random.Random(707)
        drawn = swaps = 0
        for _ in range(2000):
            cand, w = random_words(rng, max_n=8, min_k=2, max_k=2, max_sigma=4)
            d = rng.randint(0, 3)
            if hamming_distance(cand, w) <= d:
                continue
            drawn += 1
            for move in sh_radius._moves(cand, w, d):
                check_move(cand, w, move)
                swaps += len(move[1]) == 2
        assert drawn > 800 and swaps > 800


class TestAgainstEnumeration:
    def test_feasibility_and_certification(self):
        rng = random.Random(701)
        feasible_seen = 0
        infeasible_seen = 0
        for _ in range(400):
            inst = Instance(random_words(rng))
            d = rng.randint(0, 3)
            ans = radius_consensus_sh(inst, d)
            expect = ref_feasible(inst, d)
            assert ans.feasible == expect, (inst.words, d)
            if ans.feasible:
                feasible_seen += 1
                assert ans.max_distance <= d
                assert ans.per_string_distances == tuple(
                    sh_cost(w, ans.solution) for w in inst.words
                )
            else:
                infeasible_seen += 1
        assert feasible_seen > 80 and infeasible_seen > 40

    def test_planted_instances_where_the_sh_prune_cuts(self, monkeypatch):
        # Words planted up to 3d operations from a centre are often farther
        # than 3d - depth from a candidate in swap+substitution distance
        # while within 4d - depth in Hamming distance: there only the sh_cost
        # prune cuts. Count the instances where it does, and check every
        # verdict against enumeration.
        real_search = sh_radius._radius_search
        sh_cuts = 0

        def spy(words, root_dists, step, stats):
            def logged(cand, dists, depth):
                nonlocal sh_cuts
                assert depth <= 2 * d  # the two prunes alone keep it there
                moves = step(cand, dists, depth)
                if moves == () and max(dists) <= 4 * d - depth:
                    sh_cuts += 1
                return moves

            return real_search(words, root_dists, logged, stats)

        monkeypatch.setattr(sh_radius, "_radius_search", spy)
        rng = random.Random(705)
        cut_instances = feasible_seen = 0
        for _ in range(1000):
            d = rng.randint(1, 3)
            n, k, sigma = rng.randint(5, 7), rng.randint(2, 5), rng.randint(2, 3)
            ops = rng.randint(d + 1, 3 * d)
            inst, _ = gen_planted(rng.randrange(10**6), n, k, sigma, ops)
            sh_cuts = 0
            ans = radius_consensus_sh(inst, d)
            assert ans.feasible == ref_feasible(inst, d), (inst.words, d)
            if ans.feasible:
                feasible_seen += 1
                assert ans.per_string_distances == tuple(
                    sh_cost(w, ans.solution) for w in inst.words
                )
                assert ans.max_distance <= d
            cut_instances += sh_cuts > 0
        assert cut_instances > 250 and 100 < feasible_seen < 900

    def test_witness_within_search_depth_of_root(self):
        # Every branch step edits at most two adjacent positions, and the
        # depth never exceeds 2d, so a returned witness can disagree with the
        # root word on a bounded stretch only. The loose sanity bound below
        # follows from the distance sandwich: hamming(root, witness) <= 2 *
        # sh_cost(root, witness) <= 2d.
        rng = random.Random(703)
        for _ in range(200):
            inst = Instance(random_words(rng))
            d = rng.randint(0, 3)
            ans = radius_consensus_sh(inst, d)
            if ans.feasible:
                mism = sum(1 for a, b in zip(inst.words[0], ans.solution) if a != b)
                assert mism <= 2 * d


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_search_depth_is_not_bounded_by_the_stack():
    # From the root a^600, the witness for {a^600, b^600} at d=300 lies 300
    # substitutions deep, while the recursion limit leaves ~100 frames free.
    inst = Instance(("a" * 600, "b" * 600))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + 100)
    try:
        ans = radius_consensus_sh(inst, 300)
    finally:
        sys.setrecursionlimit(limit)
    assert ans.feasible
    assert ans.solution == "b" * 300 + "a" * 300
    assert ans.per_string_distances == (300, 300)
    assert ans.stats.nodes_expanded == 301
