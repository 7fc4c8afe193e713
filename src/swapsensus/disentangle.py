"""Disentanglement: apply exactly the necessary swaps so all words match.

Scanning left to right, a dirty column either pairs benignly with its right
neighbor (2-gram set {xy, yx}: a common match may keep either order, so no
swap is necessary) or it starts a tangled interval, inside which every common
match is forced letter by letter. Each string mismatching the forced letter
must take a swap there; those swaps are necessary (common to every match) and
are the only ones applied. The result is a set of pairwise-matching words plus
per-string budgets of consumed swaps.

The scan reads the input's columns directly: a column it reaches has not
been touched by any swap, because an interval's swaps stay inside the
interval and the scan resumes after it.

Infeasibility (no common match exists) is detected in two layers: a symbol
multiset precheck and per-step legality checks inside intervals. A final
O(kn) pairwise-matching certification is the safety net: the results' swap
strings against the first result have no adjacent ones in their union, a
bitwise OR of the strings. A net that fails means a bug in the scan, not
an input without a common match, so it raises CertificationFailure. Those
certified swap strings are the encoding the swap pipeline solves on.
"""

from __future__ import annotations

from collections import Counter

from .core import CertificationFailure, Instance, NotMatching, _Record
from .swaps import swap_string

__all__ = ["Disentanglement", "Infeasible", "disentangle"]


class Disentanglement(_Record):
    """Pairwise-matching words, per-string swap budgets, and where they came from.

    ``tangled_intervals`` are 1-based inclusive column ranges. ``encoded``
    holds each result's swap string against the first result, as certified
    by the safety net.
    """

    __slots__ = ("strings_prime", "budgets", "total", "tangled_intervals", "encoded")


class Infeasible(_Record):
    """No word matches every input; reason names the violating column."""

    __slots__ = ("reason", "column")
    _defaults = {"column": None}


def disentangle(inst: Instance) -> Disentanglement | Infeasible:
    """Construct the disentanglement, or certify that no common match exists."""
    k, n = inst.k, inst.n

    # Words have equal length, so equal counts of word 1's symbols mean
    # equal symbol multisets.
    sig0 = Counter(inst.words[0]).items()
    for j in range(1, k):
        w = inst.words[j]
        if any(w.count(b) != c for b, c in sig0):
            return Infeasible(
                f"word {j + 1} has a different symbol multiset than word 1"
            )

    words = [list(w) for w in inst.words]
    cols = list(map("".join, zip(*inst.words)))
    budgets = [0] * k
    intervals: list[tuple[int, int]] = []

    # Left of the scan every column agrees, or pairs benignly with its
    # neighbour, and the symbol multisets agree; so the last column agrees
    # whenever the scan reaches it, and a dirty column always has a right
    # neighbour to swap with. The scan reads the input's columns: a tangled
    # interval's swaps stay inside it and the scan resumes after it, so no
    # swap has touched the column under scan or its right neighbour yet.
    # Inside an interval, the frontier reads the swapped words instead.
    i = 0  # 0-based column under scan
    while i < n:
        if cols[i].count(cols[i][0]) == k:
            i += 1
            continue
        column = set(cols[i])

        # Dirty column: benign if the 2-gram set is exactly {xy, yx}.
        grams = set(zip(cols[i], cols[i + 1]))
        if len(grams) == 2:
            g1, g2 = sorted(grams)
            if g1 == (g2[1], g2[0]) and g1[0] != g1[1]:
                i += 2
                continue

        # Tangled interval starting at i0 = i. Strings that cannot swap
        # (i0, i0+1) pin the match's symbol there; no swap has touched
        # either column yet.
        i0 = i
        pinned = {a for a, b in zip(cols[i0], cols[i0 + 1]) if b not in column or a == b}
        if not pinned:
            return Infeasible(
                f"column {i0 + 1}: every word could swap, no symbol is pinned",
                column=i0 + 1,
            )
        if len(pinned) > 1:
            return Infeasible(
                f"column {i0 + 1}: words that cannot swap disagree "
                f"({sorted(pinned)})",
                column=i0 + 1,
            )
        (forced,) = pinned

        # Frontier propagation: column p carries a forced symbol. Strings
        # mismatching it must swap (p, p+1); the swap must bring the forced
        # symbol in, and all swappers must agree on what they push to p+1
        # (that symbol becomes forced next). Column i0 is dirty, so some
        # string mismatches there.
        p = i0
        while True:
            movers = [j for j in range(k) if words[j][p] != forced]
            if not movers:
                intervals.append((i0 + 1, p + 1))  # 1-based inclusive
                break
            bad = next((j for j in movers if words[j][p + 1] != forced), None)
            if bad is not None:
                return Infeasible(
                    f"column {p + 1}: word {bad + 1} "
                    f"cannot bring the forced symbol {forced!r} in by a swap",
                    column=p + 1,
                )
            revealed = {words[j][p] for j in movers}
            if len(revealed) > 1:
                return Infeasible(
                    f"column {p + 1}: swapping words disagree on the symbol "
                    f"pushed to column {p + 2} ({sorted(revealed)})",
                    column=p + 1,
                )
            for j in movers:
                words[j][p], words[j][p + 1] = words[j][p + 1], words[j][p]
                budgets[j] += 1
            (forced,) = revealed
            p += 1
        i = p + 1

    strings_prime = tuple("".join(w) for w in words)

    # Safety net: all results must match the first one, and all pairwise XORs
    # of their swap strings must be free of "11" (pairwise matching, by the
    # three-way analysis). Each swap string is valid, so an XOR holds "11" at
    # (i, i+1) exactly when one string has a 1 at i and the other a 1 at i+1:
    # exactly when the union of all their ones holds adjacent positions
    # (test_swaps::test_union_adjacency_is_pairwise_collision). The union is
    # the bitwise OR of the strings read as binary numbers.
    try:
        hs = tuple(swap_string(strings_prime[0], w) for w in strings_prime)
    except NotMatching as exc:
        raise CertificationFailure(
            f"disentangled words do not match the first one: {exc}"
        ) from exc
    union = 0
    for h in hs:
        union |= int(h.bits or "0", 2)
    if union & union >> 1:
        raise CertificationFailure("disentangled words do not pairwise match")

    return Disentanglement(
        strings_prime, tuple(budgets), sum(budgets), tuple(intervals), hs
    )
