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
interval and the scan resumes after it. Inside an interval only the
previous step's movers have changed the column under scan, and they hold
the forced symbol there, so the steps read the input's columns too. Each
word's swaps are recorded, and only the words that took one are rebuilt.

Infeasibility (no common match exists) is detected in two layers: a symbol
multiset precheck and per-step legality checks inside intervals. A final
O(kn) pairwise-matching certification is the safety net: the results' swap
strings against the first result, one per distinct result, have no adjacent
ones in their union, a bitwise OR of the strings. A net that fails means a
bug in the scan, not an input without a common match, so it raises
CertificationFailure. Those certified swap strings are the encoding the swap
pipeline solves on.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, repeat
from operator import ne

from .core import CertificationFailure, Instance, NotMatching, _Record, columns
from .swaps import _apply, swap_string

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

    cols = columns(inst.words)
    swaps: list[list[int]] = [[] for _ in range(k)]  # each word's 0-based swaps
    intervals: list[tuple[int, int]] = []

    # Left of the scan every column agrees, or pairs benignly with its
    # neighbour, and the symbol multisets agree; so the last column agrees
    # whenever the scan reaches it, and a dirty column always has a right
    # neighbour to swap with. The scan reads the input's columns: a tangled
    # interval's swaps stay inside it and the scan resumes after it, so no
    # swap has touched the column under scan or its right neighbour yet.
    i = 0  # 0-based column under scan
    while i < n:
        if cols[i].count(cols[i][0]) == k:
            i += 1
            continue

        # Dirty column: benign if the 2-gram set is exactly {xy, yx}, that
        # is if it holds two symbols and every word holds the other one in
        # the next column.
        column = set(cols[i])
        if len(column) == 2:
            x, y = column
            if cols[i + 1] == cols[i].translate(str.maketrans(x + y, y + x)):
                i += 2
                continue

        # Tangled interval starting at i0 = i. Strings that cannot swap
        # (i0, i0+1) pin the match's symbol there; no swap has touched
        # either column yet. A word's 2-gram there says whether it can.
        i0 = i
        grams = set(zip(cols[i0], cols[i0 + 1]))
        pinned = {a for a, b in grams if b not in column or a == b}
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
        #
        # The steps read the input's columns too. Only the previous step's
        # swaps (p-1, p) have touched column p: its movers pushed the symbol
        # that is now forced onto p, so they match there, and every other
        # word still holds its input symbol cols[p][j]. So the movers are
        # the words whose input symbol at p differs from the forced one,
        # less the previous movers, and what each pushes to p+1 is its input
        # symbol at p. No swap has touched column p+1 yet, so whether a
        # mover can bring the forced symbol in is read from cols[p + 1].
        p, moved = i0, set()
        while True:
            col = cols[p]
            movers = [
                j for j in compress(range(k), map(ne, col, repeat(forced)))
                if j not in moved
            ]
            if not movers:
                intervals.append((i0 + 1, p + 1))  # 1-based inclusive
                break
            right = cols[p + 1]
            bad = next((j for j in movers if right[j] != forced), None)
            if bad is not None:
                return Infeasible(
                    f"column {p + 1}: word {bad + 1} "
                    f"cannot bring the forced symbol {forced!r} in by a swap",
                    column=p + 1,
                )
            revealed = {col[j] for j in movers}
            if len(revealed) > 1:
                return Infeasible(
                    f"column {p + 1}: swapping words disagree on the symbol "
                    f"pushed to column {p + 2} ({sorted(revealed)})",
                    column=p + 1,
                )
            for j in movers:
                swaps[j].append(p)
            moved = set(movers)
            (forced,) = revealed
            p += 1
        i = p + 1

    # Only the words that took a swap are rebuilt. A word's swaps lie at
    # distinct, non-adjacent positions (a mover at p holds the forced
    # symbol at p + 1), as _apply asks.
    strings_prime = [_apply(w, at) if at else w for w, at in zip(inst.words, swaps)]
    budgets = tuple(map(len, swaps))

    # Safety net: all results must match the first one, and all pairwise XORs
    # of their swap strings must be free of "11" (pairwise matching, by the
    # three-way analysis). Each swap string is valid, so an XOR holds "11" at
    # (i, i+1) exactly when one string has a 1 at i and the other a 1 at i+1:
    # exactly when the union of all their ones holds adjacent positions
    # (test_swaps::test_union_adjacency_is_pairwise_collision). The union is
    # the bitwise OR of the strings read as binary numbers. Equal words have
    # equal swap strings, so each distinct word is encoded once.
    base = strings_prime[0]
    try:
        encoding = {w: swap_string(base, w) for w in dict.fromkeys(strings_prime)}
    except NotMatching as exc:
        raise CertificationFailure(
            f"disentangled words do not match the first one: {exc}"
        ) from exc
    union = 0
    for h in encoding.values():
        union |= int(h.bits or "0", 2)
    if union & union >> 1:
        raise CertificationFailure("disentangled words do not pairwise match")
    hs = tuple(map(encoding.__getitem__, strings_prime))

    return Disentanglement(
        tuple(strings_prime), budgets, sum(budgets), tuple(intervals), hs
    )
