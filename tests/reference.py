"""Independent reference implementations used only by tests.

Every enumeration here follows a definition directly and shares no logic
with the package internals. Test modules compare package results against
these so that a bug in an optimized routine cannot hide behind itself.

``swap_set`` names the words whose greedy trace against a prefix ends with
a swap at a given position, which is the key of the sum DP's table; the
tests check every settled state against it.

``scan_swap_string`` and ``scan_sh_distance`` are the package's former
swap-string and swap+Hamming passes, which read every position. The package
now runs one greedy trace for both distances, visiting only the mismatching
positions, and these two are its references: the tests hold the trace's
readers to the same answers (witnesses, failure positions). ``scan_sum_dp`` is the
package's former sum DP, which steps every row of the table; the package now
steps only the rows next to a disagreeing column, and the tests hold both to
the same tables, witnesses and state counts. ``scan_disentangle`` is the
package's former disentanglement, which swaps copies of all k words and
finds each column's movers by a loop over them; the package now reads the
movers from the input's columns and rebuilds only the words that moved, and
the tests hold both to the same records.

The three-way analysis at the end is the paper's lemma behind
``disentangle``'s pairwise-matching certification. No program path calls
it, so it lives here, built on the package's swap strings, and the tests
check it against the enumerations.

``pad_mixed`` rewrites a budgeted Hamming query as a plain one; the tests
check that both have the same verdict.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from swapsensus import (
    CertificationFailure,
    Disentanglement,
    Infeasible,
    Instance,
    LengthMismatch,
    MixedRadiusQuery,
    MixedRadiusSumQuery,
    NotMatching,
    ReservedSymbolPresent,
    SHWitness,
    SwapsensusError,
    SwapStr,
    sh_distance,
    swap_string,
    xor_compose,
)


def valid_swap_bitstrings(m: int) -> Iterator[str]:
    """Yield all binary strings of length m with no two adjacent ones."""
    if m == 0:
        yield ""
        return
    stack: list[str] = []

    def rec() -> Iterator[str]:
        if len(stack) == m:
            yield "".join(stack)
            return
        stack.append("0")
        yield from rec()
        stack.pop()
        if not stack or stack[-1] == "0":
            stack.append("1")
            yield from rec()
            stack.pop()

    yield from rec()


def apply_bits(word: str, bits: str) -> str:
    """Exchange the pairs marked by ones. Assumes bits has no adjacent ones."""
    out = list(word)
    for pos, b in enumerate(bits):
        if b == "1":
            out[pos], out[pos + 1] = out[pos + 1], out[pos]
    return "".join(out)


def proper_swap_bitstrings(word: str) -> Iterator[str]:
    """Valid bitstrings whose marked pairs all hold two distinct symbols."""
    for bits in valid_swap_bitstrings(len(word) - 1):
        if all(b == "0" or word[p] != word[p + 1] for p, b in enumerate(bits)):
            yield bits


def exhaustive_swap_distance(s: str, t: str) -> int | None:
    """Minimum number of disjoint adjacent exchanges turning s into t.

    Returns None when no set of disjoint exchanges works. Enumerates every
    candidate set, so it is exponential and only usable at desk scale.
    """
    best: int | None = None
    for bits in proper_swap_bitstrings(s):
        if apply_bits(s, bits) == t:
            cost = bits.count("1")
            if best is None or cost < best:
                best = cost
    return best


def exhaustive_sh_distance(s: str, t: str) -> int:
    """Minimum exchanges plus substitutions turning s into t.

    Tries every disjoint exchange set, then pays one unit per remaining
    mismatched column. Exponential; desk scale only.
    """
    best: int | None = None
    for bits in proper_swap_bitstrings(s):
        moved = apply_bits(s, bits)
        cost = bits.count("1") + sum(1 for a, b in zip(moved, t) if a != b)
        if best is None or cost < best:
            best = cost
    assert best is not None
    return best


def scan_swap_string(s: str, t: str) -> SwapStr:
    """The swap string of (s, t) by a scan over every position.

    The first mismatching position forces a swap there. Raises NotMatching
    with the 1-based position of the first forced swap that fails.
    """
    n = len(s)
    if len(t) != n:
        raise LengthMismatch(f"|s|={n} vs |t|={len(t)}")
    bits = ["0"] * (n - 1)
    i = 0
    while i < n:
        if s[i] == t[i]:
            i += 1
            continue
        if i + 1 < n and s[i] == t[i + 1] and s[i + 1] == t[i]:
            bits[i] = "1"
            i += 2
            continue
        raise NotMatching(i + 1)
    return SwapStr("".join(bits), n)


def scan_sh_distance(s: str, t: str) -> tuple[int, SHWitness]:
    """The greedy swap+Hamming witness of (s, t) by a scan over every position.

    A mismatch whose 2-window is the reversal of the target's takes a swap
    and skips the next position; any other mismatch is a substitution.
    """
    n = len(s)
    if len(t) != n:
        raise LengthMismatch(f"|s|={n} vs |t|={len(t)}")
    swaps: list[int] = []
    subs: list[int] = []
    i = 0
    while i < n:
        if s[i] == t[i]:
            i += 1
            continue
        if i + 1 < n and s[i] == t[i + 1] and s[i + 1] == t[i]:
            swaps.append(i + 1)
            i += 2
            continue
        subs.append(i + 1)
        i += 1
    w = SHWitness(tuple(swaps), tuple(subs))
    return w.cost, w


def scan_sum_dp(words: tuple[str, ...]) -> tuple[str, int, list[tuple], int]:
    """The sum DP over swap+substitution distance, stepping every row.

    Returns the witness, its cost, the table as sorted (row, members, prefix,
    cost) tuples and the number of settled states. Swap sets are bit masks
    while the table is built (bit j is word j); members are 1-based.
    """
    k, n = len(words), len(words[0])
    symbols = set().union(*words)
    marks = {b: {ord(c): "01"[c == b] for c in symbols} for b in symbols}
    masks: list[dict[str, int]] = []
    have: list[dict[str, int]] = []
    plurality: list[str] = []
    for col in map("".join, zip(*reversed(words))):
        ms = {c: int(col.translate(marks[c]), 2) for c in set(col)}
        h = {c: m.bit_count() for c, m in ms.items()}
        masks.append(ms)
        have.append(h)
        plurality.append(max(sorted(h), key=h.__getitem__))
    # grams[p] maps each unequal 2-gram at columns (p-1, p) to its carriers;
    # ending[p][b] lists (a, carriers) for the grams a+b there.
    grams: list[dict[str, int]] = [{} for _ in range(n + 1)]
    ending: list[dict[str, list[tuple[str, int]]]] = [{} for _ in range(n + 1)]
    for p in range(1, n):
        for a, left in masks[p - 1].items():
            for b, right in masks[p].items():
                if a != b and (carriers := left & right):
                    grams[p][a + b] = carriers
                    ending[p].setdefault(b, []).append((a, carriers))

    def source(p: int, b: str, order: list) -> tuple[int, str] | None:
        for members, held in order:
            if not grams[p].get(b + held[1][-1:], 0) & ~members:
                return held
        return None

    def settle(row: dict, members: int, cost: int, prefix: str) -> None:
        held = row.get(members)
        if held is None or (cost, prefix) < held:
            row[members] = (cost, prefix)

    rows: list[dict[int, tuple[int, str]]] = [{} for _ in range(n + 1)]
    rows[0][0] = (0, "")
    for L in range(n):
        order = sorted(rows[L].items(), key=itemgetter(1))
        for members, (cost, prefix) in order:
            for a, carriers in ending[L].get(prefix[-1:], ()):
                if swappers := carriers & ~members:
                    new_cost = cost + k - have[L].get(a, 0) - swappers.bit_count()
                    settle(rows[L + 1], swappers, new_cost, prefix + a)
        b = plurality[L]
        if (held := source(L, b, order)) is not None:
            settle(rows[L + 1], 0, held[0] + k - have[L][b], held[1] + b)
        for b, pairs in ending[L + 1].items():
            if (held := source(L, b, order)) is not None:
                base = held[0] + 2 * k - have[L].get(b, 0)
                for a, swappers in pairs:
                    new_cost = base - have[L + 1].get(a, 0) - swappers.bit_count()
                    settle(rows[L + 2], swappers, new_cost, held[1] + b + a)

    def members_of(mask: int) -> tuple[int, ...]:
        return tuple(j + 1 for j in range(k) if mask >> j & 1)

    table = [
        (r, members, prefix, cost)
        for r, row in enumerate(rows[1 : n + 1])
        for members, (cost, prefix) in sorted(
            (members_of(m), held) for m, held in row.items()
        )
    ]
    best_cost, best_word = min(rows[n].values())
    return best_word, best_cost, table, len(table)


def scan_disentangle(inst: Instance) -> Disentanglement | Infeasible:
    """The disentanglement by a scan that swaps copies of every word.

    Copies all k words into lists, and inside a tangled interval finds the
    movers by a loop over all k words at each column, reading the swapped
    copies; the safety net encodes every result, repeats included.
    """
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


class OutOfRange(SwapsensusError):
    """A position argument is outside the valid range."""


def swap_set(inst: Instance, t: str, i: int) -> frozenset[int]:
    """Words whose greedy trace against prefix ``t`` swaps at 1-based position ``i``.

    ``t`` is compared with the equal-length prefix of every input word. A
    swap at position ``i`` exchanges positions ``i`` and ``i+1``, so ``t``
    must cover position ``i+1``. Returns 1-based word indices.
    """
    if i < 1 or len(t) < i + 1 or len(t) > inst.n:
        raise OutOfRange(
            f"position {i} needs a prefix of length between {i + 1} and {inst.n}"
        )
    members = set()
    for j, w in enumerate(inst.words, start=1):
        _, witness = sh_distance(w[: len(t)], t)
        if i in witness.swaps:
            members.add(j)
    return frozenset(members)


def all_matching_words(s: str) -> set[str]:
    """Every word reachable from s by one set of disjoint adjacent exchanges."""
    return {apply_bits(s, bits) for bits in proper_swap_bitstrings(s)}


def prefix_signature(word: str, length: int) -> Counter:
    """Multiset of the first `length` symbols."""
    return Counter(word[:length])


def all_words(alphabet: str, n: int) -> Iterator[str]:
    """Every length-n word over the alphabet, in lexicographic order."""
    for tup in itertools.product(sorted(alphabet), repeat=n):
        yield "".join(tup)


class PrerequisiteNotMatching(SwapsensusError):
    """A three-way analysis was asked about word pairs that do not match."""


@dataclass(frozen=True)
class Matching:
    """Three-way outcome: the outer pair matches, with this swap string."""

    h: SwapStr


@dataclass(frozen=True)
class Blocked:
    """Three-way outcome: every common match is pinned around position p.

    p is the second of the first adjacent pair of ones in the XOR (1-based,
    2 <= p <= n-1); any word matching both outer words carries forced_window
    (the middle word's symbols) at positions p-1..p+1.
    """

    p: int
    forced_window: str


ThreeWayOutcome = Matching | Blocked


def three_way_match(s1: str, s2: str, s3: str) -> ThreeWayOutcome:
    """Analyze matching of (s1, s3) through a middle word s2.

    Requires s1~s2 and s2~s3 (PrerequisiteNotMatching otherwise). If the XOR
    of the two swap strings has no adjacent ones it IS the swap string of
    (s1, s3); otherwise (s1, s3) do not match, and every word matching both is
    forced to s2's symbols on the 3-window around the collision.
    """
    try:
        h12 = swap_string(s1, s2)
    except NotMatching as e:
        raise PrerequisiteNotMatching(f"s1 and s2 do not match ({e})") from e
    try:
        h23 = swap_string(s2, s3)
    except NotMatching as e:
        raise PrerequisiteNotMatching(f"s2 and s3 do not match ({e})") from e
    h = xor_compose(h12, h23)
    j = h.find("11")
    if j < 0:
        return Matching(SwapStr(h, len(s1)))
    # Bits j, j+1 (0-based) are the first adjacent ones; second 1-based index:
    p = j + 2
    return Blocked(p=p, forced_window=s2[p - 2 : p + 1])


# Symbols reserved by the pad construction.
_PAD_SYMBOLS = ("0", "1")


def pad_mixed(
    q: MixedRadiusQuery | MixedRadiusSumQuery,
) -> tuple[Instance, int] | tuple[Instance, int, int]:
    """Reduce a budgeted query to a plain one by appending binary pads.

    With x = max budget, word s with budget x_s gets the two padded copies
    s + ("01" * x_s + "00" * (x - x_s)) and s + ("10" * x_s + "00" * (x - x_s)).
    The padded instance is radius-d feasible (and sum-2D feasible, for
    radius+sum queries) exactly when the original budgeted query is feasible.
    Returns (instance, d) or (instance, d, 2*D).
    """
    inst = q.budgeted.instance
    present = set(_PAD_SYMBOLS) & set(inst.alphabet)
    if present:
        raise ReservedSymbolPresent(
            f"instance already uses reserved pad symbol(s) {sorted(present)}"
        )
    x = max(q.budgeted.budgets)
    a_rows = []
    b_rows = []
    for w, xs in zip(inst.words, q.budgeted.budgets):
        a_rows.append(w + "01" * xs + "00" * (x - xs))
        b_rows.append(w + "10" * xs + "00" * (x - xs))
    padded = Instance(tuple(a_rows + b_rows))
    if isinstance(q, MixedRadiusSumQuery):
        return padded, q.d, 2 * q.D
    return padded, q.d
