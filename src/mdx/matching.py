"""Bipartite cover graphs G(A,B) and perfect-matching machinery.

For candidates A and B, the cover graph G(A,B) puts the voter set on both
sides and draws an edge from left voter v to right voter v' when
``P_v(B) & Q_{v'}(A) != 0``: some candidate that v likes at least as much as
B is liked at most as much as A by v'.  A perfect matching in G(A,B)
certifies that electing A costs at most three times the social cost of B on
every metric consistent with the profile.

The graph keeps one vertex per voter, but its rows are ORs of voter masks
from the profile's ``cover_table``, one per distinct P_v(B), so no build
expands the profile's counts.  Hopcroft-Karp (1973), seeded fewest
neighbours first, then finds a maximum matching with bitmask frontiers.

``matching_uncovered_set`` decides each pair one way: a weak voter majority
for A over B forces a perfect matching through self-loops, and every other
pair runs Hopcroft-Karp.  ``interval_test`` (exact interval subtraction on
tournament weights) and ``rank_sum_test`` (a degree-sequence test) are
standalone sufficient tests; no membership decision calls them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_

from mdx.profile import VotingProfile, iter_set, pairwise_counts
from mdx.tournament import WeightedTournamentGraph
from mdx.tournament import build_tournament  # not called here; bench/tracing.py patches this name

__all__ = [
    "OracleLimitError",
    "BipartiteCoverGraph",
    "MatchingResult",
    "RatInterval",
    "IntervalDifference",
    "build_cover_graph",
    "max_matching",
    "is_perfect_matching",
    "hall_violator",
    "interval_test",
    "subtract_intervals",
    "rank_sum_test",
    "matching_uncovered_set",
]

HALL_ORACLE_LIMIT = 12


class OracleLimitError(ValueError):
    """Graph too large for the brute-force Hall oracle."""


@dataclass(frozen=True)
class BipartiteCoverGraph:
    """Adjacency of G(a, b) as one bitmask of right vertices per left vertex."""

    m: int
    rows: tuple[int, ...]
    a: int
    b: int

    def has_edge(self, v: int, vp: int) -> bool:
        return bool(self.rows[v] >> vp & 1)


@dataclass(frozen=True)
class MatchingResult:
    """matching[v] is the right vertex matched to left v, or -1."""

    size: int
    matching: tuple[int, ...]
    perfect: bool

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((v, r) for v, r in enumerate(self.matching) if r >= 0)


@dataclass(frozen=True)
class RatInterval:
    """A rational interval with explicit endpoint openness."""

    lo: Fraction
    hi: Fraction
    lo_open: bool = False
    hi_open: bool = False

    def is_empty(self) -> bool:
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and (self.lo_open or self.hi_open)

    def __str__(self) -> str:
        left = "(" if self.lo_open else "["
        right = ")" if self.hi_open else "]"
        return f"{left}{self.lo}, {self.hi}{right}"


@dataclass(frozen=True)
class IntervalDifference:
    """base minus the union of the subtracted closed intervals."""

    base: RatInterval
    subtracted: tuple[RatInterval, ...]
    remainder: tuple[RatInterval, ...]

    @property
    def remainder_empty(self) -> bool:
        return not self.remainder


def build_cover_graph(p: VotingProfile, a: int | str, b: int | str) -> BipartiteCoverGraph:
    """Construct G(a, b) from the profile's cover table, never expanding voters.

    A left voter's row depends only on P_v(b): it is the OR, over c in
    P_v(b), of the voters ranking c at or below a.  ``p.cover_table`` holds
    those voter masks and each run's index into b's distinct P-sets, so a
    pair costs at most n ORs per distinct P-set and one row list per run.
    """
    ai, bi = p.index(a), p.index(b)
    if ai == bi:
        raise ValueError("cover graph needs two distinct candidates")
    below, tops = p.cover_table
    columns, (sets, index) = below[ai], tops[bi]
    row_of = [reduce(or_, [columns[c] for c in top]) for top in sets]
    rows: list[int] = []
    for (_, count), i in zip(p.runs, index):
        rows += [row_of[i]] * count
    return BipartiteCoverGraph(p.m, tuple(rows), ai, bi)


def max_matching(g: BipartiteCoverGraph) -> MatchingResult:
    """Maximum bipartite matching via Hopcroft-Karp on bitmask adjacency.

    The greedy seed visits groups of identical rows fewest neighbours first
    (ties first seen); each vertex takes the lowest right vertex still free
    in its row, read off one bit-string scan per group rather than m-bit
    operations per vertex.  On cover graphs the seed is usually maximum.
    Each phase's BFS records layers[k], the right vertices first reached
    from left layer k, so it expands every right vertex once; the DFS,
    iterative with an explicit stack, takes each right vertex at most once
    per phase.
    """
    m, rows = g.m, g.rows
    match_l = [-1] * m
    match_r = [-1] * m

    groups: dict[int, list[int]] = {}
    last = None
    for v, row in enumerate(rows):
        if row is not last:  # clones share one row object: hash it once per run
            group, last = groups.setdefault(row, []), row
        group.append(v)
    free_r = (1 << m) - 1
    for row in sorted(groups, key=int.bit_count):
        avail = row & free_r
        bits, r = bin(avail)[:1:-1], -1
        for v in groups[row][: avail.bit_count()]:
            r = bits.find("1", r + 1)
            match_l[v] = r
            match_r[r] = v
        free_r ^= avail & ((1 << (r + 1)) - 1)
    size = m - match_l.count(-1)

    while size < m:
        frontier = free_l = [v for v in range(m) if match_l[v] < 0]
        unseen = (1 << m) - 1
        layers = []
        while frontier:
            layer = 0
            for v in frontier:
                layer |= rows[v]
            layer &= unseen
            unseen ^= layer
            layers.append(layer)
            if layer & free_r:
                break
            frontier = [match_r[r] for r in iter_set(layer)]
        else:
            break  # no augmenting path: the matching is maximum
        # Only free right vertices end a shortest path in the last layer.
        layers[-1] &= free_r
        avail = (1 << m) - 1
        for s in free_l:
            path, rights = [s], []
            while path:
                cand = rows[path[-1]] & avail & layers[len(path) - 1]
                if not cand:
                    path.pop()
                    if rights:
                        rights.pop()
                    continue
                low = cand & -cand
                avail ^= low
                rights.append(low.bit_length() - 1)
                if low & free_r:
                    free_r ^= low
                    for v, r in zip(path, rights):
                        match_l[v] = r
                        match_r[r] = v
                    size += 1
                    break
                path.append(match_r[rights[-1]])
    return MatchingResult(size, tuple(match_l), size == m)


def is_perfect_matching(g: BipartiteCoverGraph, pairs: list[tuple[int, int]] | tuple) -> bool:
    """Validate an explicit left-right pairing as a perfect matching of g."""
    if len(pairs) != g.m:
        return False
    lefts = {v for v, _ in pairs}
    rights = {r for _, r in pairs}
    if len(lefts) != g.m or len(rights) != g.m:
        return False
    return all(g.has_edge(v, r) for v, r in pairs)


def hall_violator(g: BipartiteCoverGraph) -> int | None:
    """Brute-force Hall-condition oracle.

    Returns a bitmask S of left vertices with |N(S)| < |S|, or None when no
    violator exists (equivalently, a perfect matching exists).
    """
    m = g.m
    if m > HALL_ORACLE_LIMIT:
        raise OracleLimitError(f"Hall oracle capped at m <= {HALL_ORACLE_LIMIT}, got {m}")
    neighborhoods = [0] * (1 << m)
    for s in range(1, 1 << m):
        low = s & -s
        neighborhoods[s] = neighborhoods[s ^ low] | g.rows[low.bit_length() - 1]
        if neighborhoods[s].bit_count() < s.bit_count():
            return s
    return None


def _below(piece: RatInterval, cut: Fraction) -> RatInterval:
    """piece intersected with (-inf, cut), the cut point excluded."""
    if cut > piece.hi or (cut == piece.hi and piece.hi_open):
        return piece
    return RatInterval(piece.lo, cut, piece.lo_open, True)


def _above(piece: RatInterval, cut: Fraction) -> RatInterval:
    """piece intersected with (cut, +inf), the cut point excluded."""
    if cut < piece.lo or (cut == piece.lo and piece.lo_open):
        return piece
    return RatInterval(cut, piece.hi, True, piece.hi_open)


def subtract_intervals(base: RatInterval, closed: list[RatInterval]) -> tuple[RatInterval, ...]:
    """Subtract closed intervals from base, keeping exact endpoint openness."""
    pieces = [] if base.is_empty() else [base]
    for sub in closed:
        if sub.is_empty():
            continue
        next_pieces = []
        for piece in pieces:
            left = _below(piece, sub.lo)
            right = _above(piece, sub.hi)
            if not left.is_empty():
                next_pieces.append(left)
            if not right.is_empty() and right != left:
                next_pieces.append(right)
        pieces = next_pieces
    return tuple(pieces)


def interval_test(g: WeightedTournamentGraph, a: int | str, b: int | str) -> IntervalDifference:
    """Exact interval subtraction certifying perfect matchings.

    Computes (w(a,b), w(b,a)) minus the union over other candidates c of
    [w(c,a), w(c,b)].  An empty remainder guarantees that G(a,b) of every
    profile inducing g has a perfect matching; a nonempty remainder proves
    nothing in either direction.
    """
    ai, bi = g.index(a), g.index(b)
    if ai == bi:
        raise ValueError("interval test needs two distinct candidates")
    w = g.weight
    base = RatInterval(w[ai][bi], w[bi][ai], True, True)
    subtracted = tuple(
        RatInterval(w[c][ai], w[c][bi], False, False)
        for c in range(g.n)
        if c != ai and c != bi
    )
    remainder = subtract_intervals(base, list(subtracted))
    return IntervalDifference(base, subtracted, remainder)


def rank_sum_test(p: VotingProfile, a: int | str, b: int | str) -> int | None:
    """Degree-sequence test for G(a, b).

    Sorts the left degrees-proxy |P_v(b)| descending and |Q_v(a)| ascending;
    returns the least 1-based k whose pair sums to at most n, else None.
    When no such k exists a perfect matching is guaranteed; when one exists
    nothing follows (the test can fire on graphs that still have one).

    Both sorted lists are kept as (size, voter count) runs and walked
    together one segment at a time, so voters are never expanded.
    """
    ai, bi = p.index(a), p.index(b)
    if ai == bi:
        raise ValueError("rank-sum test needs two distinct candidates")
    n = p.n
    p_count = [0] * (n + 1)
    q_count = [0] * (n + 1)
    for order, count in p.types:
        p_count[order.index(bi) + 1] += count
        q_count[n - order.index(ai)] += count
    p_runs = ((s, p_count[s]) for s in range(n, 0, -1) if p_count[s])
    q_runs = ((s, q_count[s]) for s in range(1, n + 1) if q_count[s])
    (p_size, p_left), (q_size, q_left) = next(p_runs), next(q_runs)
    k = 0
    while True:
        if p_size + q_size <= n:
            return k + 1
        step = min(p_left, q_left)
        k += step
        if k == p.m:
            return None
        p_left -= step
        q_left -= step
        if not p_left:
            p_size, p_left = next(p_runs)
        if not q_left:
            q_size, q_left = next(q_runs)


def matching_uncovered_set(p: VotingProfile) -> int:
    """Candidates A whose cover graph G(A,B) has a perfect matching for all B.

    A weak voter majority for A over B forces a perfect matching through
    self-loops; every other pair runs Hopcroft-Karp on G(A,B).
    """
    n = p.n
    if n == 1:
        return 1
    counts = pairwise_counts(p)
    members = 0
    for a in range(n):
        if all(
            2 * counts[a][b] >= p.m or max_matching(build_cover_graph(p, a, b)).perfect
            for b in range(n)
            if b != a
        ):
            members |= 1 << a
    return members
