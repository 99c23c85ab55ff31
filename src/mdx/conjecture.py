"""Exhaustive verification of the cycle-matching conjecture.

Take the candidates in index order as a directed cycle X_1 -> X_2 ->
... -> X_n -> X_1.  The conjecture under test says that for every
voting profile, at least one cover graph G(X_i, X_(i+1)) along the
cycle admits a perfect matching.

The verifier enumerates one representative per equivalence class of
profiles under (i) voter reordering and (ii) simultaneous cyclic
relabeling of the candidates.  Both operations preserve the condition:
voters are interchangeable in every cover graph, and the relabeling
maps the cycle's edge set onto itself.  Reflections do not preserve the
edge set (they reverse the cycle) and are deliberately not quotiented.

The hot path is vectorized: profiles are nondecreasing rank tuples over
the n! orderings, scanned per first rank in blocks: each block is a run
of tuples that share a prefix and follow one another in lexicographic
order, held as the rows of one numpy array.  A row is canonical when no rotation of the
candidate labels, applied to the row and re-sorted, compares below it.
A sound majority shortcut (if at least half the voters prefer X_i to
X_(i+1), G(X_i, X_(i+1)) always has a perfect matching) is decided per
block too, as one packed integer sum per row; only the rare survivors
run the exact check, Hall's condition over candidate sets on a rank table.
"""

from __future__ import annotations

import math
import os
import time
from bisect import bisect_right
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, permutations
from typing import Iterator, Sequence

import numpy as np

from mdx.matching import build_cover_graph, max_matching
from mdx.profile import VotingProfile, default_candidates

__all__ = [
    "DEFAULT_BUDGET",
    "EdgeCheck",
    "CycleCheck",
    "Verdict",
    "check_cycle_condition",
    "count_canonical",
    "enumerate_profiles",
    "verify_conjecture",
]

DEFAULT_BUDGET = 20_000_000
# Most rows in one scanned block of rank tuples.  Larger blocks scan the
# benchmark cells no faster and raise peak memory.
_BLOCK_ROWS = 1 << 11


@dataclass(frozen=True)
class EdgeCheck:
    """Result for one directed cycle edge (X_i, X_(i+1)): whether its
    cover graph has a perfect matching, decided by Hopcroft-Karp."""

    pair: tuple[str, str]
    found: bool


@dataclass(frozen=True)
class CycleCheck:
    """Per-edge results around the candidate cycle."""

    edges: tuple[EdgeCheck, ...]

    @property
    def satisfied(self) -> bool:
        """True when some cycle edge's cover graph has a perfect matching."""
        if not self.edges:
            return True
        return any(e.found for e in self.edges)


@dataclass(frozen=True)
class Verdict:
    """Outcome of an exhaustive (n, m) sweep.

    status is one of "verified", "counterexample", "budget-exceeded".
    profiles_checked counts canonical representatives examined; on a
    counterexample it counts those up to and including it in
    enumeration order, which makes it independent of worker count.
    """

    status: str
    n: int
    m: int
    profiles_checked: int
    elapsed: float
    counterexample: VotingProfile | None = None


def check_cycle_condition(p: VotingProfile) -> CycleCheck:
    """Decide perfect-matching existence for every consecutive cycle pair,
    running Hopcroft-Karp on each cycle edge's cover graph."""
    n = p.n
    if n < 2:
        return CycleCheck(())
    return CycleCheck(tuple(
        EdgeCheck(
            (p.candidates[i], p.candidates[(i + 1) % n]),
            max_matching(build_cover_graph(p, i, (i + 1) % n)).perfect,
        )
        for i in range(n)
    ))


def count_canonical(n: int, m: int) -> int:
    """Number of equivalence classes, by orbit counting.

    A rotation of order h acts freely on the n! orderings (n!/h cycles
    of length h); a voter multiset of size m is fixed iff h divides m
    and the multiset is a weight-(m/h) multiset of those cycles.
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 candidates and m >= 1 voters")
    fact = math.factorial(n)
    total = 0
    for k in range(n):
        h = n // math.gcd(n, k)
        if m % h:
            continue
        total += math.comb(fact // h + m // h - 1, m // h)
    return total // n


@lru_cache(maxsize=None)
def _tables(n: int):
    """Per-n lookup tables keyed by ordering rank (lexicographic).

    rot[k][r]: rank of ordering r after relabeling every candidate
    c -> (c+k) mod n.  fwd[j][r]: 1 iff ordering r prefers X_j to
    X_(j+1 mod n).
    """
    perms = list(permutations(range(n)))
    orders = np.array(perms, dtype=np.int64)
    # Base-n keys sort like the orderings, so a key's position is its rank.
    weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = orders @ weights
    rot = np.stack([
        np.searchsorted(keys, (orders + k) % n @ weights) for k in range(n)
    ]).astype(np.int32)
    pos = np.argsort(orders, axis=1)
    fwd = (pos < np.roll(pos, -1, axis=1)).T.astype(np.int32)
    return perms, rot, fwd


def _profile_from_ranks(n: int, ranks: Sequence[int]) -> VotingProfile:
    perms, *_ = _tables(n)
    return VotingProfile(default_candidates(n), tuple(perms[r] for r in ranks))


@lru_cache(maxsize=None)
def _hall_table(n: int) -> np.ndarray:
    """hall[r, j, u] = [P_r(X_(j+1)) within U] + [Q_r(X_j) misses U] for the
    u-th set U holding X_(j+1) but not X_j (all others pass Hall), where
    ordering r ranks P_r(B) at or above B and Q_r(A) at or below A."""
    pos = np.argsort(_tables(n)[0], axis=1)
    edge = np.arange(n)
    above = (pos[:, None, :] <= pos[:, (edge + 1) % n, None]) @ (1 << edge)
    below = (pos[:, None, :] >= pos[:, edge, None]) @ (1 << edge)
    sets = np.arange(1 << n)
    sets = np.stack([sets[(sets >> (j + 1) % n & 1 == 1) & (sets >> j & 1 == 0)] for j in edge])
    return ((above[..., None] & ~sets) == 0).astype(np.int8) + ((below[..., None] & sets) == 0)


def _cycle_edges_match(n: int, rows: np.ndarray) -> np.ndarray:
    """matched[i, j]: whether G(X_j, X_(j+1)) has a perfect matching for the
    voters at ranks rows[i]: by Hall, iff every U sums to at most m in the table."""
    return (_hall_table(n)[rows].sum(axis=1) <= rows.shape[1]).all(axis=2)


def _packed_tally(n: int, m: int) -> tuple[np.ndarray, int, int]:
    """(code, bias, high): m voters holding ranks give no cycle edge a weak
    majority iff (code[ranks].sum() + bias) & high == 0.  code[r] packs fwd[:, r]
    in w-bit fields, room for m plus a high bit the bias sets iff 2 * votes >= m."""
    w = m.bit_length() + 1
    fields = 1 << np.arange(0, n * w, w, dtype=np.int64)
    ones = int(fields.sum())
    return _tables(n)[2].T @ fields, ones * ((1 << w - 1) - (m + 1) // 2), ones << w - 1


def enumerate_profiles(n: int, m: int) -> Iterator[VotingProfile]:
    """Yield one canonical profile per equivalence class, in rank order.

    Profiles are nondecreasing rank tuples (voter order quotiented);
    canonical means lexicographically minimal among the n simultaneous
    rotations of the candidate labels (each rotation re-sorted).
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 candidates and m >= 1 voters")
    perms, rot, *_ = _tables(n)
    rotations = [rot[k].tolist() for k in range(1, n)]
    for seq in combinations_with_replacement(range(len(perms)), m):
        if all(tuple(sorted(table[r] for r in seq)) >= seq for table in rotations):
            yield _profile_from_ranks(n, seq)


def _nondecreasing(size: int, length: int, firsts: int) -> np.ndarray:
    """Every nondecreasing `length`-tuple over range(size) whose first entry
    is below `firsts`, in lexicographic order, as the rows of one array."""
    rows = np.zeros((1, 0), dtype=np.intp)
    for step in range(length, 0, -1):
        # Prefix each i to the rows whose first entry is >= i, a suffix.
        heads = np.arange(firsts if step == 1 else size)
        starts = np.searchsorted(rows[:, 0], heads) if rows.shape[1] else np.zeros_like(heads)
        sizes = len(rows) - starts
        shift = np.repeat(starts - np.cumsum(sizes) + sizes, sizes)
        rows = np.column_stack((np.repeat(heads, sizes), rows[np.arange(len(shift)) + shift]))
    return rows


def _blocks(size: int, length: int, head: tuple[int, ...] = ()):
    """Split the nondecreasing `length`-tuples over range(size) that extend
    `head` into blocks of at most _BLOCK_ROWS rows, in lexicographic order.

    Yields (head, tails): each block is `head` followed by every row of
    `tails`.  A block takes a run of consecutive first entries; a first
    entry with too many rows alone joins the head and is split in turn.
    """
    if length == 0:
        yield head, np.zeros((1, 0), dtype=np.intp)
        return

    def tuples(lo: int) -> int:  # how many draw only from range(lo, size)
        return math.comb(size - lo + length - 1, length)

    i = head[-1] if head else 0
    while i < size:
        # The longest run i..j-1 of first entries whose rows fit one block.
        j = i - 1 + bisect_right(
            range(i, size + 1), _BLOCK_ROWS - tuples(i), key=lambda lo: -tuples(lo)
        )
        if j == i:
            yield from _blocks(size, length - 1, (*head, i))
            j += 1
        else:
            yield head, _nondecreasing(size - i, length, j - i) + i
        i = j


def _scan_shard(n: int, m: int, lo: int, hi: int) -> tuple[int, tuple[int, ...] | None]:
    """Scan canonical profiles whose first (smallest) rank lies in [lo, hi).

    Returns (count, counterexample): the number of canonical profiles
    examined, and the first rank tuple failing the cycle condition, if
    any.  On a counterexample the count covers representatives up to
    and including it in enumeration order.

    Only ranks below (n-1)!, the orderings that start with candidate 0,
    can lead a canonical profile: each is the lowest rank of its
    rotation orbit, so [lo, hi) lies within range((n-1)!).  Per first
    rank r0, a rank that some rotation sends below r0 never appears
    (that rotated profile would sort first), so the rest of the tuple
    draws from the remaining ranks.  Those tuples are scanned in blocks
    of at most _BLOCK_ROWS rows, each one (rows, m) array in
    lexicographic order.  A row is canonical iff, for every rotation,
    the rotated row once sorted is lexicographically no smaller than the
    row itself.  A canonical row with no weak majority for any cycle
    edge (2 * votes >= m, one packed sum per row) goes, in order, through
    the exact check, Hall's condition over candidate sets.
    """
    perms, rot, _ = _tables(n)
    lowest = rot[1:].min(axis=0)
    code, bias, high = _packed_tally(n, m)
    checked = 0
    for r0 in range(lo, hi):
        ranks = np.flatnonzero(lowest[r0:] >= r0) + r0
        # via[r] = k > 0 when rotation k sends rank r to r0.  A row holding
        # no such rank rotates to ranks above r0 only, so it sorts after
        # the row: only the (row, rotation) pairs that reach r0 are tested.
        via = np.zeros(len(perms), dtype=np.intp)
        via[rot[:0:-1, r0]] = np.arange(1, n)
        for head, tails in _blocks(ranks.size, m - 1):
            rows = ranks[np.column_stack((np.tile([0, *head], (len(tails), 1)), tails))]
            hits = via[rows]
            at, col = np.nonzero(hits)
            sub = rows[at]
            turned = np.sort(rot[hits[at, col][:, None], sub], axis=1)
            first = (turned != sub).argmax(axis=1)
            pair = np.arange(len(at))
            canon = np.ones(len(rows), dtype=bool)
            canon[at[turned[pair, first] < sub[pair, first]]] = False
            kept = rows[canon]
            opened = np.flatnonzero(((code[kept].sum(axis=1) + bias) & high) == 0)
            if opened.size:
                failed = opened[~_cycle_edges_match(n, kept[opened]).any(axis=1)]
                if failed.size:
                    return checked + int(failed[0]) + 1, tuple(kept[failed[0]].tolist())
            checked += len(kept)
    return checked, None


def _shard_ranges(size: int, workers: int) -> list[tuple[int, int]]:
    shards = min(size, max(1, workers) * 4)
    bounds = [round(i * size / shards) for i in range(shards + 1)]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def verify_conjecture(
    n: int,
    m: int,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
) -> Verdict:
    """Check the cycle condition on every canonical (n, m) profile.

    Work shards by first-voter rank range, over the (n-1)! ranks that can
    lead a canonical profile, across at most `workers` processes, no more
    than there are shards or CPUs; results are combined in shard order,
    so the verdict and the count are identical for any worker count.  If
    the class count exceeds `budget`, returns status "budget-exceeded"
    without scanning.
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 candidates and m >= 1 voters")
    start = time.perf_counter()
    if count_canonical(n, m) > budget:
        return Verdict("budget-exceeded", n, m, 0, time.perf_counter() - start)
    if n * (m.bit_length() + 1) > 63:
        raise ValueError(f"{n} candidates and {m} voters overflow the 64-bit majority tally")
    size = math.factorial(n - 1)
    checked = 0
    ce: tuple[int, ...] | None = None
    if workers <= 1:
        checked, ce = _scan_shard(n, m, 0, size)
    else:
        shards = _shard_ranges(size, workers)
        procs = min(workers, len(shards), os.cpu_count() or 1)
        with ProcessPoolExecutor(max_workers=procs) as pool:
            futures = [pool.submit(_scan_shard, n, m, a, b) for a, b in shards]
            for fut in futures:
                count, shard_ce = fut.result()
                checked += count
                if shard_ce is not None:
                    ce = shard_ce
                    for later in futures:
                        later.cancel()
                    break
    elapsed = time.perf_counter() - start
    if ce is not None:
        return Verdict("counterexample", n, m, checked, elapsed, _profile_from_ranks(n, ce))
    return Verdict("verified", n, m, checked, elapsed)
