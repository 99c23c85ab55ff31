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

The hot path is vectorized: profiles are rank tuples over the n!
orderings, enumerated as nondecreasing sequences, with the last voter's
rank swept as a numpy vector.  Canonicality under rotation and a sound
majority shortcut (if at least half the voters prefer X_i to X_(i+1),
G(X_i, X_(i+1)) always has a perfect matching) are decided per block;
only the rare survivors run an exact check, with the cover graphs and
matcher of :mod:`mdx.matching`.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import Iterator, Sequence

import numpy as np

from mdx.matching import build_cover_graph, interval_test, max_matching
from mdx.profile import VotingProfile, default_candidates
from mdx.tournament import build_tournament

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


@dataclass(frozen=True)
class EdgeCheck:
    """Result for one directed cycle edge (X_i, X_(i+1)).

    ``method`` records what decided it: "interval" when the interval
    shortcut certified a perfect matching, "matching" when the full
    matching ran.  Absence can only be established by "matching".
    """

    pair: tuple[str, str]
    found: bool
    method: str


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


def check_cycle_condition(p: VotingProfile, use_fast_paths: bool = True) -> CycleCheck:
    """Decide perfect-matching existence for every consecutive cycle pair.

    Fast path (a): an empty interval-test remainder certifies a perfect
    matching without building one.  Fast path (b) is the matching itself.
    """
    n = p.n
    if n < 2:
        return CycleCheck(())
    g = build_tournament(p) if use_fast_paths else None
    edges = []
    for i in range(n):
        a, b = i, (i + 1) % n
        pair = (p.candidates[a], p.candidates[b])
        if use_fast_paths and interval_test(g, a, b).remainder_empty:
            edges.append(EdgeCheck(pair, True, "interval"))
            continue
        res = max_matching(build_cover_graph(p, a, b))
        edges.append(EdgeCheck(pair, res.perfect, "matching"))
    return CycleCheck(tuple(edges))


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
    rank = {s: i for i, s in enumerate(perms)}
    size = len(perms)
    rot = np.zeros((n, size), dtype=np.int32)
    for k in range(n):
        for r, s in enumerate(perms):
            rot[k, r] = rank[tuple((c + k) % n for c in s)]
    fwd = np.zeros((n, size), dtype=np.int32)
    for r, s in enumerate(perms):
        pos = {c: i for i, c in enumerate(s)}
        for j in range(n):
            fwd[j, r] = 1 if pos[j] < pos[(j + 1) % n] else 0
    return perms, rot, fwd


def _profile_from_ranks(n: int, ranks: Sequence[int]) -> VotingProfile:
    perms, *_ = _tables(n)
    return VotingProfile(default_candidates(n), tuple(perms[r] for r in ranks))


def enumerate_profiles(n: int, m: int) -> Iterator[VotingProfile]:
    """Yield one canonical profile per equivalence class, in rank order.

    Profiles are nondecreasing rank tuples (voter order quotiented);
    canonical means lexicographically minimal among the n simultaneous
    rotations of the candidate labels (each rotation re-sorted).
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 candidates and m >= 1 voters")
    perms, rot, *_ = _tables(n)
    size = len(perms)
    rotations = [rot[k].tolist() for k in range(1, n)]

    def canonical(seq: tuple[int, ...]) -> bool:
        return all(
            tuple(sorted(table[r] for r in seq)) >= seq for table in rotations
        )

    names = default_candidates(n)
    stack = [0] * m

    def rec(depth: int, lo: int) -> Iterator[tuple[int, ...]]:
        if depth == m:
            seq = tuple(stack)
            if canonical(seq):
                yield seq
            return
        for r in range(lo, size):
            stack[depth] = r
            yield from rec(depth + 1, r)

    for seq in rec(0, 0):
        yield VotingProfile(names, tuple(perms[r] for r in seq))


def _scan_shard(
    n: int, m: int, lo: int, hi: int, use_fast_paths: bool
) -> tuple[int, tuple[int, ...] | None]:
    """Scan canonical profiles whose first (smallest) rank lies in [lo, hi).

    Returns (count, counterexample): the number of canonical profiles
    examined, and the first rank tuple failing the cycle condition, if
    any.  On a counterexample the count covers representatives up to
    and including it in enumeration order.

    Canonicality against each rotation is decided on the multiplicity
    difference D = counts(profile) - counts(rotated profile): the
    profile is weakly minimal iff D's entry at the smallest index where
    it is nonzero is positive (more copies of a smaller rank sorts
    first) or D is identically zero.  For the vectorized last voter t
    (rotating to u != t), only positions t and u shift, so the first
    nonzero entry lies among t, u and the first three nonzero positions
    of the prefix-only difference.
    """
    perms, rot, fwd = _tables(n)
    size = len(perms)
    nrot = n - 1
    rotk = rot[1:]
    # Two trailing zero slots: `size` is the "no critical position"
    # sentinel and `size + 1` marks masked-out comparison entries.
    diff = np.zeros((nrot, size + 2), dtype=np.int32)
    cnt_fwd = [0] * n
    prefix: list[int] = []

    def leaf(lo_t: int, hi_t: int) -> tuple[int, tuple[int, ...] | None]:
        tails = np.arange(lo_t, hi_t, dtype=np.int32)
        if tails.size == 0:
            return 0, None
        canon = np.ones(tails.size, dtype=bool)
        cand = np.empty((5, tails.size), dtype=np.int32)
        for k in range(nrot):
            base = diff[k]
            crit = np.flatnonzero(base[:size])
            v0 = crit[0] if crit.size > 0 else size
            v1 = crit[1] if crit.size > 1 else size
            v2 = crit[2] if crit.size > 2 else size
            u = rotk[k, lo_t:hi_t]
            cand[0] = tails
            cand[1] = u
            cand[2] = v0
            cand[3] = v1
            cand[4] = v2
            dv = base[cand] + (cand == tails) - (cand == u)
            pos = np.where(dv != 0, cand, size + 1)
            arg = np.argmin(pos, axis=0)
            cols = np.arange(tails.size)
            first = pos[arg, cols]
            val = dv[arg, cols]
            canon &= (first == size + 1) | (val > 0)
            if not canon.any():
                return 0, None
        checked = int(canon.sum())
        if use_fast_paths:
            fast = np.zeros(tails.size, dtype=bool)
            for j in range(n):
                fast |= 2 * (cnt_fwd[j] + fwd[j, lo_t:hi_t]) >= m
            need = canon & ~fast
        else:
            need = canon
        if need.any():
            for i in np.flatnonzero(need):
                ranks = (*prefix, int(tails[i]))
                p = _profile_from_ranks(n, ranks)
                if not any(
                    max_matching(build_cover_graph(p, j, (j + 1) % n)).perfect
                    for j in range(n)
                ):
                    return int(canon[: i + 1].sum()), ranks
        return checked, None

    def descend(
        depth: int, lo_d: int, hi_d: int, runmin: np.ndarray | None
    ) -> tuple[int, tuple[int, ...] | None]:
        total = 0
        for r in range(lo_d, hi_d):
            newmin = rotk[:, r] if runmin is None else np.minimum(runmin, rotk[:, r])
            first_rank = prefix[0] if prefix else r
            # Some rotation already produced a rank below the leading
            # one; every extension sorts strictly above its rotation.
            if (newmin < first_rank).any():
                continue
            prefix.append(r)
            for j in range(n):
                cnt_fwd[j] += int(fwd[j, r])
            for k in range(nrot):
                diff[k, r] += 1
                diff[k, rotk[k, r]] -= 1
            if depth == m - 2:
                count, ce = leaf(r, size)
            else:
                count, ce = descend(depth + 1, r, size, newmin)
            prefix.pop()
            for j in range(n):
                cnt_fwd[j] -= int(fwd[j, r])
            for k in range(nrot):
                diff[k, r] -= 1
                diff[k, rotk[k, r]] += 1
            total += count
            if ce is not None:
                return total, ce
        return total, None

    if m == 1:
        return leaf(lo, hi)
    return descend(0, lo, hi, None)


def _shard_ranges(size: int, workers: int) -> list[tuple[int, int]]:
    shards = min(size, max(1, workers) * 4)
    bounds = [round(i * size / shards) for i in range(shards + 1)]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def verify_conjecture(
    n: int,
    m: int,
    workers: int = 1,
    budget: int = DEFAULT_BUDGET,
    use_fast_paths: bool = True,
) -> Verdict:
    """Check the cycle condition on every canonical (n, m) profile.

    Work shards by first-voter rank range across `workers` processes;
    results are combined in shard order, so the verdict and the count
    are identical for any worker count.  If the class count exceeds
    `budget`, returns status "budget-exceeded" without scanning.
    """
    if n < 2 or m < 1:
        raise ValueError("need n >= 2 candidates and m >= 1 voters")
    start = time.perf_counter()
    if count_canonical(n, m) > budget:
        return Verdict("budget-exceeded", n, m, 0, time.perf_counter() - start)
    size = math.factorial(n)
    checked = 0
    ce: tuple[int, ...] | None = None
    if workers <= 1:
        checked, ce = _scan_shard(n, m, 0, size, use_fast_paths)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_scan_shard, n, m, a, b, use_fast_paths)
                for a, b in _shard_ranges(size, workers)
            ]
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
