"""Reference computations that check mdx reports without using mdx.

Everything here works from the benchmark's own type tables (distinct
orderings with voter counts, candidates indexed A=0, B=1, ...), never from
a parsed mdx profile, and shares no code with the package.  Ties between
candidates are broken by the smallest name, which for the generated names
A, B, C, ... is the smallest index.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import permutations

import numpy as np

LP_TOL = 1e-6
TIE_TOL = 1e-9


# ---------------------------------------------------------------------------
# tallies and tournament rules


def tally(types, counts, n: int) -> np.ndarray:
    """C[x, y] = number of voters ranking x above y."""
    orders = np.asarray(types, dtype=np.int64).reshape(-1, n)
    pos = np.argsort(orders, axis=1)
    above = pos[:, :, None] < pos[:, None, :]
    return np.einsum("t,txy->xy", np.asarray(counts, dtype=np.int64), above.astype(np.int64))


def _weak_beats(c: np.ndarray, m: int) -> np.ndarray:
    beats = 2 * c >= m
    np.fill_diagonal(beats, False)
    return beats


def copeland(c: np.ndarray, m: int) -> tuple[int, list[int]]:
    """Winner and scores; a pairwise tie counts as a win for both."""
    scores = _weak_beats(c, m).sum(axis=1).tolist()
    return scores.index(max(scores)), scores


def uncovered(c: np.ndarray, m: int) -> list[int]:
    """Candidates reaching every other one in one or two weak-majority steps."""
    beats = _weak_beats(c, m).astype(np.int64)
    reach = (beats + beats @ beats) > 0
    np.fill_diagonal(reach, True)
    return [a for a in range(len(c)) if reach[a].all()]


def _at_least_phi(count: int, m: int) -> bool:
    """count >= phi*m with phi = (sqrt(5)-1)/2; sqrt(5)*m is irrational."""
    return 2 * count + m > math.isqrt(5 * m * m)


def _at_least_one_minus_phi(count: int, m: int) -> bool:
    """count >= (1-phi)*m, i.e. 3m - 2*count <= sqrt(5)*m."""
    return 3 * m - 2 * count <= math.isqrt(5 * m * m)


def phi_uncovered(c: np.ndarray, m: int) -> list[int]:
    """The phi-weighted uncovered set (phi >= 1/2, so the direct test uses 1-phi)."""
    n = len(c)
    lo = [[_at_least_one_minus_phi(int(c[x, y]), m) for y in range(n)] for x in range(n)]
    hi = [[_at_least_phi(int(c[x, y]), m) for y in range(n)] for x in range(n)]
    members = []
    for a in range(n):
        if all(
            lo[a][b] or any(lo[a][k] and hi[k][b] for k in range(n) if k not in (a, b))
            for b in range(n)
            if b != a
        ):
            members.append(a)
    return members


def schulze(c: np.ndarray) -> tuple[int, np.ndarray]:
    """Widest paths over all pairwise counts; winner defends against everyone."""
    n = len(c)
    p = c.astype(np.int64).copy()
    np.fill_diagonal(p, 0)
    for k in range(n):
        via = np.minimum(p[:, k : k + 1], p[k : k + 1, :])
        p = np.maximum(p, via)
        np.fill_diagonal(p, 0)
    ok = [x for x in range(n) if all(p[x, y] >= p[y, x] for y in range(n) if y != x)]
    return ok[0], p


def ranked_pairs(c: np.ndarray, m: int) -> int:
    """Lock strict-majority edges by decreasing count unless they close a cycle."""
    n = len(c)
    edges = sorted(
        ((x, y) for x in range(n) for y in range(n) if x != y and 2 * c[x, y] > m),
        key=lambda e: (-int(c[e]), e[0], e[1]),
    )
    reach = np.eye(n, dtype=bool)
    incoming = [False] * n
    for x, y in edges:
        if reach[y, x]:
            continue
        incoming[y] = True
        reach |= np.outer(reach[:, x], reach[y, :])
    return incoming.index(False)


def smith_set(c: np.ndarray, m: int) -> list[int] | None:
    """Top cycle of the strict majority tournament; None if some pair ties."""
    n = len(c)
    off = ~np.eye(n, dtype=bool)
    if (2 * c[off] == m).any():
        return None
    reach = (2 * c > m) | np.eye(n, dtype=bool)
    for k in range(n):
        reach |= np.outer(reach[:, k], reach[k, :])
    return [x for x in range(n) if reach[x].all()]


def condorcet_winner(c: np.ndarray, m: int) -> int | None:
    n = len(c)
    for x in range(n):
        if all(2 * c[x, y] > m for y in range(n) if y != x):
            return x
    return None


def cyclic_symmetry(c: np.ndarray) -> bool:
    """Brute force over all (n-1)! single n-cycles tau: c[tau x, tau y] == c[x, y]."""
    n = len(c)
    if n == 1:
        return True
    cycles = []
    for rest in permutations(range(1, n)):
        chain = (0, *rest)
        tau = [0] * n
        for i in range(n):
            tau[chain[i]] = chain[(i + 1) % n]
        cycles.append(tau)
    taus = np.asarray(cycles)
    image = c[taus[:, :, None], taus[:, None, :]]
    return bool((image == c).all(axis=(1, 2)).any())


def preserves(c: np.ndarray, cycle: list[int]) -> bool:
    """True iff the single cycle (as listed candidate indices) preserves c."""
    n = len(c)
    if sorted(cycle) != list(range(n)):
        return False
    tau = [0] * n
    for i, x in enumerate(cycle):
        tau[x] = cycle[(i + 1) % n]
    t = np.asarray(tau)
    return bool((c[t[:, None], t[None, :]] == c).all())


# ---------------------------------------------------------------------------
# cover graphs and matchings


def _rank_table(types, n: int) -> np.ndarray:
    """rank[t, c] = position of candidate c in type t (0 = top)."""
    return np.argsort(np.asarray(types, dtype=np.int64).reshape(-1, n), axis=1)


def perfect_cover_matching(types, voters, n: int, a: int, b: int) -> bool:
    """Does the voter-level cover graph G(a, b) have a perfect matching?

    Left voter v meets right voter w when some candidate that v ranks at or
    above b is ranked at or below a by w.  Decided by scipy's
    maximum_bipartite_matching on the explicit m x m graph.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    rank = _rank_table(types, n)
    bits = 1 << np.arange(n, dtype=np.int64)
    left = ((rank <= rank[:, b : b + 1]) * bits).sum(axis=1)
    right = ((rank >= rank[:, a : a + 1]) * bits).sum(axis=1)
    v = np.asarray(voters)
    graph = csr_matrix((left[v][:, None] & right[v][None, :]) != 0)
    match = maximum_bipartite_matching(graph, perm_type="column")
    return bool((match >= 0).all())


def matching_set(types, voters, n: int) -> list[int]:
    """Candidates a with a perfect matching in G(a, b) for every b != a."""
    return [
        a for a in range(n)
        if all(perfect_cover_matching(types, voters, n, a, b) for b in range(n) if b != a)
    ]


def plurality_veto(types, voters, n: int) -> int:
    """Plurality Veto (Kizilkaya & Kempe): voters in file order veto their
    least-liked candidate with positive score; the last one vetoed wins."""
    score = [0] * n
    for t in voters:
        score[types[t][0]] += 1
    last = -1
    for t in voters:
        last = next(c for c in reversed(types[t]) if score[c] > 0)
        score[last] -= 1
    return last


# ---------------------------------------------------------------------------
# distortion LPs


def pairwise_lp(types, voters, n: int, a: int, b: int) -> float:
    """sup over consistent pseudometrics of cost(a)/cost(b); inf if unbounded.

    One variable per pair of the n + m points (candidates, then voters in
    file order); voters order candidates by distance; triangle inequality
    on every triple; total distance to b fixed to 1.  Solved by HiGHS.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    if a == b:
        return 1.0
    m = len(voters)
    size = n + m
    var = {}
    for i in range(size):
        for j in range(i + 1, size):
            var[i, j] = var[j, i] = len(var) // 2
    nv = size * (size - 1) // 2
    rows, cols, vals = [], [], []

    def add(row, terms):
        for col, val in terms:
            rows.append(row)
            cols.append(col)
            vals.append(val)

    r = 0
    for v, t in enumerate(voters):
        order = types[t]
        for x, y in zip(order, order[1:]):
            add(r, [(var[x, n + v], 1.0), (var[y, n + v], -1.0)])
            r += 1
    for i in range(size):
        for j in range(i + 1, size):
            for k in range(size):
                if k != i and k != j:
                    add(r, [(var[i, j], 1.0), (var[i, k], -1.0), (var[k, j], -1.0)])
                    r += 1
    a_ub = coo_matrix((vals, (rows, cols)), shape=(r, nv)).tocsr()
    objective = np.zeros(nv)
    a_eq = np.zeros((1, nv))
    for v in range(m):
        objective[var[a, n + v]] = -1.0
        a_eq[0, var[b, n + v]] = 1.0
    res = linprog(objective, A_ub=a_ub, b_ub=np.zeros(r), A_eq=a_eq, b_eq=[1.0],
                  bounds=(0, None), method="highs")
    if res.status == 3:
        return math.inf
    if res.status != 0:
        raise RuntimeError(f"oracle LP failed: {res.message}")
    return -float(res.fun)


def lp_close(reported, expected: float) -> bool:
    """Compare a reported value (number or "unbounded") with an oracle value."""
    if math.isinf(expected):
        return reported == "unbounded"
    if not isinstance(reported, (int, float)):
        return False
    return abs(reported - expected) <= LP_TOL * max(1.0, abs(expected))


def tie_break_winner(max_values: list[float]) -> int:
    """Smallest index among candidates within TIE_TOL of the minimum."""
    best = min(max_values)
    if math.isinf(best):
        return 0
    return next(a for a, v in enumerate(max_values) if v <= best + TIE_TOL)


# ---------------------------------------------------------------------------
# exhaustive verifier


@cache
def burnside_classes(n: int, m: int) -> int:
    """Voter multisets of size m over the n! orderings, up to cyclic relabeling.

    Burnside's lemma: average over the n rotations of the number of
    multisets each one fixes.  A multiset is fixed iff it is constant on
    every cycle of the rotation's action on orderings, so the fixed count
    is the number of ways to write m as a sum of those cycle lengths.
    """
    orders = list(permutations(range(n)))
    index = {o: i for i, o in enumerate(orders)}
    total = 0
    for k in range(n):
        image = [index[tuple((c + k) % n for c in o)] for o in orders]
        seen = [False] * len(orders)
        ways = [1] + [0] * m
        for start in range(len(orders)):
            if seen[start]:
                continue
            length, i = 0, start
            while not seen[i]:
                seen[i] = True
                i = image[i]
                length += 1
            for s in range(length, m + 1):
                ways[s] += ways[s - length]
        total += ways[m]
    if total % n:
        raise ArithmeticError("Burnside sum not divisible by the group order")
    return total // n
