"""Weighted tournament graphs and cyclic-symmetry detection.

The weighted tournament graph of a profile has an edge of weight
``|XY|/m`` from X to Y, where ``|XY|`` counts voters preferring X to Y.
It stores the integer counts and m, so every decision downstream compares
counts exactly; ``weight`` is a read-only :class:`fractions.Fraction` view
for printing and interval subtraction.

A graph is cyclically symmetric when some single n-cycle permutation tau of
the candidates preserves every weight.  Graphs can also be loaded from a
weight-matrix file, since a cyclically symmetric graph need not be induced
by any similarly symmetric profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from mdx.profile import ParseError, VotingProfile, pairwise_counts, resolve_index

__all__ = [
    "GraphParseError",
    "SymmetrySearchError",
    "WeightedTournamentGraph",
    "CyclicSymmetryWitness",
    "build_tournament",
    "parse_graph",
    "serialize_graph",
    "find_cyclic_symmetry",
    "check_cyclic_symmetry",
]

SYMMETRY_SEARCH_LIMIT = 8


class GraphParseError(ParseError):
    """Malformed graph file."""


class SymmetrySearchError(ValueError):
    """Symmetry search too large; supply tau to check_cyclic_symmetry instead."""


def _count_fault(names: tuple[str, ...], counts: tuple[tuple[int, ...], ...], m: int) -> tuple[int, str] | None:
    """(row, message) of the first row with a nonzero diagonal count or a
    pair, against an earlier row, that is negative or does not sum to m."""
    for y, row in enumerate(counts):
        if row[y] != 0:
            return y, "diagonal weights must be 0"
        for x in range(y):
            if counts[x][y] < 0 or row[x] < 0 or counts[x][y] + row[x] != m:
                return y, f"weights for pair ({names[x]},{names[y]}) must be in [0,1] and sum to 1"
    return None


@dataclass(frozen=True)
class WeightedTournamentGraph:
    """Exact pairwise-majority counts over a common denominator m.

    counts[x][y] = number of voters preferring x to y, so the edge weight
    is counts[x][y] / m; counts[x][y] + counts[y][x] = m off the diagonal.
    """

    names: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]
    m: int

    def __post_init__(self):
        n = len(self.names)
        if len(set(self.names)) != n or n == 0:
            raise ValueError("candidate names must be distinct and nonempty")
        if self.m < 1:
            raise ValueError("voter count m must be positive")
        if len(self.counts) != n or any(len(row) != n for row in self.counts):
            raise ValueError("count matrix must be n x n")
        fault = _count_fault(self.names, self.counts, self.m)
        if fault is not None:
            raise ValueError(fault[1])

    @cached_property
    def weight(self) -> tuple[tuple[Fraction, ...], ...]:
        """weight[x][y] = counts[x][y] / m as an exact Fraction."""
        return tuple(tuple(Fraction(c, self.m) for c in row) for row in self.counts)

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, x: int | str) -> int:
        return resolve_index(self.names, x)


@dataclass(frozen=True)
class CyclicSymmetryWitness:
    """tau maps candidate index i to tau[i]; None when no witness exists."""

    tau: tuple[int, ...] | None

    @property
    def found(self) -> bool:
        return self.tau is not None


def build_tournament(p: VotingProfile) -> WeightedTournamentGraph:
    """Weighted tournament graph of a profile: its pairwise counts over p.m."""
    return WeightedTournamentGraph(p.candidates, pairwise_counts(p), p.m)


def parse_graph(text: str) -> WeightedTournamentGraph:
    """Parse a weight-matrix file.

    Format: a header line ``names: A,B,C``, then one row per candidate with
    n whitespace-separated entries, each a rational ``p/q`` or a decimal
    (decimals are exact, e.g. ``0.3`` becomes 3/10).  The retained common
    denominator m is the least common multiple of all entry denominators.
    """
    names: tuple[str, ...] | None = None
    rows: list[tuple[Fraction, ...]] = []
    row_lines: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if names is None:
            if not line.startswith("names:"):
                raise GraphParseError("expected header 'names: A,B,...'", line_no)
            names = tuple(tok.strip() for tok in line[len("names:"):].split(","))
            if not all(names) or len(set(names)) != len(names):
                raise GraphParseError("header names must be nonempty and distinct", line_no)
            continue
        tokens = line.split()
        if len(tokens) != len(names):
            raise GraphParseError(f"expected {len(names)} entries, found {len(tokens)}", line_no)
        try:
            # Fraction parses both 'p/q' and decimal strings exactly.
            rows.append(tuple(Fraction(tok) for tok in tokens))
        except (ValueError, ZeroDivisionError):
            raise GraphParseError("entries must be rationals p/q or decimals", line_no) from None
        row_lines.append(line_no)
        if len(rows) == len(names):
            break
    if names is None:
        raise GraphParseError("missing header line", 1)
    if len(rows) != len(names):
        raise GraphParseError(f"expected {len(names)} matrix rows, found {len(rows)}", text.count("\n") + 1)
    m = math.lcm(*(w.denominator for row in rows for w in row))
    counts = tuple(tuple(int(w * m) for w in row) for row in rows)
    fault = _count_fault(names, counts, m)
    if fault is not None:
        raise GraphParseError(fault[1], row_lines[fault[0]])
    return WeightedTournamentGraph(names, counts, m)


def serialize_graph(g: WeightedTournamentGraph) -> str:
    """Write a graph in the weight-matrix file format with p/q entries."""
    lines = ["names: " + ",".join(g.names)]
    for row in g.weight:
        lines.append(" ".join(str(w) for w in row))
    return "\n".join(lines) + "\n"


def check_cyclic_symmetry(g: WeightedTournamentGraph, tau: tuple[int, ...]) -> bool:
    """True iff tau is a single n-cycle preserving all weights exactly."""
    n = g.n
    if len(tau) != n or sorted(tau) != list(range(n)):
        raise ValueError("tau must be a permutation of 0..n-1")
    # Must be one n-cycle: following tau from 0 visits every vertex.
    seen = 1
    v = tau[0]
    while v != 0:
        seen += 1
        v = tau[v]
    if seen != n:
        return False
    w = g.counts
    for x in range(n):
        for y in range(n):
            if w[x][y] != w[tau[x]][tau[y]]:
                return False
    return True


def find_cyclic_symmetry(
    g: WeightedTournamentGraph, limit: int = SYMMETRY_SEARCH_LIMIT
) -> CyclicSymmetryWitness:
    """Search all (n-1)! single n-cycles for a weight-preserving one.

    The search fixes the cycle as 0 -> c1 -> c2 -> ... -> c_{n-1} -> 0 and
    prunes a partial cycle as soon as any weight between already-placed
    vertices disagrees with its image.
    """
    n = g.n
    if n > limit:
        raise SymmetrySearchError(
            f"symmetry search over {n} candidates exceeds the limit of {limit}"
        )
    if n == 1:
        return CyclicSymmetryWitness((0,))
    w = g.counts

    # chain[k] is the vertex placed at position k of the cycle; tau maps
    # chain[k] to chain[k+1] (cyclically).  Position 0 is vertex 0.
    chain = [0] * n
    used = [False] * n
    used[0] = True

    def extend(k: int) -> tuple[int, ...] | None:
        if k == n:
            tau = [0] * n
            for i in range(n):
                tau[chain[i]] = chain[(i + 1) % n]
            if check_cyclic_symmetry(g, tuple(tau)):
                return tuple(tau)
            return None
        for c in range(1, n):
            if used[c]:
                continue
            # Placing c at position k adds the constraints that every pair
            # (chain[i], chain[k-1]) map onto (chain[i+1], c) with equal
            # count; complements cover the reversed pairs.
            if any(w[chain[i + 1]][c] != w[chain[i]][chain[k - 1]] for i in range(k - 1)):
                continue
            chain[k] = c
            used[c] = True
            tau = extend(k + 1)
            used[c] = False
            if tau is not None:
                return tau
        return None

    tau = extend(1)
    return CyclicSymmetryWitness(tau)
