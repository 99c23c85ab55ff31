"""Weighted tournament graphs and cyclic-symmetry detection.

The weighted tournament graph of a profile has an edge of weight
``|XY|/m`` from X to Y, where ``|XY|`` counts voters preferring X to Y.
Weights are exact :class:`fractions.Fraction` values throughout; every
comparison made downstream (majority edges, thresholds, interval
subtraction) is exact.

A graph is cyclically symmetric when some single n-cycle permutation tau of
the candidates preserves every weight.  Graphs can also be loaded from a
weight-matrix file, since a cyclically symmetric graph need not be induced
by any similarly symmetric profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from mdx.profile import VotingProfile, pairwise_counts

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


class GraphParseError(ValueError):
    """Malformed graph file.  ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class SymmetrySearchError(ValueError):
    """Symmetry search too large; supply tau to check_cyclic_symmetry instead."""


@dataclass(frozen=True)
class WeightedTournamentGraph:
    """Exact pairwise-majority weights.

    weight[x][y] = fraction of voters preferring x to y; weight[x][y] +
    weight[y][x] = 1 off the diagonal.  ``m`` is a common denominator, so
    ``weight[x][y] * m`` is always an integer count.
    """

    names: tuple[str, ...]
    weight: tuple[tuple[Fraction, ...], ...]
    m: int

    def __post_init__(self):
        n = len(self.names)
        if len(set(self.names)) != n or n == 0:
            raise ValueError("candidate names must be distinct and nonempty")
        if self.m < 1:
            raise ValueError("voter count m must be positive")
        if len(self.weight) != n or any(len(row) != n for row in self.weight):
            raise ValueError("weight matrix must be n x n")
        for x in range(n):
            if self.weight[x][x] != 0:
                raise ValueError("diagonal weights must be 0")
            for y in range(x + 1, n):
                w, wr = self.weight[x][y], self.weight[y][x]
                if w < 0 or w > 1 or w + wr != 1:
                    raise ValueError(f"weights for pair ({self.names[x]},{self.names[y]}) must be in [0,1] and sum to 1")
                if (w * self.m).denominator != 1:
                    raise ValueError("every weight must be an integer count over m")

    @property
    def n(self) -> int:
        return len(self.names)

    def index(self, x: int | str) -> int:
        if isinstance(x, str):
            try:
                return self.names.index(x)
            except ValueError:
                raise KeyError(f"unknown candidate {x!r}") from None
        if not 0 <= x < self.n:
            raise KeyError(f"candidate index {x} out of range")
        return x

    def count(self, x: int, y: int) -> int:
        """Integer voter count |xy| = weight[x][y] * m."""
        w = self.weight[x][y]
        return w.numerator * (self.m // w.denominator)


@dataclass(frozen=True)
class CyclicSymmetryWitness:
    """tau maps candidate index i to tau[i]; None when no witness exists."""

    tau: tuple[int, ...] | None

    @property
    def found(self) -> bool:
        return self.tau is not None


def build_tournament(p: VotingProfile) -> WeightedTournamentGraph:
    """Weighted tournament graph of a profile, weights exactly counts/m."""
    counts = pairwise_counts(p)
    m = Fraction(p.m)
    weight = tuple(
        tuple(Fraction(c) / m for c in row) for row in counts.counts
    )
    return WeightedTournamentGraph(p.candidates, weight, p.m)


def _parse_entry(token: str) -> Fraction:
    # Fraction parses both 'p/q' and decimal strings exactly.
    return Fraction(token)


def parse_graph(text: str) -> WeightedTournamentGraph:
    """Parse a weight-matrix file.

    Format: a header line ``names: A,B,C``, then one row per candidate with
    n whitespace-separated entries, each a rational ``p/q`` or a decimal
    (decimals are exact, e.g. ``0.3`` becomes 3/10).  The retained common
    denominator m is the least common multiple of all entry denominators.
    """
    names: tuple[str, ...] | None = None
    rows: list[tuple[Fraction, ...]] = []
    header_seen = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if not line.startswith("names:"):
                raise GraphParseError("expected header 'names: A,B,...'", line_no)
            names = tuple(tok.strip() for tok in line[len("names:"):].split(","))
            if any(not tok for tok in names):
                raise GraphParseError("empty candidate name in header", line_no)
            header_seen = True
            continue
        tokens = line.split()
        assert names is not None
        if len(tokens) != len(names):
            raise GraphParseError(f"expected {len(names)} entries, found {len(tokens)}", line_no)
        try:
            rows.append(tuple(_parse_entry(tok) for tok in tokens))
        except (ValueError, ZeroDivisionError):
            raise GraphParseError("entries must be rationals p/q or decimals", line_no) from None
        if len(rows) == len(names):
            break
    if names is None:
        raise GraphParseError("missing header line", 1)
    if len(rows) != len(names):
        raise GraphParseError(f"expected {len(names)} matrix rows, found {len(rows)}", text.count("\n") + 1)
    m = 1
    for row in rows:
        for entry in row:
            m = m * entry.denominator // math.gcd(m, entry.denominator)
    return WeightedTournamentGraph(names, tuple(rows), m)


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
    w = g.weight
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
    w = g.weight

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
            # weight; complements cover the reversed pairs.
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
