"""Ranked preference profiles.

A profile is a list of voters, each with a strict total order over a common
candidate set.  The text format is one voter per line::

    # comment
    3: A > B > C
    B > A > C

An optional ``k:`` prefix repeats the ordering for k voters.  Every line must
rank every candidate exactly once; ties are not representable.

A profile is stored as runs of identical ballots in voter order, so parsing
and tallying cost per distinct line, not per voter; ``orderings`` expands
the runs to one tuple per voter on first use.

Candidate subsets are passed around as integer bitmasks over candidate
indices (bit i set means candidate i is in the set).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

__all__ = [
    "ProfileParseError",
    "VotingProfile",
    "parse_profile",
    "serialize_profile",
    "pairwise_counts",
    "triple_count",
    "prefer_at_least",
    "prefer_at_most",
    "restrict_profile",
    "iter_set",
    "set_of",
    "resolve_index",
    "mask_names",
    "default_candidates",
]

# Characters with structural meaning in the text formats.
_FORBIDDEN_IN_NAMES = set(">:,#")


class ProfileParseError(ValueError):
    """Malformed profile text.  ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def resolve_index(names: tuple[str, ...], x: int | str, noun: str = "candidate") -> int:
    """Resolve a point of ``names`` given by index or by name; KeyError if absent."""
    if isinstance(x, str):
        try:
            return names.index(x)
        except ValueError:
            raise KeyError(f"unknown {noun} {x!r}") from None
    if not 0 <= x < len(names):
        raise KeyError(f"{noun} index {x} out of range")
    return x


@dataclass(frozen=True, init=False)
class VotingProfile:
    """An immutable preference profile.

    candidates: distinct candidate names; index in this tuple is the
        candidate's index everywhere else.
    runs: ``(ordering, count)`` pairs in voter order, adjacent equal
        orderings merged; an ordering lists candidate indices from most to
        least preferred and is a permutation of range(n).

    Built from one ordering per voter, ``VotingProfile(candidates,
    orderings)``, or from runs, ``VotingProfile(candidates, runs=...)``.
    Merging makes two profiles equal exactly when their voter sequences are.
    """

    candidates: tuple[str, ...]
    runs: tuple[tuple[tuple[int, ...], int], ...]

    def __init__(
        self,
        candidates: Iterable[str],
        orderings: Iterable[tuple[int, ...]] | None = None,
        *,
        runs: Iterable[tuple[tuple[int, ...], int]] | None = None,
    ):
        if (orderings is None) == (runs is None):
            raise TypeError("give exactly one of orderings and runs")
        if runs is None:
            runs = ((order, 1) for order in orderings)
        candidates = tuple(candidates)
        if not candidates:
            raise ValueError("profile needs at least one candidate")
        if len(set(candidates)) != len(candidates):
            raise ValueError("candidate names must be distinct")
        for name in candidates:
            if not name or any(ch.isspace() or ch in _FORBIDDEN_IN_NAMES for ch in name):
                raise ValueError(f"invalid candidate name {name!r}")
        ref = tuple(range(len(candidates)))
        merged: list[list] = []
        first = 0  # index of the run's first voter, for error messages
        for order, count in runs:
            order = tuple(order)
            if not isinstance(count, int) or count < 1:
                raise ValueError(f"voter {first} count {count!r} is not a positive integer")
            if merged and merged[-1][0] == order:
                merged[-1][1] += count
            elif tuple(sorted(order)) != ref:
                raise ValueError(f"voter {first} ordering is not a permutation of all candidates")
            else:
                merged.append([order, count])
            first += count
        if not merged:
            raise ValueError("profile needs at least one voter")
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "runs", tuple((order, count) for order, count in merged))

    @cached_property
    def orderings(self) -> tuple[tuple[int, ...], ...]:
        """One ordering per voter, expanded from the runs on first use."""
        return tuple(order for order, count in self.runs for _ in range(count))

    @cached_property
    def types(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """``(ordering, voter count)`` per distinct ordering, first seen first."""
        counts: Counter[tuple[int, ...]] = Counter()
        for order, count in self.runs:
            counts[order] += count
        return tuple(counts.items())

    @property
    def n(self) -> int:
        return len(self.candidates)

    @cached_property
    def m(self) -> int:
        return sum(count for _, count in self.runs)

    def index(self, x: int | str) -> int:
        """Resolve a candidate given by index or by name."""
        return resolve_index(self.candidates, x)

    def rank(self, v: int, x: int | str) -> int:
        """Position of candidate x in voter v's ordering (0 = top)."""
        return self.orderings[v].index(self.index(x))


def parse_profile(text: str) -> VotingProfile:
    """Parse profile text.  Raises ProfileParseError with a line number."""
    candidates: tuple[str, ...] | None = None
    index: dict[str, int] = {}
    runs: list[tuple[tuple[int, ...], int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        mult = 1
        body = line
        if ":" in line:
            head, body = line.split(":", 1)
            head = head.strip()
            if not head.isdigit() or int(head) < 1:
                raise ProfileParseError(f"multiplicity {head!r} is not a positive integer", line_no)
            mult = int(head)
        names = [tok.strip() for tok in body.split(">")]
        if any(not tok for tok in names):
            raise ProfileParseError("malformed ordering (empty candidate name)", line_no)
        for tok in names:
            if any(ch.isspace() or ch in _FORBIDDEN_IN_NAMES for ch in tok):
                raise ProfileParseError(f"invalid candidate name {tok!r}", line_no)
        if len(set(names)) != len(names):
            dup = next(t for i, t in enumerate(names) if t in names[:i])
            raise ProfileParseError(f"duplicate candidate {dup!r}", line_no)
        if candidates is None:
            candidates = tuple(names)
            index = {name: i for i, name in enumerate(candidates)}
        else:
            for tok in names:
                if tok not in index:
                    raise ProfileParseError(f"unknown candidate {tok!r}", line_no)
            if len(names) != len(candidates):
                missing = sorted(set(candidates) - set(names))
                raise ProfileParseError(f"ordering does not rank candidate {missing[0]!r}", line_no)
        runs.append((tuple(index[tok] for tok in names), mult))
    if candidates is None:
        raise ProfileParseError("empty profile (no voter lines)", max(1, text.count("\n") + 1))
    return VotingProfile(candidates, runs=runs)


def serialize_profile(p: VotingProfile) -> str:
    """Canonical text form: one voter per line, no multiplicities."""
    lines = []
    for order, count in p.runs:
        lines += [" > ".join(p.candidates[c] for c in order)] * count
    return "\n".join(lines) + "\n"


def pairwise_counts(p: VotingProfile) -> tuple[tuple[int, ...], ...]:
    """Rows ``counts[x][y]``: the voters ranking x above y; diagonal 0.

    Runs are grouped by ordering first (``p.types``), so the cost is one pass
    over the runs plus n^2 per distinct ordering, whatever the voter count.
    """
    n = p.n
    counts = [[0] * n for _ in range(n)]
    for order, count in p.types:
        for i, x in enumerate(order):
            row = counts[x]
            for y in order[i + 1:]:
                row[y] += count
    return tuple(tuple(row) for row in counts)


def triple_count(p: VotingProfile, x: int | str, y: int | str, z: int | str) -> int:
    """Number of voters ranking x above y above z (candidates distinct)."""
    xi, yi, zi = p.index(x), p.index(y), p.index(z)
    if len({xi, yi, zi}) != 3:
        raise ValueError("triple_count needs three distinct candidates")
    return sum(
        count
        for order, count in p.runs
        if order.index(xi) < order.index(yi) < order.index(zi)
    )


def prefer_at_least(p: VotingProfile, v: int, x: int | str) -> int:
    """Bitmask of candidates voter v ranks at x's position or above (x included)."""
    xi = p.index(x)
    mask = 0
    for c in p.orderings[v]:
        mask |= 1 << c
        if c == xi:
            return mask
    raise AssertionError("unreachable: ordering is a permutation")


def prefer_at_most(p: VotingProfile, v: int, x: int | str) -> int:
    """Bitmask of candidates voter v ranks at x's position or below (x included)."""
    xi = p.index(x)
    mask = 0
    for c in reversed(p.orderings[v]):
        mask |= 1 << c
        if c == xi:
            return mask
    raise AssertionError("unreachable: ordering is a permutation")


def restrict_profile(p: VotingProfile, keep: int) -> VotingProfile:
    """Project the profile onto the candidate subset given by bitmask ``keep``.

    Kept candidates get fresh indices in increasing old-index order; relative
    order within every ballot is preserved.
    """
    kept = [c for c in range(p.n) if keep >> c & 1]
    if keep >> p.n:
        raise ValueError("keep mask has bits outside the candidate range")
    if not kept:
        raise ValueError("cannot restrict to an empty candidate set")
    remap = {c: i for i, c in enumerate(kept)}
    names = tuple(p.candidates[c] for c in kept)
    runs = [(tuple(remap[c] for c in order if c in remap), count) for order, count in p.runs]
    return VotingProfile(names, runs=runs)


def iter_set(mask: int) -> Iterator[int]:
    """Iterate indices present in a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_of(indices: Iterable[int]) -> int:
    """Build a bitmask from candidate indices."""
    mask = 0
    for i in indices:
        mask |= 1 << i
    return mask


def mask_names(p: VotingProfile, mask: int) -> tuple[str, ...]:
    """Names of the candidates in a bitmask, in index order."""
    return tuple(p.candidates[c] for c in iter_set(mask))


def default_candidates(n: int) -> tuple[str, ...]:
    """Generated candidate names: A..Z, then A1, B1, ... for larger n."""
    if n < 1:
        raise ValueError("need at least one candidate")
    alpha = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
    names = []
    for i in range(n):
        block, letter = divmod(i, 26)
        names.append(alpha[letter] + (str(block) if block else ""))
    return tuple(names)
