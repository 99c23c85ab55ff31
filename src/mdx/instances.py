"""Canonical worked instances used in tests and demonstrations.

Each constructor returns a NamedInstance bundling a profile, optionally
a consistent metric, and notes explaining what the instance exhibits.
Fractional voter populations are realized by explicit rational
parameters (num, den, scale_m) with round-half-up counts, so stated
ratios are recovered exactly when den divides scale_m.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from mdx.metriclp import Metric, check_consistent, voter_labels
from mdx.profile import VotingProfile, default_candidates

__all__ = [
    "NamedInstance",
    "three_cycle",
    "rotational_profile",
    "lower_left",
    "lower_right",
    "fairness_table",
    "counterexample_relax2",
    "counterexample_relax1",
    "INSTANCE_BUILDERS",
]


@dataclass(frozen=True)
class NamedInstance:
    """A profile with an optional consistent metric and explanatory notes."""

    name: str
    profile: VotingProfile
    metric: Metric | None
    notes: str

    def __post_init__(self):
        if self.metric is not None and not check_consistent(self.metric, self.profile):
            raise ValueError(f"instance {self.name!r}: metric contradicts the profile")


def _line_metric(candidates: tuple[str, ...], coords: Sequence[float]) -> Metric:
    """Metric of points on a line; coords lists candidates then voters."""
    pts = np.asarray(coords, dtype=float)
    dist = np.abs(pts[:, None] - pts[None, :])
    labels = candidates + voter_labels(len(coords) - len(candidates))
    return Metric(labels, len(candidates), dist)


def _profile_from_rows(candidates: tuple[str, ...], rows: list[tuple[str, int]]) -> VotingProfile:
    """A profile from (ordering-string, count) rows like ("C>B>A", 3), in row
    order; rows with count 0 add no voters."""
    index = {name: i for i, name in enumerate(candidates)}
    runs = [
        (tuple(index[name.strip()] for name in text.split(">")), count)
        for text, count in rows
        if count
    ]
    return VotingProfile(candidates, runs=runs)


def three_cycle() -> NamedInstance:
    """Three voters whose orderings rotate A > B > C; no Condorcet winner."""
    p = _profile_from_rows(("A", "B", "C"), [("A>B>C", 1), ("B>C>A", 1), ("C>A>B", 1)])
    return NamedInstance(
        "three-cycle",
        p,
        None,
        "Smallest fully cyclic profile: every pairwise margin is 2 to 1 and "
        "all three candidates sit in the matching uncovered set.",
    )


def rotational_profile(base: Sequence[int | str], n: int) -> NamedInstance:
    """n voters; voter k ranks like `base` with all candidates shifted +k mod n.

    The induced weighted tournament is invariant under the relabeling
    i -> i+1 mod n, so it is cyclically symmetric by construction.
    """
    names = default_candidates(n)
    index = {name: i for i, name in enumerate(names)}
    unknown = [b for b in base if isinstance(b, str) and b not in index]
    if unknown:
        raise ValueError(f"base names unknown candidate {unknown[0]!r}")
    resolved = tuple(index[b] if isinstance(b, str) else int(b) for b in base)
    if sorted(resolved) != list(range(n)):
        raise ValueError("base must be a permutation of the n candidates")
    orderings = tuple(
        tuple((c + k) % n for c in resolved) for k in range(n)
    )
    return NamedInstance(
        f"rotational-{n}",
        VotingProfile(names, orderings),
        None,
        "One voter per cyclic shift of the base ordering; the pairwise "
        "weight matrix is preserved by rotating all candidate labels.",
    )


def _round_half_up(num: int, den: int, scale: int) -> int:
    """floor(num/den * scale + 1/2) in exact integer arithmetic."""
    return (2 * num * scale + den) // (2 * den)


def lower_left(p_num: int, p_den: int, scale_m: int) -> NamedInstance:
    """Two candidates on a line: A at 0, B at 2; a p-fraction of voters at 1.

    The voters at the midpoint are equidistant from both candidates and
    break the tie toward A (weak consistency allows this); the rest sit
    on B.  Choosing A then costs (2-p)/p times the optimum, which grows
    as p shrinks.
    """
    if p_num <= 0 or p_den <= 0 or p_num > p_den:
        raise ValueError("need 0 < p <= 1")
    if scale_m < 1:
        raise ValueError("need at least one voter")
    k1 = _round_half_up(p_num, p_den, scale_m)
    k2 = scale_m - k1
    candidates = ("A", "B")
    p = _profile_from_rows(candidates, [("A>B", k1), ("B>A", k2)])
    metric = _line_metric(candidates, [0.0, 2.0] + [1.0] * k1 + [2.0] * k2)
    return NamedInstance(
        "lower-left",
        p,
        metric,
        f"Line metric with {k1} midpoint voters preferring A and {k2} voters "
        "on B; the fixed-metric distortion of A is (2-p)/p at midpoint "
        "fraction p, reaching 2+sqrt(5) at p = (3-sqrt(5))/2 ~ 0.382.",
    )


def lower_right(lam_num: int, lam_den: int, scale_m: int) -> NamedInstance:
    """Three candidates on a line: A at 0, B at 2, C at 4.

    A (1-lambda)-fraction of voters sits on B (ranking B > A > C) and a
    lambda-fraction at 3 (ranking C > B > A).  Choosing A costs
    (2+lambda)/lambda = 3 + 2(1-lambda)/lambda times the optimum B.
    """
    if lam_num <= 0 or lam_den <= 0 or lam_num > lam_den:
        raise ValueError("need 0 < lambda <= 1")
    if scale_m < 1:
        raise ValueError("need at least one voter")
    k2 = _round_half_up(lam_num, lam_den, scale_m)
    k1 = scale_m - k2
    candidates = ("A", "B", "C")
    p = _profile_from_rows(candidates, [("B>A>C", k1), ("C>B>A", k2)])
    metric = _line_metric(candidates, [0.0, 2.0, 4.0] + [2.0] * k1 + [3.0] * k2)
    return NamedInstance(
        "lower-right",
        p,
        metric,
        f"Line metric with {k1} voters on B and {k2} voters between B and C; "
        "the fixed-metric cost ratio of A against B is 3 + 2(1-lambda)/lambda.",
    )


# Pairwise distances among A, B, C, a v1-type voter and a v2-type voter.
_FAIRNESS_TABLE = np.array(
    [
        [0.0, 4.0, 4.0, 5.0, 3.0],
        [4.0, 0.0, 2.0, 1.0, 1.0],
        [4.0, 2.0, 0.0, 1.0, 3.0],
        [5.0, 1.0, 1.0, 0.0, 2.0],
        [3.0, 1.0, 3.0, 2.0, 0.0],
    ]
)


def fairness_table(lam_num: int, lam_den: int, scale_m: int) -> NamedInstance:
    """The worst-off-voter instance: a lambda-fraction of v1-type voters.

    v1-type voters rank C > B > A (distances 1, 1, 5); v2-type voters
    rank B > A > C (distances 1, 3, 3 -- B strictly first, then the A/C
    tie broken toward A).  Whenever A gets chosen, the worst-off single
    voter pays 5 while under B no voter pays more than 1.
    """
    if lam_num <= 0 or lam_den <= 0 or lam_num >= lam_den:
        raise ValueError("need 0 < lambda < 1")
    if scale_m < 1:
        raise ValueError("need at least one voter")
    k1 = _round_half_up(lam_num, lam_den, scale_m)
    k2 = scale_m - k1
    candidates = ("A", "B", "C")
    p = _profile_from_rows(candidates, [("C>B>A", k1), ("B>A>C", k2)])
    types = [3] * k1 + [4] * k2
    size = 3 + scale_m
    dist = np.zeros((size, size))
    for i in range(size):
        ti = i if i < 3 else types[i - 3]
        for j in range(size):
            tj = j if j < 3 else types[j - 3]
            if i >= 3 and j >= 3 and ti == tj:
                continue
            dist[i, j] = _FAIRNESS_TABLE[ti, tj]
    metric = Metric(candidates + voter_labels(scale_m), 3, dist)
    return NamedInstance(
        "fairness-table",
        p,
        metric,
        f"Tabulated 5-point metric expanded to {k1} v1-type and {k2} v2-type "
        "voters; exhibits a worst-off-voter (k=1) cost ratio of 5 for A.",
    )


def counterexample_relax2() -> NamedInstance:
    """100-voter, 4-candidate profile on which the interval shortcut is silent.

    Every cyclic pair's interval test leaves a nonempty remainder, yet
    G(C,D) and G(D,A) still have perfect matchings: the interval
    condition is sufficient but not necessary.
    """
    candidates = ("A", "B", "C", "D")
    rows = [
        ("B>A>D>C", 35),
        ("C>B>A>D", 10),
        ("D>C>B>A", 15),
        ("C>D>B>A", 10),
        ("A>D>C>B", 15),
        ("C>A>D>B", 10),
        ("C>D>A>B", 5),
    ]
    p = _profile_from_rows(candidates, rows)
    return NamedInstance(
        "counterexample-relax2",
        p,
        None,
        "All four cyclic interval tests leave nonempty remainders while "
        "perfect matchings still exist in G(C,D) and G(D,A).",
    )


def counterexample_relax1() -> NamedInstance:
    """5-voter, 4-candidate profile on which the rank-sum shortcut is silent.

    G(D,A) has a perfect matching although the rank-sum test fires at
    k=3 (2+2 <= 4): the rank-sum condition is necessary for a missing
    matching but not sufficient.
    """
    candidates = ("A", "B", "C", "D")
    rows = [("D>C>B>A", 2), ("B>A>D>C", 2), ("C>A>D>B", 1)]
    p = _profile_from_rows(candidates, rows)
    return NamedInstance(
        "counterexample-relax1",
        p,
        None,
        "G(A,B), G(B,C) and G(C,D) lack perfect matchings; G(D,A) has one "
        "even though the rank-sum bound 2+2 <= 4 holds at k=3.",
    )


INSTANCE_BUILDERS = {
    "three-cycle": three_cycle,
    "rotational": rotational_profile,
    "lower-left": lower_left,
    "lower-right": lower_right,
    "fairness-table": fairness_table,
    "counterexample-relax1": counterexample_relax1,
    "counterexample-relax2": counterexample_relax2,
}
