"""Shared generators and small oracles used across the test suite."""

from __future__ import annotations

import random
import string

import numpy as np
from hypothesis import strategies as st

from mdx.metriclp import Metric, voter_labels
from mdx.profile import VotingProfile, pairwise_counts


def candidate_names(n: int) -> tuple[str, ...]:
    return tuple(string.ascii_uppercase[:n])


def random_profile(
    rng: random.Random,
    n: int | None = None,
    m: int | None = None,
    max_n: int = 5,
    max_m: int = 6,
    min_n: int = 2,
) -> VotingProfile:
    """A uniformly random strict profile with seeded randomness."""
    n = rng.randint(min_n, max_n) if n is None else n
    m = rng.randint(1, max_m) if m is None else m
    orderings = tuple(tuple(rng.sample(range(n), n)) for _ in range(m))
    return VotingProfile(candidate_names(n), orderings)


@st.composite
def profiles(draw, max_n: int = 4, max_m: int = 4, min_n: int = 1):
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(1, max_m))
    orderings = tuple(
        tuple(draw(st.permutations(range(n)))) for _ in range(m)
    )
    return VotingProfile(candidate_names(n), orderings)


@st.composite
def clone_heavy_cases(draw, size: int = 12):
    """A runs-built profile with n + m <= size drawn from at most three
    ballots, and an ordered pair of distinct candidates."""
    n = draw(st.integers(2, 4))
    pool = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=3))
    runs = []
    room = size - n
    while room and (not runs or draw(st.booleans())):
        count = draw(st.integers(1, room))
        runs.append((tuple(draw(st.sampled_from(pool))), count))
        room -= count
    a, b = draw(st.permutations(range(n)))[:2]
    return VotingProfile(candidate_names(n), runs=runs), a, b


def strict_condorcet_winner(p: VotingProfile) -> int | None:
    """The candidate beating every other by strict majority, if any."""
    counts = pairwise_counts(p)
    for x in range(p.n):
        if all(2 * counts[x][y] > p.m for y in range(p.n) if y != x):
            return x
    return None


def euclidean_instance(
    rng: random.Random, n: int, m: int, scale: float = 10.0
) -> tuple[Metric, VotingProfile]:
    """Random planar points; the profile is read off the distances.

    Each voter ranks candidates by increasing distance (ties broken by
    candidate index), so the metric is consistent with the profile by
    construction.
    """
    pts = np.array([[rng.uniform(0, scale), rng.uniform(0, scale)] for _ in range(n + m)])
    dist = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    np.fill_diagonal(dist, 0.0)
    dist = (dist + dist.T) / 2.0
    labels = candidate_names(n) + voter_labels(m)
    metric = Metric(labels, n, dist)
    orderings = tuple(
        tuple(sorted(range(n), key=lambda c: (dist[c, n + v], c))) for v in range(m)
    )
    return metric, VotingProfile(candidate_names(n), orderings)
