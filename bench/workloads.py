"""Seeded inputs and operation lists for the four benchmark workloads.

Every workload is a fixed list of operations (one round).  The sizes of the
inputs follow a fixed schedule; the seed decides only their content (which
orderings, how many clones of each) and, for ``verify``, the order of the
operations.  Keeping the sizes fixed keeps the cost of a round nearly the
same for every seed, so two sets of runs on different seeds agree.

Run ``python3 bench/workloads.py --seed 1`` to print the make-up of every
workload's inputs.
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass, field
from itertools import permutations

NAMES = "ABCDEFGH"
WORKLOADS = ("elect", "match", "lp", "verify")

# (n, m, base types, kind).  "clones" profiles have `types` distinct ballots;
# "rotational" ones repeat each of `types` base ballots under all n cyclic
# relabelings, which makes the weighted tournament cyclically symmetric.
ELECT_SCHEDULE = (
    (4, 10_000, 20, "clones"),
    (5, 30_000, 12, "rotational"),
    (6, 24_000, 150, "clones"),
    (7, 35_000, 24, "rotational"),
    # The most expensive input is a fifth of the ops, so the 90th percentile
    # falls inside its cost class instead of between two.
    (8, 64_000, 300, "clones"),
)
ELECT_COMMANDS = (
    ("winner", "--rule", "copeland"),
    ("winner", "--rule", "uncovered"),
    ("winner", "--rule", "ranked-pairs"),
    ("winner", "--rule", "schulze"),
    ("winner", "--rule", "weighted-uncovered"),
    ("weighted-set",),
    ("tournament", "--check-symmetry"),
)

# (n, m, kind, copies).  "distinct" profiles write one line per voter with
# ballots drawn uniformly; "clones" profiles use at most 30 near-cyclic
# ballot types.  m shrinks as n grows so that n(n-1)m^2, the cost of
# building every cover graph, is about the same for all sizes: op costs then
# differ by content only, and the percentiles average over many inputs.
MATCH_SCHEDULE = tuple(
    (n, m, kind, 6)
    for n, m in ((4, 200), (5, 160), (6, 130))
    for kind in ("distinct", "clones")
)
# Small profiles, where a missing perfect matching is often short by a
# single voter: they check the exact edge of the matching and fast-path tests.
MATCH_SMALL = tuple(
    (n, m, kind, 1)
    for n in (4, 5, 6)
    for m, kind in ((7, "distinct"), (9, "clones"), (11, "distinct"), (13, "clones"))
)
MATCH_COMMANDS = (("matching-set",), ("winner", "--rule", "matching-uncovered"))

# Seeded LP inputs: (n, m, kind).  n=3 profiles carry many clones of at most
# three ballot types; n=4-5 profiles have one line per voter.
LP_SCHEDULE = (
    (3, 6, "clones"),
    (3, 7, "clones"),
    (3, 8, "clones"),
    (3, 8, "clones"),
    (4, 5, "distinct"),
    (4, 6, "distinct"),
    (5, 4, "distinct"),
    (5, 5, "distinct"),
)
# optimal-lp runs only on inputs that do not depend on the seed: its
# float tie-break (rules.optimal_lp_winner) picks the wrong candidate on
# some near-ties, and a seeded input would make that failure count vary
# from seed to seed.  These small profiles come from this fixed seed.
LP_FIXED_SEED = 60
LP_FIXED_SIZES = ((3, 3), (3, 4), (3, 5)) * 3

# (n, m, copies per round).  (5,3) fills the 80-97% band of a round's
# latencies so the 90th percentile sits inside it; (4,5) is the single most
# expensive cell; (5,4) and (6,3) take 14-18 s each and are left out.
VERIFY_CELLS = (
    (3, 4, 2), (3, 5, 2), (3, 6, 2), (3, 7, 2), (3, 8, 2),
    (4, 3, 2), (4, 4, 2), (5, 2, 2), (6, 2, 2),
    (5, 3, 4), (4, 5, 1),
)


@dataclass
class Profile:
    """A profile as a type table: distinct orderings with voter counts.

    Orderings list candidate indices (A=0, B=1, ...) from most to least
    preferred.  ``one_per_line`` writes each voter on its own line instead
    of using ``k:`` prefixes.
    """

    name: str
    n: int
    types: list[tuple[int, ...]]
    counts: list[int]
    kind: str
    one_per_line: bool = False
    voter_order: list[int] = field(default_factory=list)

    @property
    def m(self) -> int:
        return sum(self.counts)

    def voters(self) -> list[int]:
        """Type index of every voter, in file order."""
        if self.voter_order:
            return list(self.voter_order)
        return [t for t, c in enumerate(self.counts) for _ in range(c)]

    def text(self) -> str:
        def line(order):
            return " > ".join(NAMES[c] for c in order)

        if self.one_per_line:
            return "".join(line(self.types[t]) + "\n" for t in self.voters())
        return "".join(f"{c}: {line(o)}\n" for o, c in zip(self.types, self.counts))


@dataclass
class Op:
    """One subcommand call.  ``units`` is the op's domain work (see README)."""

    argv: list[str]
    kind: str
    units: int
    profile: Profile | None = None
    cell: tuple[int, int] | None = None


@dataclass
class Workload:
    name: str
    profiles: list[Profile]
    ops: list[Op]
    warmup: Op


def _split(rng: random.Random, total: int, parts: int) -> list[int]:
    """Random positive integers summing to total, a few of them dominant.

    Skewed counts spread the pairwise margins well beyond 1/2, so the phi
    threshold of the weighted uncovered set decides some pairs.
    """
    if not 1 <= parts <= total:
        raise ValueError(f"cannot split {total} voters into {parts} ballot types")
    weights = [rng.random() ** 4 for _ in range(parts)]
    scale = (total - parts) / sum(weights)
    counts = [1 + int(w * scale) for w in weights]
    for i in range(total - sum(counts)):
        counts[i % parts] += 1
    return counts


def _distinct_orders(rng: random.Random, n: int, k: int) -> list[tuple[int, ...]]:
    perms = list(permutations(range(n)))
    return rng.sample(perms, k)


def _rotate(order: tuple[int, ...], k: int, n: int) -> tuple[int, ...]:
    return tuple((c + k) % n for c in order)


def clone_profile(rng, name, n, m, types) -> Profile:
    orders = _distinct_orders(rng, n, types)
    return Profile(name, n, orders, _split(rng, m, types), "clones")


def rotational_profile(rng, name, n, m, base_types) -> Profile:
    """Every base ballot appears under all n relabelings c -> c+k, equally often."""
    if m % n:
        raise ValueError("rotational profile needs n | m")
    perms = list(permutations(range(n)))
    bases, seen = [], set()
    while len(bases) < base_types:
        order = rng.choice(perms)
        orbit = {_rotate(order, k, n) for k in range(n)}
        if not orbit & seen:
            bases.append(order)
            seen |= orbit
    per_base = _split(rng, m // n, base_types)
    types, counts = [], []
    for order, c in zip(bases, per_base):
        for k in range(n):
            types.append(_rotate(order, k, n))
            counts.append(c)
    return Profile(name, n, types, counts, "rotational")


def distinct_profile(rng, name, n, m) -> Profile:
    """m voters drawn uniformly, written one per line (impartial culture)."""
    voters = [tuple(rng.sample(range(n), n)) for _ in range(m)]
    types = sorted(set(voters))
    index = {o: i for i, o in enumerate(types)}
    order = [index[v] for v in voters]
    counts = [order.count(i) for i in range(len(types))]
    return Profile(name, n, types, counts, "distinct", True, order)


def near_cyclic_profile(rng, name, n, m, max_types=30) -> Profile:
    """Clones of rotations of A > B > ..., each perhaps with one adjacent swap.

    Rotations of one ordering give a cyclic majority, so neither the
    majority test nor the interval test decides most pairs.
    """
    # n rotations, each as is or with one of n-1 adjacent swaps: n*n types.
    target = min(max_types, 3 * n, m)
    types: list[tuple[int, ...]] = []
    while len(types) < target:
        order = list(_rotate(tuple(range(n)), rng.randrange(n), n))
        if rng.random() < 0.6:
            i = rng.randrange(n - 1)
            order[i], order[i + 1] = order[i + 1], order[i]
        if tuple(order) not in types:
            types.append(tuple(order))
    return Profile(name, n, types, _split(rng, m, len(types)), "clones")


def _elect(rng: random.Random) -> Workload:
    profiles, ops = [], []
    for i, (n, m, types, kind) in enumerate(ELECT_SCHEDULE):
        name = f"elect{i:02d}.prof"
        if kind == "rotational":
            p = rotational_profile(rng, name, n, m, types)
        else:
            p = clone_profile(rng, name, n, m, types)
        profiles.append(p)
        for cmd in ELECT_COMMANDS:
            ops.append(Op([cmd[0], name, *cmd[1:]], "elect", p.m, p))
    small = clone_profile(rng, "elect-warmup.prof", 4, 1000, 8)
    profiles.append(small)
    return Workload("elect", profiles, ops, Op(["tournament", small.name], "elect", small.m, small))


def _match(rng: random.Random) -> Workload:
    profiles, ops = [], []
    sizes = [
        (n, m, kind)
        for n, m, kind, copies in MATCH_SCHEDULE + MATCH_SMALL
        for _ in range(copies)
    ]
    for i, (n, m, kind) in enumerate(sizes):
        name = f"match{i:02d}.prof"
        if kind == "distinct":
            p = distinct_profile(rng, name, n, m)
        else:
            p = near_cyclic_profile(rng, name, n, m)
        profiles.append(p)
        for cmd in MATCH_COMMANDS:
            ops.append(Op([cmd[0], name, *cmd[1:]], "match", p.m, p))
    small = distinct_profile(rng, "match-warmup.prof", 4, 40)
    profiles.append(small)
    return Workload("match", profiles, ops, Op(["matching-set", small.name], "match", small.m, small))


def _reference_lp_profiles() -> list[Profile]:
    """three-cycle, rotational n=4 and n=5, counterexample-relax1 (mdx.instances)."""
    def rot(n):
        types = [_rotate(tuple(range(n)), k, n) for k in range(n)]
        return Profile(f"rotational-{n}.prof", n, types, [1] * n, "reference")

    cyc = Profile("three-cycle.prof", 3, [(0, 1, 2), (1, 2, 0), (2, 0, 1)], [1, 1, 1], "reference")
    relax1 = Profile(
        "counterexample-relax1.prof", 4,
        [(3, 2, 1, 0), (1, 0, 3, 2), (2, 0, 3, 1)], [2, 2, 1], "reference",
    )
    return [cyc, rot(4), rot(5), relax1]


def _pairwise(p: Profile, a: int, b: int) -> Op:
    return Op(["pairwise-lp", p.name, NAMES[a], NAMES[b]], "pairwise-lp", 1, p)


def _distortion(p: Profile, a: int) -> Op:
    return Op(["distortion", p.name, NAMES[a]], "distortion", p.n - 1, p)


def _optimal(p: Profile) -> Op:
    return Op(["winner", p.name, "--rule", "optimal-lp"], "optimal-lp", p.n * (p.n - 1), p)


def _lp(rng: random.Random) -> Workload:
    profiles, ops = [], []
    for p in _reference_lp_profiles():
        profiles.append(p)
        ops += [_optimal(p), _distortion(p, 0), _pairwise(p, 0, 1)]
    fixed = random.Random(LP_FIXED_SEED)
    for i, (n, m) in enumerate(LP_FIXED_SIZES):
        p = distinct_profile(fixed, f"lpfixed{i:02d}.prof", n, m)
        profiles.append(p)
        ops.append(_optimal(p))
    for i, (n, m, kind) in enumerate(LP_SCHEDULE):
        name = f"lp{i:02d}.prof"
        if kind == "clones":
            p = clone_profile(rng, name, n, m, rng.choice((2, 3)))
        else:
            p = distinct_profile(rng, name, n, m)
        profiles.append(p)
        a, b, c = rng.sample(range(n), 3)
        ops += [_pairwise(p, a, b), _distortion(p, a), _distortion(p, c)]
    warm = profiles[0]
    return Workload("lp", profiles, ops, _pairwise(warm, 0, 1))


def _verify(rng: random.Random) -> Workload:
    ops = []
    for n, m, copies in VERIFY_CELLS:
        for _ in range(copies):
            ops.append(Op(["verify-conjecture", str(n), str(m)], "verify", 0, cell=(n, m)))
    rng.shuffle(ops)
    return Workload("verify", [], ops, Op(["verify-conjecture", "3", "4"], "verify", 0, cell=(3, 4)))


def build(name: str, seed: int) -> Workload:
    """The workload's inputs and one round of operations for this seed."""
    builders = {"elect": _elect, "match": _match, "lp": _lp, "verify": _verify}
    return builders[name](random.Random(f"{name}:{seed}"))


def describe(wl: Workload) -> list[str]:
    lines = [f"{wl.name}: {len(wl.ops)} ops per round, {len(wl.profiles)} profiles"]
    for p in wl.profiles:
        lines.append(
            f"  {p.name:28s} n={p.n} m={p.m:6d} types={len(p.types):4d} "
            f"voters/type={p.m / len(p.types):8.1f} kind={p.kind}"
        )
    return lines


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    for wl_name in WORKLOADS:
        print("\n".join(describe(build(wl_name, args.seed))))
