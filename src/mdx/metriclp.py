"""Metrics over candidates and voters, and the worst-case distortion LP.

P(A, B, sigma) is the largest possible total voter distance to A over all
(pseudo)metrics consistent with the profile sigma, normalized so that the
total distance to B is 1.  It is solved as an LP with one point per
distinct ballot t, weighted by its voter count: variables d(c, c') and
d(c, t), ballot rows, and triangle rows c-c-c, c-t-c' and t-c-c' (the last
only where the ballot rows do not imply it).  Its optimum is the one over
every voter: at the optimal ratio R, moving the voters of a ballot onto the
one with the largest d(A,v) - R d(B,v) does not lower the ratio
(Dinkelbach), and voter-voter distances, read by no objective or ballot
row, can be shortest paths through candidates, which is how witnesses are
expanded.  The rows are built once per profile and shared by its ordered
pairs.  The normalisation is one more <= row (Charnes-Cooper), so every
right-hand side is >= 0 and the LP starts from the slack basis.  The
solver is a self-contained one-phase primal simplex from that basis, on a
variable-major tableau.  The LPs against one opponent share a region;
``lps_against`` warm-starts them.

Distances mix candidates and voters in a single space; voters may tie and
may sit at distance zero from other points (pseudometric).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations

import numpy as np

from mdx.profile import ParseError, VotingProfile, resolve_index

__all__ = [
    "DEFAULT_LP_CAP",
    "LpCapError",
    "SolverFailureError",
    "InconsistentMetricError",
    "MetricParseError",
    "Metric",
    "LpOutcome",
    "SimplexResult",
    "voter_labels",
    "parse_metric",
    "serialize_metric",
    "check_consistent",
    "social_cost",
    "instance_distortion",
    "fairness_ratio_fixed",
    "pairwise_distortion_lp",
    "lps_against",
    "max_distortion",
    "solve_lp",
]

DEFAULT_LP_CAP = 20
SOLVER_TOL = 1e-9
MAX_PIVOTS = 1_000_000
TRIANGLE_TOL = 1e-9


class LpCapError(ValueError):
    """LP point count over the configured cap."""


class SolverFailureError(RuntimeError):
    """Simplex exceeded its iteration cap."""


class InconsistentMetricError(ValueError):
    """Metric does not respect the profile's orderings."""


class MetricParseError(ParseError):
    """Malformed metric CSV."""


def voter_labels(m: int) -> tuple[str, ...]:
    return tuple(f"v{i}" for i in range(1, m + 1))


@dataclass(frozen=True, eq=False)
class Metric:
    """A (pseudo)metric on candidates followed by voters.

    labels: point names, the first ``n_candidates`` of which are candidates.
    dist: symmetric nonnegative float matrix with zero diagonal.  Every
    metric is validated at construction, the triangle inequality included;
    that check is cubic in the number of distinct points (distinct rows).
    """

    labels: tuple[str, ...]
    n_candidates: int
    dist: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.dist, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("dist must be a square matrix")
        if len(self.labels) != arr.shape[0]:
            raise ValueError("labels must match the matrix size")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("point labels must be distinct")
        if not 1 <= self.n_candidates <= len(self.labels):
            raise ValueError("n_candidates out of range")
        if (arr < 0).any():
            raise ValueError("distances must be nonnegative")
        if np.abs(np.diagonal(arr)).max(initial=0.0) != 0.0:
            raise ValueError("diagonal distances must be 0")
        if not np.array_equal(arr, arr.T):
            raise ValueError("distance matrix must be symmetric")
        arr.setflags(write=False)
        object.__setattr__(self, "dist", arr)
        bad = self.triangle_violation()
        if bad is not None:
            i, j, k = (self.labels[x] for x in bad)
            raise ValueError(f"triangle inequality fails: d({i},{j}) > d(.,{k}) sum")

    @property
    def n_points(self) -> int:
        return len(self.labels)

    @property
    def n_voters(self) -> int:
        return self.n_points - self.n_candidates

    def index(self, x: int | str) -> int:
        return resolve_index(self.labels, x, "point")

    def triangle_violation(self, tol: float = TRIANGLE_TOL) -> tuple[int, int, int] | None:
        """Worst triple violating d(i,j) <= d(i,k) + d(k,j) + tol, or None.

        Only the first of each set of byte-identical rows is scanned.  Such
        points are at distance 0, so every triangle through a repeat equals
        one through its first occurrence, and the first maximum found is
        the one a scan of every point finds.
        """
        first: dict[bytes, int] = {}
        for r, row in enumerate(self.dist):
            first.setdefault(row.tobytes(), r)
        keep = list(first.values())
        d = self.dist[np.ix_(keep, keep)]
        worst = None
        worst_gap = tol
        gap = np.empty_like(d)
        for k in range(len(keep)):
            np.add.outer(d[:, k], d[k, :], out=gap)
            np.subtract(d, gap, out=gap)
            ij = np.unravel_index(np.argmax(gap), gap.shape)
            if gap[ij] > worst_gap:
                worst_gap = gap[ij]
                worst = (keep[ij[0]], keep[ij[1]], keep[k])
        return worst


@dataclass(frozen=True)
class LpOutcome:
    """Result of one distortion LP: status 'optimal' or 'unbounded'.

    ``reduced`` row c holds candidate c's distances to the candidates, then
    to ``profile.types``.  ``witness`` expands it to voters on first read,
    raising LpCapError when candidates + voters exceed ``cap``.
    """

    status: str
    value: float | None
    profile: VotingProfile | None = field(default=None, repr=False, compare=False)
    reduced: np.ndarray | None = field(default=None, repr=False, compare=False)
    cap: int = DEFAULT_LP_CAP

    @property
    def ratio(self) -> float:
        """``value``, or +inf when the ratio is unbounded."""
        return math.inf if self.status == "unbounded" else self.value

    @cached_property
    def witness(self) -> Metric | None:
        """A consistent metric attaining ``value``; None unless optimal."""
        if self.reduced is None:
            return None
        p = self.profile
        if p.n + p.m > self.cap:
            raise LpCapError(f"witness has {p.n + p.m} candidates + voters, cap is {self.cap}")
        index = {order: t for t, (order, _) in enumerate(p.types)}
        ballot = np.repeat([index[order] for order, _ in p.runs], [count for _, count in p.runs])
        voter = self.reduced[:, p.n + ballot]
        # Voters meet on a shortest path through a candidate; clones coincide.
        between = np.min(voter[:, :, None] + voter[:, None, :], axis=0)
        between[ballot[:, None] == ballot[None, :]] = 0.0
        dist = np.block([[self.reduced[:, : p.n], voter], [voter.T, between]])
        return Metric(p.candidates + voter_labels(p.m), p.n, dist)


@dataclass(frozen=True)
class SimplexResult:
    """One ``solve_lp`` run; ``tableau`` (variable-major, see ``solve_lp``) and ``basis`` are its last."""

    status: str  # optimal | unbounded
    value: float | None
    x: np.ndarray | None
    iterations: int
    tableau: np.ndarray | None = field(default=None, repr=False, compare=False)
    basis: np.ndarray | None = field(default=None, repr=False, compare=False)


def parse_metric(text: str, n_candidates: int | None = None) -> Metric:
    """Parse the metric CSV: header row of labels, then one labeled row each.

    Entries are rationals ``p/q`` or decimals.  When ``n_candidates`` is not
    given it is inferred from the first label that looks like a voter
    (``v1``, ``v2``, ...).  A matrix that :class:`Metric` rejects (for
    instance, one that breaks the triangle inequality) raises
    MetricParseError at the header line.
    """
    rows: list[list[str]] = []
    line_nos: list[int] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append([cell.strip() for cell in line.split(",")])
        line_nos.append(line_no)
    if not rows:
        raise MetricParseError("empty metric file", 1)
    header = rows[0]
    if header and header[0] in ("", "d", "dist"):
        header = header[1:]
    labels = tuple(header)
    if not labels or any(not lab for lab in labels):
        raise MetricParseError("header must list point labels", line_nos[0])
    size = len(labels)
    if len(rows) - 1 != size:
        raise MetricParseError(f"expected {size} data rows, found {len(rows) - 1}", line_nos[-1])
    dist = np.zeros((size, size))
    for r, (cells, line_no) in enumerate(zip(rows[1:], line_nos[1:])):
        if len(cells) != size + 1:
            raise MetricParseError(f"expected label plus {size} entries", line_no)
        if cells[0] != labels[r]:
            raise MetricParseError(f"row label {cells[0]!r} does not match header {labels[r]!r}", line_no)
        try:
            dist[r] = [_parse_cell(cell) for cell in cells[1:]]
        except (ValueError, ZeroDivisionError, OverflowError):
            raise MetricParseError("entries must be finite rationals p/q or decimals", line_no) from None
    if n_candidates is None:
        voterish = [lab.startswith("v") and lab[1:].isdigit() for lab in labels]
        n_candidates = voterish.index(True) if any(voterish) else size
    try:
        return Metric(labels, n_candidates, dist)
    except ValueError as exc:
        raise MetricParseError(str(exc), line_nos[0]) from None


def _parse_cell(cell: str) -> float:
    """``float(Fraction(cell))``, reading plain decimals with ``float``.

    On a decimal both round the exact value once, so they agree bit for bit
    except in the sign of a zero, which only ``Fraction`` gets right.
    ``float`` also accepts ``inf`` and ``nan``.  So zeros other than plain
    ``0``/``0.0``, non-finite values, ``p/q`` cells and anything ``float``
    rejects go through ``Fraction``, which raises where it always did.
    Underscores are rejected, as ``Fraction`` reads ``1_0`` only on 3.11+.
    """
    if "_" in cell:
        raise ValueError(f"underscore in {cell!r}")
    if "/" not in cell:
        try:
            value = float(cell)
        except ValueError:
            value = math.nan
        if math.isfinite(value) and (value or not cell.strip("0.")):
            return value
    return float(Fraction(cell))


def serialize_metric(metric: Metric) -> str:
    """Write the metric CSV with decimal entries."""
    lines = ["," + ",".join(metric.labels)]
    for lab, row in zip(metric.labels, metric.dist):
        lines.append(lab + "," + ",".join(repr(float(x)) for x in row))
    return "\n".join(lines) + "\n"


def _align(metric: Metric, p: VotingProfile) -> tuple[int, ...]:
    """Map each profile candidate index to its metric point index.

    Candidate labels may appear in any order among the metric's first n
    points; voters are matched positionally (profile voter i is metric
    point n + i).
    """
    if metric.n_candidates != p.n or set(metric.labels[: p.n]) != set(p.candidates):
        raise ValueError("metric candidate labels do not match the profile's")
    if metric.n_voters != p.m:
        raise ValueError(f"metric has {metric.n_voters} voters, profile has {p.m}")
    return tuple(metric.index(name) for name in p.candidates)


def check_consistent(metric: Metric, p: VotingProfile, tol: float = 0.0) -> bool:
    """True iff every voter's distances weakly respect her ordering, up to tol >= 0."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    cand = _align(metric, p)
    d = metric.dist
    for v, order in enumerate(p.orderings):
        col = d[:, p.n + v]
        for x, y in zip(order, order[1:]):
            if col[cand[x]] > col[cand[y]] + tol:
                return False
    return True


def social_cost(metric: Metric, x: int | str) -> float:
    """Total distance from all voters to point x."""
    xi = metric.index(x)
    return float(metric.dist[xi, metric.n_candidates:].sum())


def instance_distortion(metric: Metric, p: VotingProfile, x: int | str, tol: float = 0.0) -> float:
    """S(x) / min_A S(A) on a fixed consistent metric; +inf on zero optimum."""
    if not check_consistent(metric, p, tol):
        raise InconsistentMetricError("metric is not consistent with the profile")
    xi = p.index(x)
    cand = _align(metric, p)
    costs = [social_cost(metric, cand[c]) for c in range(p.n)]
    best = min(costs)
    if best == 0.0:
        return 1.0 if costs[xi] == 0.0 else math.inf
    return costs[xi] / best


def fairness_ratio_fixed(
    metric: Metric, p: VotingProfile, x: int | str, k: int, tol: float = 0.0
) -> float:
    """Sum of the k largest voter distances to x over the best alternative."""
    if not check_consistent(metric, p, tol):
        raise InconsistentMetricError("metric is not consistent with the profile")
    if not 1 <= k <= p.m:
        raise ValueError(f"k must be in 1..{p.m}")
    xi = p.index(x)
    cand = _align(metric, p)

    def top_k(c: int) -> float:
        col = metric.dist[cand[c], p.n:]
        return float(np.sort(col)[-k:].sum())

    denom = min(top_k(c) for c in range(p.n))
    numer = top_k(xi)
    if denom == 0.0:
        return 1.0 if numer == 0.0 else math.inf
    return numer / denom


@lru_cache(maxsize=1)
def _inequalities(n: int, orders: tuple[tuple[int, ...], ...]) -> tuple[list, list, np.ndarray]:
    """Index tables cc, ct and the read-only <= 0 rows, which no pair (a, b) changes."""
    n_types = len(orders)
    # Variables: d(c, c') per candidate pair, then d(c, t) per candidate and type.
    pairs = list(combinations(range(n), 2))
    cc = [[0] * n for _ in range(n)]
    for k, (i, j) in enumerate(pairs):
        cc[i][j] = cc[j][i] = k
    ct = [[len(pairs) + c * n_types + t for t in range(n_types)] for c in range(n)]

    # Row (u, v, w) reads d(u) - d(v) - d(w) <= 0; a ballot row repeats v.
    rows = []
    for t, order in enumerate(orders):
        rows += [(ct[x][t], ct[y][t], ct[y][t]) for x, y in zip(order, order[1:])]
        # d(x, t) <= d(y, t) + d(x, y) for each y that t ranks above x.
        rows += [(ct[x][t], ct[y][t], cc[x][y]) for i, y in enumerate(order) for x in order[i + 1:]]
    for i, j in pairs:
        rows += [(cc[i][j], cc[i][k], cc[k][j]) for k in range(n) if k != i and k != j]
        rows += [(cc[i][j], ct[i][t], ct[j][t]) for t in range(n_types)]
    rows = np.array(rows)
    at = np.arange(len(rows))[:, None]
    a_ub = np.zeros((len(rows), len(pairs) + n * n_types))
    a_ub[at, rows[:, :1]] = 1.0
    a_ub[at, rows[:, 1:]] = -1.0
    a_ub.setflags(write=False)
    return cc, ct, a_ub


def pairwise_distortion_lp(
    p: VotingProfile, a: int | str, b: int | str, cap: int = DEFAULT_LP_CAP
) -> LpOutcome:
    """Worst-case ratio LP: max total distance to a, total distance to b <= 1.

    The other rows are homogeneous and the all-ones metric is feasible, so
    the bound is tight at every optimum and the value is that of the ratio
    (Charnes-Cooper); no phase 1 runs.  ``cap`` bounds candidates + distinct
    ballots.  a == b short-circuits to value 1 (the objective equals the
    normalized constraint).  Status 'unbounded' means the ratio is
    unbounded: nothing in the profile ties a's distances to b's.
    """
    ai, bi = p.index(a), p.index(b)
    return LpOutcome("optimal", 1.0) if ai == bi else lps_against(p, bi, [ai], cap)[ai]


def lps_against(p: VotingProfile, b: int, rivals: list[int], cap: int = DEFAULT_LP_CAP) -> dict[int, LpOutcome]:
    """``pairwise_distortion_lp(p, a, b)`` for each index a != b in rivals, each LP
    warm-started from the one before: they differ only in their objective."""
    if not rivals:
        return {}
    if p.n + len(p.types) > cap:
        raise LpCapError(f"LP needs {p.n + len(p.types)} points (candidates + ballots), cap is {cap}")
    cc, ct, rows = _inequalities(p.n, tuple(order for order, _ in p.types))
    costs = np.zeros((p.n, rows.shape[1]))  # row c: c's social cost, by variable
    costs[np.arange(p.n)[:, None], ct] = [count for _, count in p.types]
    a_ub, b_ub = np.vstack([rows, costs[b]]), np.append(np.zeros(len(rows)), 1.0)
    outcomes, result = {}, None
    for a in rivals:
        # No equality rows; bench/tracing.py reads the a_eq argument's row count.
        result = solve_lp(costs[a], a_ub, b_ub, np.zeros((0, rows.shape[1])), np.zeros(0), start=result)
        if result.status == "unbounded":
            outcomes[a] = LpOutcome("unbounded", None)
            continue
        x = np.maximum(result.x, 0.0)
        reduced = np.hstack([x[cc], x[ct]])
        np.fill_diagonal(reduced, 0.0)
        outcomes[a] = LpOutcome("optimal", result.value, p, reduced, cap)
    return outcomes


def max_distortion(p: VotingProfile, a: int | str, cap: int = DEFAULT_LP_CAP) -> float:
    """max over opponents b of the pairwise LP ratio; 1.0 with no opponent."""
    ai = p.index(a)
    ratios = (pairwise_distortion_lp(p, ai, b, cap=cap).ratio for b in range(p.n) if b != ai)
    return max(ratios, default=1.0)


def solve_lp(
    c: np.ndarray, a_ub: np.ndarray, b_ub: np.ndarray, a_eq: np.ndarray, b_eq: np.ndarray,
    *, start: SimplexResult | None = None,
) -> SimplexResult:
    """Maximise c.x over x >= 0 with a_ub.x <= b_ub: primal simplex from the slack basis.

    Every b_ub must be >= 0, so the slack basis is feasible and no phase 1
    is needed; ``a_eq`` and ``b_eq`` must have no rows.  Other input raises
    ValueError.  The tableau is variable-major (row j holds column j, the
    objective's entry last); a pivot updates only the rows of the columns
    where the pivot row is nonzero.  Pivoting uses Dantzig's rule, falling
    back to Bland's rule after a run of degenerate pivots so cycling cannot
    occur.  Raises SolverFailureError past MAX_PIVOTS.  ``start``, an earlier
    result on the same a_ub and b_ub, warm-starts from its final basis.
    """
    c = np.asarray(c, dtype=float)
    a_ub, b_ub = np.asarray(a_ub, dtype=float), np.asarray(b_ub, dtype=float)
    if len(a_eq) or len(b_eq):
        raise ValueError("solve_lp takes no equality rows")
    if (b_ub < 0).any():
        raise ValueError("solve_lp needs b_ub >= 0")
    n_rows, nv = a_ub.shape

    if start is not None and start.tableau.shape != (nv + n_rows + 1, n_rows + 1):
        raise ValueError("start does not come from an LP of this shape")
    # Reduced costs of minimising -c.x; exactly 0 on the basic (unit) columns.
    obj = np.append(-c, np.zeros(n_rows + 1))
    if start is None:
        cols, basis = np.zeros((nv + n_rows + 1, n_rows + 1)), np.arange(nv, nv + n_rows)
        cols[:nv, :-1], cols[-1, :-1], cols[basis, np.arange(n_rows)] = a_ub.T, b_ub, 1.0
    else:
        # Over a row-major copy, so BLAS sums in the order the golden LP reports pin;
        # made before the tableau copy, which then reuses its freed memory.
        obj -= obj[start.basis] @ np.ascontiguousarray(start.tableau[:, :-1].T)
        cols, basis = start.tableau.copy(), start.basis.copy()
    cols[:, -1] = obj

    iters = degenerate_run = 0
    bland = False
    while True:
        reduced = cols[:-1, -1]
        if bland:
            improving = (reduced < -SOLVER_TOL).nonzero()[0]
            if not improving.size:
                break
            entering = int(improving[0])
        else:
            entering = int(reduced.argmin())
            if reduced[entering] >= -SOLVER_TOL:
                break
        col = cols[entering]
        rows = (col > SOLVER_TOL).nonzero()[0]  # col[-1], its reduced cost, is < -tol: never a row
        if not rows.size:
            return SimplexResult("unbounded", None, None, iters, cols, basis)
        ratios = cols[-1, rows] / col[rows]
        best = ratios[ratios.argmin()]
        tied = rows[ratios <= best + 1e-12]
        leaving = int(tied[0] if tied.size == 1 else tied[basis[tied].argmin()])
        if iters >= MAX_PIVOTS:
            raise SolverFailureError(f"simplex exceeded {MAX_PIVOTS} iterations")
        iters += 1
        if best <= SOLVER_TOL:
            degenerate_run += 1
            if degenerate_run > 50:
                bland = True
        else:
            degenerate_run = 0
            bland = False
        # Pivot on (leaving, entering); only the rows of columns where the pivot row is nonzero change.
        row = cols[:, leaving]
        row /= row[entering]
        nz = row.nonzero()[0]
        col_vals = col.copy()
        col_vals[leaving] = 0.0
        cols[nz] -= row[nz][:, None] * col_vals
        basis[leaving] = entering

    x = np.zeros(nv)
    structural = basis < nv
    x[basis[structural]] = cols[-1, :-1][structural]
    return SimplexResult("optimal", float(c @ x), x, iters, cols, basis)
