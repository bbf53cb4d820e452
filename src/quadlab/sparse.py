"""Cardinality-constrained (best-subset) regression.

One search, one cross-check and one oracle:

* ``fit_sparse_se`` and ``fit_sparse_mse`` run the same include/exclude
  branch and bound, an ``expand`` step on ``lp_core.best_first``, which
  owns the heap, the bound, the statuses and the pruning.  A node's bound
  is the error minimized over its included-plus-free columns with the
  excluded ones forced to zero (valid because adding exclusions can only
  raise the minimum).  The squared error reads it, and the branching
  coefficients, from one Gram fit per node; the part-balancing error from
  the compact dual of ``fit_se`` with the excluded columns' rows freed,
  each node warm-started from its parent's basis and stopped once its
  bound passes the incumbent; leaves are scored alone.
  Greedy forward selection under squared error seeds the incumbent of
  both;
* ``fit_sparse_se_milp``: the paper's big-M mixed-binary LP for the
  part-balancing error, handed to the branch-and-bound layer with automatic
  big-M escalation when a coefficient presses against the box;
* ``brute_force_subset``: exhaustive enumeration of all size-k supports,
  guarded to a million combinations.  It shares neither formulation nor
  solver with the search: every squared-error Gram block is solved in one
  batched call, and every part-balancing support in one stacked simplex
  over the centred-LAD duals (see ``brute_force_subset``).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .lp_core import (OBJ_MATCH_TOL, Incumbent, LpError, StackError, best_first,
                      certify_objective, relative_gap, solve_box_stack, solve_mip)
from .regression import (Dataset, LinearModel, SeSubsetOracle, fit_ols, fit_se, se_dual,
                         se_lp_problem)

BRUTE_FORCE_GUARD = 10 ** 6
ZERO_COEFF_TOL = 1e-8
STACK_BYTES = 32 << 20  # working memory of one batched oracle solve
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class SparseProblem:
    """Best-subset instance: data, cardinality bound, error kind, budgets.

    ``big_m`` is the box of the big-M program (``fit_sparse_se_milp`` only),
    finite and positive; None requests the automatic bound
    2*max(1, |c_ols|_inf).  ``max_nodes`` is the deterministic search
    budget; the wall-clock limit stays as a backstop (timing-dependent
    results are possible once it binds).
    """

    data: Dataset
    k: int
    error_kind: str = "se"
    big_m: float | None = None
    time_limit_s: float = 300.0
    gap_tol: float = 1e-9
    max_nodes: int | None = None

    def __post_init__(self):
        if self.error_kind not in ("mse", "se"):
            raise ValueError("error kind must be 'mse' or 'se'")
        if not 1 <= self.k <= self.data.d:
            raise ValueError("cardinality bound must satisfy 1 <= k <= d")
        if self.big_m is not None and not 0 < self.big_m < np.inf:
            raise ValueError("big-M must be finite and positive when given")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError("node budget must be None or >= 1")
        if not self.time_limit_s > 0:
            raise ValueError("time limit must be positive")
        if not 0 <= self.gap_tol < np.inf:
            raise ValueError("gap tolerance must be finite and >= 0")


@dataclass(frozen=True)
class SparseSolution:
    model: LinearModel
    support: tuple[int, ...]
    objective: float
    bound: float
    gap: float
    status: str
    nodes: int = 0
    time_s: float = 0.0
    big_m_active: bool = False

    def __post_init__(self):
        if len(self.support) == 0 and np.any(self.model.coefficients != 0.0):
            raise ValueError("support empty but coefficients nonzero")


@dataclass(frozen=True)
class RecoveryReport:
    accuracy: float
    k_star: int


def support_accuracy(estimated: LinearModel, true_coeffs, k_star: int) -> RecoveryReport:
    """Fraction of the true support carrying an estimated coefficient above ZERO_COEFF_TOL."""
    if k_star < 1:
        raise ValueError("k_star must be >= 1")
    true_coeffs = np.asarray(true_coeffs, dtype=float)
    est = np.asarray(estimated.coefficients, dtype=float)
    hits = int(np.sum((np.abs(est) > ZERO_COEFF_TOL) & (true_coeffs != 0.0)))
    return RecoveryReport(accuracy=hits / k_star, k_star=k_star)


def _sparse_model(data: Dataset, support, error_kind: str, fitted=None):
    """Refit on a fixed support and inflate coefficients back to full width.

    ``fitted``, when given, is that fit already made on the support's
    columns in ascending order, and no refit runs.
    """
    support = tuple(sorted(int(j) for j in support))
    if fitted is None:
        sub = Dataset(data.design[:, support] if support else np.zeros((data.n, 0)),
                      data.response)
        fitted = fit_ols(sub) if error_kind == "mse" else fit_se(sub)
    coeffs = np.zeros(data.d)
    for pos, j in enumerate(support):
        coeffs[j] = fitted.coefficients[pos]
    model = LinearModel(intercept=fitted.intercept, coefficients=coeffs,
                        objective=fitted.objective)
    realized = tuple(j for j in support if abs(coeffs[j]) > ZERO_COEFF_TOL)
    return model, realized, float(fitted.objective)


def brute_force_subset(data: Dataset, k: int, error_kind: str) -> SparseSolution:
    """Exhaustive best subset of size k; the oracle for the exact solvers.

    Size-k enumeration suffices under minimization because enlarging a
    support never increases the restricted optimum.  Every support is
    scored in batches (``_mse_objectives``, ``_se_objectives``), the first
    support beating the best so far by more than 1e-15 wins, and only the
    winner is refit through ``_sparse_model``; under the part-balancing
    error its refit objective must match the batched value within
    ``OBJ_MATCH_TOL``.
    """
    if error_kind not in ("mse", "se"):
        raise ValueError("error kind must be 'mse' or 'se'")
    if not 1 <= k <= data.d:
        raise ValueError("cardinality bound must satisfy 1 <= k <= d")
    count = math.comb(data.d, k)
    if count > BRUTE_FORCE_GUARD:
        raise ValueError(f"C(d, k) = {count} exceeds the enumeration guard")
    start = time.perf_counter()
    values = _mse_objectives(data, k) if error_kind == "mse" else _se_objectives(data, k)
    best_support, best_obj = None, np.inf
    for combo, obj in zip(itertools.combinations(range(data.d), k), values.tolist()):
        if obj < best_obj - 1e-15:
            best_support, best_obj = combo, obj
    model, support, objective = _sparse_model(data, best_support, error_kind)
    if error_kind == "se":
        certify_objective(objective, best_obj, f"refit of oracle support {best_support}")
    return SparseSolution(model=model, support=support, objective=objective,
                          bound=objective, gap=0.0, status="optimal",
                          nodes=count, time_s=time.perf_counter() - start)


def _combination_chunks(d: int, k: int, item_bytes: int):
    """All size-k column subsets in ``itertools.combinations`` order, as (m, k) arrays.

    Each chunk holds as many subsets as fit ``STACK_BYTES`` at
    ``item_bytes`` of working memory per subset (at least one).
    """
    size = max(1, STACK_BYTES // item_bytes)
    combos = itertools.combinations(range(d), k)
    while chunk := list(itertools.islice(combos, size)):
        yield np.array(chunk, dtype=np.intp)


def _se_objectives(data: Dataset, k: int) -> np.ndarray:
    """Zero-bias part-balancing error of every size-k support, in combinations order.

    The intercept sits at the statistic, so SE(S) = 1/2 min_c mean|y~ - X~_S c|
    on centred data y~, X~: the LP is the support's k rows of
    ``regression.se_dual``, the dual the fitters and the subset search
    solve, and its row duals are the negated coefficients.  Each chunk of
    supports is one ``solve_box_stack`` call: every dual starts from the
    basis of the k observations with the smallest least-squares residuals
    of its support (those a least-absolute-deviation fit tends to
    interpolate), and a bound-flipping dual simplex takes it from there.  A
    stack error (a dual step that broke down, the iteration cap, or a
    hand-off to ``solve_lp`` that did not end optimal) names the support.
    Each value is certified: it must equal 1/2 mean|y~ - X~_S beta| with
    beta read off the support's row duals, within ``OBJ_MATCH_TOL``.
    """
    cost, h, xt = se_dual(data)
    out = []
    # per support: its k x n rows, the stack's compacted copy of them and at
    # most seven length-n work arrays (solve_box_stack peaks at 4.2-6.8 of
    # them beyond the copy for k = 1, 3 and 6 at n = 1,000 and 10,000)
    for chunk in _combination_chunks(data.d, k, 8 * data.n * (2 * k + 7)):
        a = xt[chunk]
        try:
            sol = solve_box_stack(cost, -h, h, a)
        except StackError as exc:
            raise LpError(f"oracle LP of support {tuple(chunk[exc.index].tolist())}: "
                          f"{exc}") from exc
        value = -sol.objective
        fitted = (-sol.duals[:, None, :] @ a)[:, 0, :]
        primal = 0.5 * np.mean(np.abs(-cost - fitted), axis=1)
        tol = OBJ_MATCH_TOL * np.maximum(1.0, np.abs(value))
        miss = np.flatnonzero(np.abs(primal - value) > tol)
        if miss.size:
            i = miss[0]
            raise LpError(f"oracle support {tuple(chunk[i].tolist())}: primal error {primal[i]} "
                          f"disagrees with LP optimum {value[i]}")
        out.append(value)
    return np.concatenate(out)


class _GramSolver:
    """Least-squares objectives on arbitrary supports from one Gram matrix.

    It is also the squared-error oracle of the subset search, whose nodes
    carry their fit (eigenvectors and coordinates), so branching reads the
    coefficients without refitting: the part-balancing oracle is
    ``regression.SeSubsetOracle``.
    """

    def __init__(self, data: Dataset):
        full = np.hstack((np.ones((data.n, 1)), data.design))
        self.gram = full.T @ full
        self.rhs = full.T @ data.response
        self.yty = float(data.response @ data.response)
        self.n = data.n
        self.d = data.d

    def _blocks(self, supports):
        """Gram blocks and right-hand sides over the intercept plus each row of ``supports``."""
        supports = np.asarray(supports, dtype=np.intp)
        idx = np.zeros((supports.shape[0], supports.shape[1] + 1), dtype=np.intp)
        np.add(supports, 1, out=idx[:, 1:])
        return self.gram[idx[:, :, None], idx[:, None, :]], self.rhs[idx]

    def objectives(self, supports) -> np.ndarray:
        """Least-squares error of each row of the (m, size) array ``supports``, in one batch."""
        _, _, explained = _gram_fits(*self._blocks(supports), self.n)
        return (self.yty - explained) / self.n

    def objective(self, support) -> float:
        return float(self.objectives([support])[0])

    def relax(self, included, free, parent, cutoff=None):
        """The fit on in-plus-free: its error, and the fit itself as the node; no cutoff."""
        v, coords, explained = _gram_fits(*self._blocks([included + free]), self.n)
        return float(((self.yty - explained) / self.n)[0]), (v[0], coords[0])

    def branch_values(self, included, free, node):
        v, coords = node
        return (v @ coords)[1 + len(included):]

    def leaf_fit(self, support):
        """None: scores come from the Gram matrix, so ``_sparse_model`` refits with ``fit_ols``."""
        return None


def _gram_fits(g, h, n: int):
    """Least-squares fits on a stack of Gram blocks g with right-hand sides h.

    Each block is solved rank-revealingly: with g = V diag(lam) V^T, only
    the eigenpairs with lam > n * eps * lam_max are kept, since smaller
    ones are rounding left in the n-term Gram sums (a constant or
    collinear column makes them) and dividing by them scores garbage.
    Returns the eigenvectors V, the coordinates (v.h) / lam (zero for a
    dropped pair), so V @ coordinates is the minimum-norm solution, and the
    explained sum of squares sum_kept (v.h)^2 / lam, so the error is
    (y.y - explained) / n with no large coefficients to cancel.
    """
    lam, v = np.linalg.eigh(g)
    proj = (h[:, None, :] @ v)[:, 0, :]
    coords = proj / np.where(lam > lam[:, -1:] * (n * _EPS), lam, np.inf)
    return v, coords, (proj[:, None, :] @ coords[:, :, None])[:, 0, 0]


def _mse_objectives(data: Dataset, k: int) -> np.ndarray:
    """Least-squares error of every size-k support, in combinations order.

    Each chunk of supports is one ``_GramSolver.objectives`` batch, the
    code that also scores single supports, so the values are the same.
    """
    solver = _GramSolver(data)
    # per support: its Gram block and eigenvectors plus six length-(k+1) arrays
    return np.concatenate([solver.objectives(chunk) for chunk in
                           _combination_chunks(data.d, k, 8 * (k + 1) * (2 * k + 8))])


def _greedy_forward(solver: _GramSolver, k: int):
    """Forward selection under squared error: k steps, each adding the best column.

    Each step scores all remaining candidates in one batch.
    """
    chosen: list[int] = []
    remaining = list(range(solver.d))
    while len(chosen) < k and remaining:
        scores = solver.objectives([chosen + [j] for j in remaining])
        best_j, best_obj = None, np.inf
        for j, obj in zip(remaining, scores.tolist()):
            if obj < best_obj - 1e-15:
                best_j, best_obj = j, obj
        chosen.append(best_j)
        remaining.remove(best_j)
    return tuple(sorted(chosen))


def _include_exclude(problem: SparseProblem, oracle, seed) -> SparseSolution:
    """Best-first include/exclude branch and bound over a subset oracle.

    A node fixes some columns in and leaves others free (the rest are out);
    ``oracle.relax`` gives its bound, the minimum error over in-plus-free,
    which exclusions can only raise, and the state its children's ``relax``
    calls warm-start from.  Branching picks the free column with the
    largest |coefficient| in ``oracle.branch_values``; the include child
    keeps the parent's column set, the exclude child drops the column.  A
    child with k columns in, or a node with at most k columns in reach, is
    a leaf scored by ``oracle.objective`` from its support alone, as in
    leaps and bounds.  ``seed`` is the starting incumbent support.  The
    loop, its statuses and its pruning are ``lp_core.best_first``'s.  The
    incumbent's model is ``oracle.leaf_fit`` of its support where the oracle
    keeps one, else a refit.

    Each child's ``relax`` is given the prune threshold at that moment,
    ``Incumbent.threshold()``, as its cutoff; nothing changes the incumbent
    between the relax and the yield that checks the child.  An oracle may
    stop the relaxation once its bound provably passes the threshold and
    return the bound reached (``SeSubsetOracle`` does, through
    ``solve_lp``'s cutoff; ``_GramSolver`` ignores it): such a cut child is
    dropped at yield, as it would have been with its exact bound, and is
    never expanded.  The root passes no cutoff.
    """
    data, k = problem.data, problem.k
    start = time.perf_counter()
    incumbent = Incumbent()

    def score(leaf):
        incumbent.offer(oracle.objective(leaf), leaf)

    def expand(node):
        included, free, state = node
        if len(included) + len(free) <= k:
            score(tuple(sorted(included + free)))
            return
        branch_pos = int(np.argmax(np.abs(oracle.branch_values(included, free, state))))
        j = free[branch_pos]
        rest = free[:branch_pos] + free[branch_pos + 1:]
        for child_in, child_free in (((*included, j), rest), (included, rest)):
            if len(child_in) + len(child_free) < k:
                continue
            if len(child_in) == k:
                score(tuple(sorted(child_in)))
                continue
            child_bound, child = oracle.relax(child_in, child_free, state,
                                              incumbent.threshold())
            yield child_bound, (child_in, child_free, child)

    root_candidates = tuple(range(data.d))
    root_bound, root = oracle.relax((), root_candidates, None)
    score(seed)
    out = best_first(root_bound, ((), root_candidates, root), expand, incumbent,
                     problem.gap_tol, problem.max_nodes, problem.time_limit_s)

    model, support, objective = _sparse_model(data, incumbent.solution, problem.error_kind,
                                              oracle.leaf_fit(incumbent.solution))
    bound = min(out.bound, objective)
    gap = relative_gap(objective, bound)
    return SparseSolution(model=model, support=support, objective=objective,
                          bound=bound, gap=gap, status=out.status, nodes=out.nodes,
                          time_s=time.perf_counter() - start)


def fit_sparse_mse(problem: SparseProblem) -> SparseSolution:
    """Best subset under squared error by include/exclude branch and bound.

    Node bounds and branching coefficients are least-squares fits from one
    Gram matrix; greedy forward selection seeds the incumbent.
    """
    if problem.error_kind != "mse":
        raise ValueError("fit_sparse_mse expects error kind 'mse'")
    solver = _GramSolver(problem.data)
    return _include_exclude(problem, solver, _greedy_forward(solver, problem.k))


def fit_sparse_se(problem: SparseProblem) -> SparseSolution:
    """Best subset under the part-balancing error by include/exclude branch and bound.

    Node bounds are fits on the compact dual of ``fit_se`` with the rows of
    excluded columns freed, each warm-started from its parent's basis and
    stopped at the incumbent, and the branching coefficients are the
    negated row duals.  Leaves, and the squared-error greedy support that
    seeds the incumbent, are scored by ``fit_se`` on their columns.
    ``fit_sparse_se_milp`` solves the same problem as the paper's big-M
    program; ``big_m`` applies only there.
    """
    if problem.error_kind != "se":
        raise ValueError("fit_sparse_se expects error kind 'se'")
    if problem.big_m is not None:
        raise ValueError("big-M applies only to fit_sparse_se_milp")
    seed = _greedy_forward(_GramSolver(problem.data), problem.k)
    return _include_exclude(problem, SeSubsetOracle(problem.data), seed)


def fit_sparse_se_milp(problem: SparseProblem) -> SparseSolution:
    """Best subset under the part-balancing error via a big-M binary LP.

    The paper's formulation, kept as a cross-check of ``fit_sparse_se``.
    The epigraph LP gains one indicator per coefficient with the linking
    rows -M z_j <= c_j <= M z_j and a cardinality row.  If an incumbent
    coefficient reaches 0.99*M the box was binding: M doubles and the solve
    repeats, at most three times.  The squared-error greedy support is the
    incumbent hint.
    """
    if problem.error_kind != "se":
        raise ValueError("fit_sparse_se_milp expects error kind 'se'")
    data, k = problem.data, problem.k
    start = time.perf_counter()
    if problem.big_m is not None:
        big_m = float(problem.big_m)
    else:
        ols = fit_ols(data)
        big_m = 2.0 * max(1.0, float(np.max(np.abs(ols.coefficients), initial=0.0)))
    hint = np.zeros(data.d)
    hint[list(_greedy_forward(_GramSolver(data), k))] = 1.0

    escalations = 0
    while True:
        mip = _solve_se_milp(problem, big_m, hint)
        if mip.status == "infeasible":
            raise LpError("sparse relaxation reported infeasible")
        coeffs = mip.x[1:1 + data.d]
        if float(np.max(np.abs(coeffs), initial=0.0)) < 0.99 * big_m:
            break
        escalations += 1
        if escalations > 3:
            raise LpError(f"big-M escalation exhausted at M = {big_m}")
        big_m *= 2.0

    z = mip.x[-data.d:]
    support = tuple(j for j in range(data.d)
                    if z[j] > 0.5 and abs(coeffs[j]) > ZERO_COEFF_TOL)
    model, support, objective = _sparse_model(data, support, "se")
    bound = min(mip.bound, objective)
    gap = relative_gap(objective, bound)
    return SparseSolution(model=model, support=support, objective=objective,
                          bound=bound, gap=gap, status=mip.status,
                          nodes=mip.nodes, time_s=time.perf_counter() - start,
                          big_m_active=escalations > 0)


def _solve_se_milp(problem: SparseProblem, big_m: float, hint):
    data, k = problem.data, problem.k
    lp, index = se_lp_problem(data)
    base = lp.num_vars
    d = data.d
    binaries = base + np.arange(d)
    # the epigraph LP with one indicator per coefficient appended
    grown = type(lp)(base + d)
    grown.set_objective(np.concatenate((lp.objective, np.zeros(d))))
    grown.set_bounds(slice(0, base), lp.lower, lp.upper)
    grown.mark_binary(binaries)
    grown.add_rows(np.pad(lp.matrix, ((0, 0), (0, d))), lp.relations, lp.rhs)
    # c_j - M z_j <= 0 and -c_j - M z_j <= 0, interleaved by j, then sum(z) <= k
    rows = np.zeros((2 * d + 1, base + d))
    linking = np.arange(2 * d)
    rows[linking, np.repeat(index["c"], 2)] = np.tile([1.0, -1.0], d)
    rows[linking, np.repeat(binaries, 2)] = -big_m
    rows[-1, binaries] = 1.0
    grown.add_rows(rows, "<=", np.append(np.zeros(2 * d), k))
    return solve_mip(grown, time_limit_s=problem.time_limit_s,
                     gap_tol=problem.gap_tol, max_nodes=problem.max_nodes,
                     incumbent_hint=hint)
