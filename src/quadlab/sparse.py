"""Cardinality-constrained (best-subset) regression.

One search, one cross-check and one oracle:

* ``fit_sparse_se`` and ``fit_sparse_mse`` run the same best-first
  include/exclude branch and bound.  A node's bound is the error minimized
  over its included-plus-free columns with the excluded ones forced to zero
  (valid because adding exclusions can only raise the minimum).  The
  squared error reads it from one Gram matrix; the part-balancing error
  from the compact dual of ``fit_se`` with the excluded columns' rows
  freed, each node warm-started from its parent's basis.  Greedy forward
  selection under squared error seeds the incumbent of both;
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

import heapq
import itertools
import math
import time
from dataclasses import dataclass

import numpy as np

from .lp_core import (OBJ_MATCH_TOL, LpError, StackLimitError, certify_objective,
                      solve_box_stack, solve_mip)
from .regression import Dataset, LinearModel, SeSubsetOracle, fit_ols, fit_se, se_lp_problem

BRUTE_FORCE_GUARD = 10 ** 6
ZERO_COEFF_TOL = 1e-8
STACK_BYTES = 32 << 20  # working memory of one batched oracle solve


@dataclass(frozen=True)
class SparseProblem:
    """Best-subset instance: data, cardinality bound, error kind, budgets.

    ``big_m`` is the box of the big-M program (``fit_sparse_se_milp`` only);
    None requests the automatic bound 2*max(1, |c_ols|_inf).  ``max_nodes``
    is the deterministic search budget; the wall-clock limit stays as a
    backstop (timing-dependent results are possible once it binds).
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
        if self.big_m is not None and self.big_m <= 0:
            raise ValueError("big-M must be positive when given")


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


def support_accuracy(estimated: LinearModel, true_coeffs, k_star: int,
                     zero_tol: float = ZERO_COEFF_TOL) -> RecoveryReport:
    """Fraction of the true support carrying a nonzero estimated coefficient."""
    if k_star < 1:
        raise ValueError("k_star must be >= 1")
    true_coeffs = np.asarray(true_coeffs, dtype=float)
    est = np.asarray(estimated.coefficients, dtype=float)
    hits = int(np.sum((np.abs(est) > zero_tol) & (true_coeffs != 0.0)))
    return RecoveryReport(accuracy=hits / k_star, k_star=k_star)


def _sparse_model(data: Dataset, support, error_kind: str):
    """Refit on a fixed support and inflate coefficients back to full width."""
    support = tuple(sorted(int(j) for j in support))
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

    At zero bias the error's statistic is the mean, so the intercept
    recentres: SE(S) = 1/2 min_c mean|y~ - X~_S c| on centred data y~, X~.
    That intercept-free L1 fit has the dual max y~.u s.t. X~_S^T u = 0,
    |u_i| <= 1/(2n), with k rows whose duals are the negated coefficients.
    Each chunk of supports is one ``solve_box_stack`` call, and each value
    is certified: it must equal 1/2 mean|y~ - X~_S beta| with beta read off
    the support's row duals, within ``OBJ_MATCH_TOL``.
    """
    y = data.response - data.response.mean()
    xt = (data.design - data.design.mean(axis=0)).T
    half_n = 0.5 / data.n
    out = []
    # per support: its k x n rows plus about eight length-n work arrays
    for chunk in _combination_chunks(data.d, k, 8 * data.n * (k + 8)):
        a = xt[chunk]
        try:
            sol = solve_box_stack(-y, -half_n, half_n, a)
        except StackLimitError as exc:
            raise LpError(f"oracle LP of support {tuple(chunk[exc.index].tolist())}: "
                          f"{exc}") from exc
        value = -sol.objective
        fitted = (-sol.duals[:, None, :] @ a)[:, 0, :]
        primal = 0.5 * np.mean(np.abs(y - fitted), axis=1)
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
    carry nothing: the part-balancing one is ``regression.SeSubsetOracle``.
    """

    def __init__(self, data: Dataset):
        full = np.hstack((np.ones((data.n, 1)), data.design))
        self.gram = full.T @ full
        self.rhs = full.T @ data.response
        self.yty = float(data.response @ data.response)
        self.n = data.n
        self.d = data.d

    def _system(self, support):
        """Gram block and right-hand side over the intercept plus ``support``."""
        idx = np.concatenate(([0], np.asarray(support, dtype=np.intp) + 1))
        return self.gram[np.ix_(idx, idx)], self.rhs[idx]

    def objective(self, support, node=None) -> float:
        g, h = self._system(support)
        beta = _ridge_solve(g, h)
        return float((self.yty - beta @ h - beta @ (g @ beta - h)) / self.n)

    def coefficients(self, support):
        return _ridge_solve(*self._system(support))

    def relax(self, included, free, parent):
        return self.objective(included + free), None

    def branch_values(self, included, free, node):
        return self.coefficients(included + free)[1 + len(included):]


def _ridge_solve(g, h):
    """Solve a Gram block; a singular one gets 1e-10 * trace/dim on its diagonal."""
    try:
        return np.linalg.solve(g, h)
    except np.linalg.LinAlgError:
        bump = 1e-10 * np.trace(g) / g.shape[0]
        return np.linalg.solve(g + bump * np.eye(g.shape[0]), h)


def _mse_objectives(data: Dataset, k: int) -> np.ndarray:
    """Least-squares error of every size-k support, in combinations order.

    Each chunk's Gram blocks are solved in one batched call; if any block
    of the chunk is singular, the chunk is solved block by block with the
    ridge fallback of ``_ridge_solve``.
    """
    solver = _GramSolver(data)
    out = []
    for chunk in _combination_chunks(data.d, k, 8 * (k + 1) * (k + 4)):
        idx = np.column_stack((np.zeros(len(chunk), dtype=np.intp), chunk + 1))
        g = solver.gram[idx[:, :, None], idx[:, None, :]]
        h = solver.rhs[idx]
        try:
            beta = np.linalg.solve(g, h[..., None])[..., 0]
        except np.linalg.LinAlgError:
            beta = np.array([_ridge_solve(gi, hi) for gi, hi in zip(g, h)])
        # stacked (1 x m)(m x 1) products replay ``objective``'s dot products
        row = beta[:, None, :]
        fitted = (g @ beta[..., None])[..., 0]
        out.append((solver.yty - (row @ h[..., None])[:, 0, 0]
                    - (row @ (fitted - h)[..., None])[:, 0, 0]) / solver.n)
    return np.concatenate(out)


def _greedy_forward(solver: _GramSolver, k: int):
    """Forward selection under squared error: k steps, each adding the best column."""
    chosen: list[int] = []
    remaining = list(range(solver.d))
    while len(chosen) < k and remaining:
        best_j, best_obj = None, np.inf
        for j in remaining:
            obj = solver.objective(chosen + [j])
            if obj < best_obj - 1e-15:
                best_j, best_obj = j, obj
        chosen.append(best_j)
        remaining.remove(best_j)
    return tuple(sorted(chosen))


def _include_exclude(problem: SparseProblem, oracle, seed) -> SparseSolution:
    """Best-first include/exclude branch and bound over a subset oracle.

    A node fixes some columns in and leaves others free (the rest are out);
    ``oracle.relax`` gives its bound, the minimum error over in-plus-free,
    which exclusions can only raise.  Branching picks the free column with
    the largest |coefficient| in ``oracle.branch_values``; the include child
    keeps the parent's column set, the exclude child drops the column.  A
    node with k columns in, or at most k columns in reach, is a leaf scored
    by ``oracle.objective``.  ``seed`` is the starting incumbent support.
    Oracle calls below a node receive that node's state, for warm starts.
    """
    data, k = problem.data, problem.k
    start = time.perf_counter()
    root_candidates = tuple(range(data.d))
    root_bound, root = oracle.relax((), root_candidates, None)
    incumbent_support = seed
    incumbent_obj = oracle.objective(seed, root)

    counter = 0
    heap = [(root_bound, 0, (), root_candidates, root)]
    nodes = 0
    best_bound = root_bound
    status = None
    while heap:
        lb = min(heap[0][0], incumbent_obj)
        best_bound = max(best_bound, lb)
        if abs(incumbent_obj - best_bound) / max(1.0, abs(incumbent_obj)) <= problem.gap_tol:
            status = "optimal"
            break
        if problem.max_nodes is not None and nodes >= problem.max_nodes:
            status = "feasible"
            break
        if time.perf_counter() - start > problem.time_limit_s:
            status = "time_limit"
            break
        bound, _, included, free, node = heapq.heappop(heap)
        if bound >= incumbent_obj - 1e-12:
            continue
        nodes += 1
        if len(included) == k or len(included) + len(free) <= k:
            leaf = tuple(sorted(included if len(included) == k else included + free))
            obj = oracle.objective(leaf, node)
            if obj < incumbent_obj - 1e-15:
                incumbent_support, incumbent_obj = leaf, obj
            continue
        branch_pos = int(np.argmax(np.abs(oracle.branch_values(included, free, node))))
        j = free[branch_pos]
        rest = free[:branch_pos] + free[branch_pos + 1:]
        for child_in, child_free in (((*included, j), rest), (included, rest)):
            if len(child_in) + len(child_free) < k:
                continue
            if len(child_in) == k:
                obj = oracle.objective(tuple(sorted(child_in)), node)
                if obj < incumbent_obj - 1e-15:
                    incumbent_support, incumbent_obj = tuple(sorted(child_in)), obj
                continue
            child_bound, child = oracle.relax(child_in, child_free, node)
            if child_bound >= incumbent_obj - 1e-12:
                continue
            counter += 1
            heapq.heappush(heap, (child_bound, counter, child_in, child_free, child))
    if status is None:
        best_bound = incumbent_obj
        status = "optimal"
    best_bound = min(best_bound, incumbent_obj)

    model, support, objective = _sparse_model(data, incumbent_support, problem.error_kind)
    bound = min(best_bound, objective)
    gap = abs(objective - bound) / max(1.0, abs(objective))
    return SparseSolution(model=model, support=support, objective=objective,
                          bound=bound, gap=gap, status=status, nodes=nodes,
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
    excluded columns freed, each warm-started from its parent's basis, and
    the branching coefficients are the negated row duals.  The squared-error
    greedy support, scored under the part-balancing error, seeds the
    incumbent.  ``fit_sparse_se_milp`` solves the same problem as the
    paper's big-M program; ``big_m`` applies only there.
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
    gap = abs(objective - bound) / max(1.0, abs(objective))
    return SparseSolution(model=model, support=support, objective=objective,
                          bound=bound, gap=gap, status=mip.status,
                          nodes=mip.nodes, time_s=time.perf_counter() - start,
                          big_m_active=escalations > 0)


def _solve_se_milp(problem: SparseProblem, big_m: float, hint):
    data, k = problem.data, problem.k
    lp, index = se_lp_problem(data)
    base = lp.num_vars
    d = data.d
    # append one indicator per coefficient
    grown = type(lp)(base + d)
    grown.objective[:base] = lp.objective
    grown.lower[:base] = lp.lower
    grown.upper[:base] = lp.upper
    grown.row_index = lp.row_index
    grown.row_value = lp.row_value
    grown.relations = lp.relations
    grown.rhs = lp.rhs
    binaries = base + np.arange(d)
    grown.mark_binary(binaries)
    # c_j - M z_j <= 0 and -c_j - M z_j <= 0, interleaved by j
    linking = np.empty((2 * d, 2), dtype=np.intp)
    linking[:, 0] = np.repeat(index["c"], 2)
    linking[:, 1] = np.repeat(binaries, 2)
    signs = np.tile([1.0, -1.0], d)
    grown.add_rows(linking, np.column_stack((signs, np.full(2 * d, -big_m))), "<=", 0.0)
    grown.add_rows(binaries[None, :], np.ones((1, d)), "<=", float(k))
    return solve_mip(grown, time_limit_s=problem.time_limit_s,
                     gap_tol=problem.gap_tol, max_nodes=problem.max_nodes,
                     incumbent_hint=hint)
