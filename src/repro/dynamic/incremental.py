"""Incremental (warm-started) objective evaluation.

The paper's future-work section proposes "incremental objective evaluation
techniques to reduce cost".  The dominant cost of evaluating ``h(w)`` is
the sparse eigensolve for the bottom ``k + 1`` eigenpairs of ``L(w)``.
When ``L`` changes slightly — a new weight vector near the previous one, or
a small batch of edge updates — the previous eigenvectors are an excellent
subspace for the new bottom eigenspace.  :class:`WarmStartObjective`
exploits that through a :class:`repro.solvers.SolverContext` configured
for the Lanczos backend (seeded from the previous solve's Ritz block),
falling back to the exact dense path on small problems via the registry's
shared dispatch rule.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.core.laplacian import aggregate_laplacians
from repro.solvers import SolverContext, bottom_eigenpairs
from repro.utils.errors import ValidationError
from repro.utils.validation import check_weights

_EIGENGAP_FLOOR = 1e-12


class WarmStartObjective:
    """Spectral objective with eigenvector warm starting across evaluations.

    Functionally equivalent to :class:`repro.core.objective.
    SpectralObjective` (same ``h(w)`` value up to solver tolerance), but
    successive evaluations seed Lanczos from the previous eigenvector
    block.  The owning :class:`~repro.solvers.SolverContext` tracks
    solve and matvec counts so the warm-start benefit is measurable (see
    the lazy-update ablation bench).

    Parameters
    ----------
    laplacians:
        The view Laplacians (may be refreshed via :meth:`set_laplacians`
        as a dynamic graph evolves).
    k, gamma:
        As in the static objective.
    tol:
        Lanczos (ARPACK) convergence tolerance.
    solver:
        Optional externally-owned context; by default a Lanczos context is
        created (small problems fall back to dense via the registry's
        dispatch rule, where warm starting has nothing to accelerate).
    """

    def __init__(
        self,
        laplacians: Sequence[sp.spmatrix],
        k: int,
        gamma: float = 0.5,
        tol: float = 1e-7,
        seed=0,
        solver: Optional[SolverContext] = None,
    ) -> None:
        if len(laplacians) == 0:
            raise ValidationError("need at least one view Laplacian")
        if k < 1:
            raise ValidationError(f"k must be >= 1, got {k}")
        n = laplacians[0].shape[0]
        if k + 1 > n:
            raise ValidationError(f"k + 1 = {k + 1} exceeds n = {n}")
        self.laplacians = list(laplacians)
        self.k = int(k)
        self.gamma = float(gamma)
        self.tol = float(tol)
        self.seed = seed
        self.n_evaluations = 0
        if solver is None:
            solver = SolverContext(
                method="lanczos", tol=tol, seed=seed, maxiter=100, warm_start=True
            )
        self.solver = solver

    @property
    def r(self) -> int:
        """Number of views."""
        return len(self.laplacians)

    @property
    def n_warm_evaluations(self) -> int:
        """Eigensolves that started from a cached Ritz block."""
        return self.solver.stats.warm_solves

    @property
    def total_solver_matvecs(self) -> int:
        """Operator applications across all eigensolves (the quantity
        warm starting reduces)."""
        return self.solver.stats.matvecs

    def set_laplacians(self, laplacians: Sequence[sp.spmatrix]) -> None:
        """Swap in updated view Laplacians (keeps the eigenvector cache —
        small graph perturbations barely move the bottom eigenspace)."""
        if len(laplacians) != self.r:
            raise ValidationError(
                f"expected {self.r} Laplacians, got {len(laplacians)}"
            )
        self.laplacians = list(laplacians)

    def invalidate_cache(self) -> None:
        """Drop the warm-start eigenvector cache."""
        self.solver.invalidate()

    # ------------------------------------------------------------------ #

    def _cold_solve(self, laplacian, t: int) -> Tuple[np.ndarray, np.ndarray]:
        """Exact cold solve (machine-precision ``auto`` dispatch, no
        iteration cap — the context's tolerance settings do not apply)
        whose Ritz block is donated to the context for later warm solves."""
        values, vectors = bottom_eigenpairs(
            laplacian, t, method="auto", seed=self.seed
        )
        self.solver.seed_block(vectors)
        return values, vectors

    def _solve(self, laplacian: sp.csr_matrix) -> Tuple[np.ndarray, np.ndarray]:
        t = self.k + 1
        if self.solver.warm_block(laplacian.shape[0]) is None:
            # No cached subspace yet: the first evaluation runs the exact
            # machine-precision path, and its block seeds every later one.
            return self._cold_solve(laplacian, t)
        try:
            return self.solver.eigenpairs(laplacian, t)
        except Exception:
            # Warm start failed (rare numerical breakdown).
            self.solver.invalidate()
            return self._cold_solve(laplacian, t)

    def __call__(self, weights) -> float:
        """Evaluate ``h(w)`` with warm-started eigensolves."""
        weights = check_weights(weights, r=self.r)
        laplacian = aggregate_laplacians(self.laplacians, weights)
        values, _ = self._solve(laplacian)
        self.n_evaluations += 1
        lambda_2 = float(values[1]) if values.size > 1 else 0.0
        lambda_k = float(values[self.k - 1])
        lambda_k1 = float(values[self.k])
        eigengap = lambda_k / max(lambda_k1, _EIGENGAP_FLOOR)
        return eigengap - lambda_2 + self.gamma * float(np.dot(weights, weights))
