"""A from-scratch Lanczos eigensolver with reorthogonalization + deflation.

ARPACK (via ``scipy.sparse.linalg.eigsh``) is the production path in
:mod:`repro.solvers`; this module provides an independent, readable
implementation used as a cross-check oracle in the test suite.

Design notes
------------
* The solver targets the *largest* eigenvalues of a symmetric PSD
  operator; the bottom of a normalized-Laplacian spectrum is reached
  through the complement trick ``2I - L``
  (:func:`lanczos_bottom_eigenpairs`).
* A single Krylov space contains at most one eigenvector per *distinct*
  eigenvalue, so degenerate spectra (e.g. one zero per connected
  component) would silently lose copies.  We therefore extract one
  eigenpair per round and deflate it (``A <- A - lambda v v^T``), which is
  exact for PSD operators and restores full multiplicities.
* Full reorthogonalization ("twice is enough", Parlett–Kahan) keeps the
  basis numerically orthogonal; cost ``O(n m^2)`` per round is fine for
  the modest subspace sizes this library needs.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import scipy.linalg

from repro.utils.errors import ConvergenceError, ValidationError
from repro.utils.random import check_random_state
from repro.utils.sparse import ensure_csr, sparse_identity

_SPECTRUM_UPPER_BOUND = 2.0


class _DeflatedOperator:
    """``A - sum_i lambda_i v_i v_i^T`` without materializing the update."""

    def __init__(self, operator, values: List[float], vectors: List[np.ndarray]):
        self._operator = operator
        self._values = values
        self._vectors = vectors
        self.shape = operator.shape

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        result = np.asarray(self._operator @ x).ravel()
        for value, vector in zip(self._values, self._vectors):
            result -= value * vector * float(vector @ x)
        return result


def _single_top_eigenpair(
    operator, max_subspace: int, rng
) -> Tuple[float, np.ndarray]:
    """Largest eigenpair of a symmetric operator from one Krylov space."""
    n = operator.shape[0]
    max_subspace = min(max(max_subspace, 8), n)
    basis = np.zeros((n, max_subspace))
    alphas = np.zeros(max_subspace)
    betas = np.zeros(max_subspace)

    vector = rng.standard_normal(n)
    vector /= np.linalg.norm(vector)
    basis[:, 0] = vector
    previous = np.zeros(n)
    beta = 0.0

    size = 0
    for j in range(max_subspace):
        size = j + 1
        w = np.asarray(operator @ basis[:, j]).ravel()
        alphas[j] = float(basis[:, j] @ w)
        w -= alphas[j] * basis[:, j] + beta * previous
        # Full reorthogonalization, applied twice.
        for _ in range(2):
            w -= basis[:, : j + 1] @ (basis[:, : j + 1].T @ w)
        beta = float(np.linalg.norm(w))
        betas[j] = beta
        if beta < 1e-14 or j + 1 == max_subspace:
            break
        previous = basis[:, j]
        basis[:, j + 1] = w / beta

    tri_values, tri_vectors = scipy.linalg.eigh_tridiagonal(
        alphas[:size], betas[: size - 1]
    )
    top = int(np.argmax(tri_values))
    value = float(tri_values[top])
    vector = basis[:, :size] @ tri_vectors[:, top]
    vector /= np.linalg.norm(vector)
    return value, vector


def lanczos_top_eigenpairs(
    operator,
    t: int,
    max_subspace: int = 0,
    tol: float = 1e-8,
    seed=0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Top-``t`` eigenpairs of a symmetric PSD operator via deflation rounds.

    Parameters
    ----------
    operator:
        Symmetric positive-semidefinite matrix (sparse or dense)
        supporting ``@`` with vectors.  (PSD is required for the exactness
        of the ``A - lambda v v^T`` deflation; normalized-Laplacian
        complements satisfy it.)
    t:
        Number of requested eigenpairs.
    max_subspace:
        Krylov basis cap per round (0 picks ``min(n, max(4 t, 32))``).
    tol:
        Residual tolerance relative to the spectral scale.

    Returns
    -------
    (values, vectors):
        Eigenvalues descending; vectors column-aligned and orthonormal.
    """
    n = operator.shape[0]
    if t < 1:
        raise ValidationError(f"t must be >= 1, got {t}")
    t = min(t, n)
    if max_subspace <= 0:
        max_subspace = min(n, max(4 * t, 32))
    rng = check_random_state(seed)

    values: List[float] = []
    vectors: List[np.ndarray] = []
    for _ in range(t):
        deflated = _DeflatedOperator(operator, values, vectors)
        value, vector = _single_top_eigenpair(deflated, max_subspace, rng)
        # Orthogonalize explicitly against previously found pairs (guards
        # against numerical leakage through the deflation).
        for found in vectors:
            vector -= found * float(found @ vector)
        norm = float(np.linalg.norm(vector))
        if norm < 1e-12:
            raise ConvergenceError(
                "deflated Lanczos produced a dependent eigenvector; "
                "increase max_subspace"
            )
        vector /= norm
        # Rayleigh quotient on the *original* operator.
        value = float(vector @ (np.asarray(operator @ vector).ravel()))
        values.append(value)
        vectors.append(vector)

    values_array, vectors_array = _rayleigh_ritz_refine(
        operator, np.column_stack(vectors), t
    )

    # Residual check.  Within tight eigenvalue clusters the eigen*vector*
    # residual is fundamentally limited by the cluster width even when the
    # eigenvalues themselves are accurate to ~1e-6, so the acceptance
    # threshold is deliberately looser than the value accuracy.
    scale = max(float(np.abs(values_array).max()), 1.0)
    for i in range(values_array.shape[0]):
        residual = np.asarray(operator @ vectors_array[:, i]).ravel() - (
            values_array[i] * vectors_array[:, i]
        )
        if np.linalg.norm(residual) > max(tol * scale, 1e-3 * scale):
            raise ConvergenceError(
                f"Lanczos residual too large for eigenpair {i}; "
                f"increase max_subspace"
            )
    return values_array, vectors_array


def _rayleigh_ritz_refine(operator, vectors: np.ndarray, t: int):
    """One Rayleigh–Ritz pass over ``span([V, A V])``.

    Deflated single-vector rounds leave clustered eigenpairs with residuals
    around 1e-4; expanding the subspace with one block power step and
    re-diagonalizing the projected operator sharpens them by several orders
    of magnitude at ``O(n t^2)`` cost.
    """
    applied = np.column_stack(
        [np.asarray(operator @ vectors[:, i]).ravel()
         for i in range(vectors.shape[1])]
    )
    applied_twice = np.column_stack(
        [np.asarray(operator @ applied[:, i]).ravel()
         for i in range(applied.shape[1])]
    )
    subspace, _ = np.linalg.qr(np.hstack([vectors, applied, applied_twice]))
    projected_block = np.column_stack(
        [np.asarray(operator @ subspace[:, i]).ravel()
         for i in range(subspace.shape[1])]
    )
    projected = subspace.T @ projected_block
    projected = 0.5 * (projected + projected.T)
    ritz_values, ritz_vectors = np.linalg.eigh(projected)
    order = np.argsort(-ritz_values)[:t]
    return ritz_values[order], subspace @ ritz_vectors[:, order]


def lanczos_bottom_eigenpairs(
    laplacian, t: int, max_subspace: int = 0, seed=0
) -> Tuple[np.ndarray, np.ndarray]:
    """Bottom-``t`` eigenpairs of a normalized Laplacian via ``2I - L``."""
    laplacian = ensure_csr(laplacian)
    n = laplacian.shape[0]
    complement = _SPECTRUM_UPPER_BOUND * sparse_identity(n) - laplacian
    values, vectors = lanczos_top_eigenpairs(
        complement, t, max_subspace=max_subspace, seed=seed
    )
    bottom = _SPECTRUM_UPPER_BOUND - values
    order = np.argsort(bottom)
    return np.clip(bottom[order], 0.0, _SPECTRUM_UPPER_BOUND), vectors[:, order]
