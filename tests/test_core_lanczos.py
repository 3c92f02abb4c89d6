"""Tests for the from-scratch Lanczos eigensolver."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.laplacian import normalized_laplacian
from repro.core.lanczos import (
    lanczos_bottom_eigenpairs,
    lanczos_top_eigenpairs,
)
from repro.solvers import bottom_eigenpairs
from repro.utils.errors import ValidationError


def random_symmetric(n, seed=0):
    """Random symmetric PSD matrix (the solver's documented contract)."""
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((n, n))
    return matrix @ matrix.T / n


def sbm_laplacian(n=120, seed=1):
    from repro.datasets.generator import planted_partition_graph

    labels = np.repeat([0, 1, 2], n // 3)
    adjacency = planted_partition_graph(labels, 0.8, 10.0, rng=seed)
    return normalized_laplacian(adjacency)


class TestTopEigenpairs:
    def test_matches_dense_eigh(self):
        matrix = random_symmetric(60, seed=2)
        values, vectors = lanczos_top_eigenpairs(matrix, 5, seed=0)
        exact = np.sort(np.linalg.eigvalsh(matrix))[::-1][:5]
        np.testing.assert_allclose(values, exact, atol=1e-7)

    def test_eigenvector_residuals(self):
        matrix = random_symmetric(50, seed=3)
        values, vectors = lanczos_top_eigenpairs(matrix, 4, seed=0)
        scale = max(abs(values).max(), 1.0)
        for i in range(4):
            residual = matrix @ vectors[:, i] - values[i] * vectors[:, i]
            assert np.linalg.norm(residual) < 1e-5 * scale

    def test_basis_orthonormal(self):
        matrix = random_symmetric(40, seed=4)
        _, vectors = lanczos_top_eigenpairs(matrix, 6, seed=0)
        gram = vectors.T @ vectors
        np.testing.assert_allclose(gram, np.eye(6), atol=1e-8)

    def test_sparse_operator(self):
        matrix = sp.random(200, 200, density=0.05, random_state=5)
        matrix = (matrix + matrix.T) * 0.5
        values, _ = lanczos_top_eigenpairs(matrix, 3, max_subspace=60, seed=0)
        exact = np.sort(np.linalg.eigvalsh(matrix.toarray()))[::-1][:3]
        np.testing.assert_allclose(values, exact, atol=1e-6)

    def test_t_validation(self):
        with pytest.raises(ValidationError):
            lanczos_top_eigenpairs(np.eye(4), 0)

    def test_t_clamped(self):
        values, _ = lanczos_top_eigenpairs(np.eye(4), 10, seed=0)
        assert values.shape[0] == 4


class TestBottomEigenpairs:
    def test_agrees_with_production_solver(self):
        laplacian = sbm_laplacian()
        ours, _ = lanczos_bottom_eigenpairs(laplacian, 4, seed=0)
        production, _ = bottom_eigenpairs(laplacian, 4, method="dense")
        np.testing.assert_allclose(ours, production, atol=1e-6)

    def test_values_sorted_and_bounded(self):
        laplacian = sbm_laplacian(seed=7)
        values, _ = lanczos_bottom_eigenpairs(laplacian, 5, seed=0)
        assert np.all(np.diff(values) >= -1e-12)
        assert values.min() >= 0.0
        assert values.max() <= 2.0

    def test_detects_components(self):
        """Two disconnected cliques -> two (near-)zero bottom eigenvalues."""
        block = np.ones((10, 10)) - np.eye(10)
        adjacency = sp.block_diag([block, block]).tocsr()
        laplacian = normalized_laplacian(adjacency)
        values, _ = lanczos_bottom_eigenpairs(laplacian, 3, seed=0)
        assert values[1] == pytest.approx(0.0, abs=1e-8)
        assert values[2] > 1e-6
