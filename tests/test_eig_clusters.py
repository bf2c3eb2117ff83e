"""The vectorized cluster rule of eig_full against the breadth-first search it
replaced: the same sorted components, in the same order."""

import numpy as np
import pytest

from nhlab import eig
from nhlab.config import DEFAULT
from nhlab.eig import eig_full
from nhlab.model import construct_product

from conftest import random_hermitian, random_psd


def bfs_clusters(values, tol_abs):
    """Reference: connected components of |w_i - w_j| <= tol_abs by a
    breadth-first search from each unseen index in turn."""
    n = len(values)
    seen = np.zeros(n, dtype=bool)
    out = []
    for i in range(n):
        if seen[i]:
            continue
        stack, comp = [i], []
        seen[i] = True
        while stack:
            k = stack.pop()
            comp.append(k)
            close = np.flatnonzero(~seen & (np.abs(values - values[k]) <= tol_abs))
            seen[close] = True
            stack.extend(close.tolist())
        out.append(sorted(comp))
    return out


def planted_spectrum(rng, n, tol):
    """Random complex values with planted near-degenerate groups and chains
    whose links are spaced within a few percent of the tolerance."""
    w = rng.normal(size=n) + 1j * rng.normal(size=n) * rng.integers(0, 2)
    k = 0
    while k < n:
        size = min(int(rng.integers(1, 6)), n - k)
        if rng.random() < 0.5:      # a group within tol of its centre
            w[k:k + size] = w[k] + tol * 0.4 * (rng.normal(size=size) + 1j * rng.normal(size=size))
        else:                       # a chain whose links straddle tol
            steps = tol * rng.uniform(0.97, 1.03, size) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            w[k:k + size] = w[k] + np.cumsum(steps) - steps[0]
        k += size
    return w[rng.permutation(n)]


@pytest.mark.parametrize("n", [0, 1, 2, 7, 20, 60])
def test_cluster_rule_matches_breadth_first_search(n):
    rng = np.random.default_rng(n)
    for _ in range(300):
        tol = 10.0 ** rng.uniform(-9, -1)
        w = planted_spectrum(rng, n, tol)
        assert eig._clusters(w, tol) == bfs_clusters(w, tol)


def test_cluster_rule_edge_cases():
    chain = np.arange(50) * 1.0     # one component through 49 links
    assert eig._clusters(chain[::-1].copy(), 1.0) == [list(range(50))]
    assert eig._clusters(chain, 0.999) == [[i] for i in range(50)]
    # a NaN joins nothing; a negative tolerance leaves singletons
    w = np.array([1.0, np.nan, 1.0])
    assert eig._clusters(w, 0.1) == bfs_clusters(w, 0.1) == [[0, 2], [1]]
    assert eig._clusters(np.array([1.0, 1.0]), -1.0) == [[0], [1]]


def semisimple_zero_instance(rng, n, nullity):
    """H0 A with invertible PSD A and H0 of the given nullity: a semisimple
    zero multiplet (no EP)."""
    h0 = random_hermitian(rng, n)
    lam, u = np.linalg.eigh(h0)
    lam[np.argsort(np.abs(lam))[:nullity]] = 0.0
    h0 = (u * lam) @ u.conj().T
    return construct_product((h0 + h0.conj().T) / 2, random_psd(rng, n))


def ep_instance(rng, n, defect):
    """H0 A with PSD A of the given rank deficiency: an EP at w = 0."""
    a = random_psd(rng, n, rank_deficiency=defect)
    return construct_product(random_hermitian(rng, n), a)


@pytest.mark.parametrize("build, n, nullity", [
    (semisimple_zero_instance, 8, 2), (semisimple_zero_instance, 15, 3),
    (ep_instance, 9, 2), (ep_instance, 16, 3), (ep_instance, 20, 4),
])
def test_eig_full_zero_clusters_unchanged(monkeypatch, build, n, nullity):
    rng = np.random.default_rng(100 * n + nullity)
    for _ in range(3):
        h = build(rng, n, nullity)
        es = eig_full(h)
        # the zero eigenvalue forms one cluster with more than one member
        comps = eig._clusters(es.eigenvalues, DEFAULT.cluster_rel * es.matrix_norm)
        zero = np.argmin(np.abs(es.eigenvalues))
        assert len(next(c for c in comps if zero in c)) > 1
        with monkeypatch.context() as patch:
            patch.setattr(eig, "_clusters", bfs_clusters)
            ref = eig_full(h)
        for name in ("eigenvalues", "right_vectors", "left_vectors", "overlaps", "residuals"):
            assert np.array_equal(getattr(es, name), getattr(ref, name)), name
        assert es.norm_status == ref.norm_status
