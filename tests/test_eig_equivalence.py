"""Equivalence and structure checks for the one-solve eigensystem and the
batched pairing loops: property suites against independent residuals,
brute-force scans, and call counts that keep per-mode solves from returning."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nhlab.config import DEFAULT
from nhlab.eig import (BIORTHONORMAL, SELF_ORTHOGONAL, apply_metric_pairing,
                       collinearity_residual, eig_full)
from nhlab.model import construct_product

from conftest import random_hermitian, random_psd


def column_residuals(m, v, w):
    return np.array([np.linalg.norm(m @ v[:, k] - w[k] * v[:, k]) / np.linalg.norm(v[:, k])
                     for k in range(len(w))])


def random_product(seed, n, rank_deficiency):
    rng = np.random.default_rng(seed)
    a = random_psd(rng, n, rank_deficiency)
    return construct_product(random_hermitian(rng, n), a), a


# ---------------------------------------------------------------------------
# eig_full on random H0 A

@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 14), deficiency=st.integers(0, 7), seed=st.integers(0, 2**32 - 1))
def test_eig_full_certificates_on_random_products(n, deficiency, seed):
    h, a = random_product(seed, n, min(deficiency, n - 1))
    es = eig_full(h)
    bound = DEFAULT.residual_rel * es.matrix_norm
    w = es.eigenvalues
    assert column_residuals(h, es.right_vectors, w).max() <= bound
    assert column_residuals(h.T, es.left_vectors, w).max() <= bound
    if es.all_biorthonormal:
        gram = es.left_vectors.T @ es.right_vectors
        assert np.abs(gram - np.eye(n)).max() <= DEFAULT.biorth
    for mu, status in enumerate(es.norm_status):
        if status == SELF_ORTHOGONAL:
            # an EP can only sit on the kernel of A
            assert abs(w[mu]) <= DEFAULT.cluster_rel * es.matrix_norm
            v = es.right(mu)
            assert np.linalg.norm(a @ v) <= 1e-8 * np.linalg.norm(v)


def test_eig_full_biorthogonalizes_semisimple_zero_multiplet():
    # rank-2 deficient A: a semisimple double zero whose LAPACK overlap block
    # is triangular, not diagonal
    h, a = random_product(0, 4, 2)
    es = eig_full(h)
    zero = np.flatnonzero(np.abs(es.eigenvalues) <= DEFAULT.cluster_rel * es.matrix_norm)
    assert len(zero) == 2
    assert es.all_biorthonormal
    gram = es.left_vectors.T @ es.right_vectors
    assert np.abs(gram - np.eye(4)).max() <= DEFAULT.biorth
    assert es.residuals.max() <= DEFAULT.residual_rel * es.matrix_norm


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-3.0, 3.0))
def test_eig_full_flags_similar_jordan_block(seed, shift):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    jordan = np.array([[shift, 1.0], [0.0, shift]], dtype=complex)
    es = eig_full(q @ jordan @ q.conj().T)
    assert es.norm_status == (SELF_ORTHOGONAL, SELF_ORTHOGONAL)
    assert np.abs(es.overlaps).max() < DEFAULT.self_orth
    assert np.abs(es.eigenvalues - shift).max() <= DEFAULT.cluster_rel * es.matrix_norm


def test_eig_full_keeps_index_pairing_in_cluster_with_ep():
    # a Jordan block at 0 lumped with the distinct eigenvalues 3e-6, 6e-6 by
    # the cluster tolerance (1e-5 at ||M|| = 100); each left vector must stay
    # with the right vector of its own eigenvalue
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
    m = np.zeros((5, 5), dtype=complex)
    m[0, 1] = 1.0
    m[2, 2], m[3, 3], m[4, 4] = 3e-6, 6e-6, 100.0
    es = eig_full(q @ m @ q.conj().T)
    assert es.norm_status[:2] == (SELF_ORTHOGONAL, SELF_ORTHOGONAL)
    assert es.norm_status[2:] == (BIORTHONORMAL,) * 3
    w = es.eigenvalues
    assert np.abs(w[:4]).max() <= DEFAULT.cluster_rel * es.matrix_norm    # one cluster
    bound = DEFAULT.residual_rel * es.matrix_norm
    assert column_residuals(q.conj() @ m.T @ q.T, es.left_vectors, w).max() <= bound
    gram = es.left_vectors[:, 2:].T @ es.right_vectors[:, 2:]
    assert np.abs(gram - np.eye(3)).max() <= DEFAULT.biorth


def test_eig_full_phase_convention():
    h, _ = random_product(5, 9, 0)
    es = eig_full(h)
    top = es.right_vectors[np.argmax(np.abs(es.right_vectors), axis=0), np.arange(9)]
    assert np.all(top.real > 0)
    assert np.abs(top.imag).max() <= 1e-15
    # the rotation leaves the biorthogonal normalization untouched
    assert np.abs(np.sum(es.left_vectors * es.right_vectors, axis=0) - 1).max() <= 1e-12
    assert set(es.norm_status) == {BIORTHONORMAL}


def test_eig_full_makes_one_dense_eigensolve(monkeypatch):
    calls = []

    def counting(fn, name):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for mod, name in ((np.linalg, "eig"), (np.linalg, "eigvals"),
                      (scipy.linalg, "eig"), (scipy.linalg, "eigvals")):
        monkeypatch.setattr(mod, name, counting(getattr(mod, name), f"{mod.__name__}.{name}"))
    h, _ = random_product(11, 12, 2)
    eig_full(h)
    assert calls == ["scipy.linalg.eig"]


# ---------------------------------------------------------------------------
# apply_metric_pairing against a brute-force scan over every left vector

def brute_force_pairing(es, a):
    out = []
    for mu in range(es.dim):
        image = a @ es.right(mu)
        if np.linalg.norm(image) <= DEFAULT.kernel_rel * np.linalg.norm(es.right(mu)):
            out.append((None, 0.0))
            continue
        resids = [collinearity_residual(image.conj(), es.left(nu)) for nu in range(es.dim)]
        nu = int(np.argmin(resids))
        out.append((nu, resids[nu]))
    return out


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=st.integers(2, 9), kind=st.sampled_from(["psd", "deficient", "indefinite"]),
       seed=st.integers(0, 2**32 - 1))
def test_metric_pairing_matches_brute_force(n, kind, seed):
    rng = np.random.default_rng(seed)
    h0 = random_hermitian(rng, n)
    if kind == "indefinite":
        a = random_hermitian(rng, n)
    else:
        a = random_psd(rng, n, n // 2 if kind == "deficient" else 0)
    es = eig_full(construct_product(h0, a))
    rep = apply_metric_pairing(es, a)
    for entry, (nu, coll) in zip(rep.entries, brute_force_pairing(es, a)):
        assert entry.nu == nu
        assert entry.kernel == (nu is None)
        assert entry.collinearity == pytest.approx(coll, rel=1e-9, abs=1e-13)

