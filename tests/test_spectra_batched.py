"""Batched spectra paths: conjugate pairing against the reference greedy, the
single B-map solve, the batched inner-product audit, and the typed refusal
of an ill-conditioned Jordan analysis."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhlab.config import DEFAULT
from nhlab.eig import eig_full
from nhlab.model import (LatticeSpec, build_h0, build_scaling, construct_product,
                         factor_psd)
from nhlab.spectra import (BMapReport, CertificateError, IllConditionedError,
                           bmap_correspondence, conjugate_pairs, ep_analyze,
                           inner_product_audit)

from conftest import random_hermitian, random_psd


# ---------------------------------------------------------------------------
# conjugate_pairs

def reference_conjugate_pairs(eigenvalues):
    """The O(n^2)-tuple greedy that conjugate_pairs must reproduce exactly."""
    n = len(eigenvalues)
    cand = [(abs(eigenvalues[i] - np.conj(eigenvalues[j])), i, j)
            for i in range(n) for j in range(i, n)]
    cand.sort(key=lambda c: (c[0], c[1], c[2]))
    used = np.zeros(n, dtype=bool)
    pairs, resid = [], []
    for cost, i, j in cand:
        if used[i] or (i != j and used[j]):
            continue
        used[i] = used[j] = True
        pairs.append((i, j))
        resid.append(float(cost))
        if used.all():
            break
    pairs_sorted = sorted(zip(pairs, resid))
    return [p for p, _ in pairs_sorted], [r for _, r in pairs_sorted]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(n_complex=st.integers(0, 6), n_real=st.integers(0, 6), grid=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_conjugate_pairs_matches_reference_greedy(n_complex, n_real, grid, seed):
    rng = np.random.default_rng(seed)
    if grid:
        # values on a coarse lattice: exact ties in cost everywhere
        z = rng.integers(-2, 3, n_complex) + 1j * rng.integers(1, 3, n_complex)
        r = rng.integers(-2, 3, n_real).astype(complex)
    else:
        z = rng.normal(size=n_complex) + 1j * rng.normal(size=n_complex)
        r = rng.normal(size=n_real) + 1j * 1e-13 * rng.normal(size=n_real)
    w = np.concatenate([z, np.conj(z) + 1e-12 * rng.normal(size=n_complex), r])
    w = w[rng.permutation(len(w))]
    if len(w) == 0:
        return
    assert conjugate_pairs(w) == reference_conjugate_pairs(w)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values=st.lists(st.integers(-3, 3), min_size=1, max_size=12))
def test_real_spectrum_self_pairs_as_the_greedy_does(values):
    # integer values repeat exactly: every cost-0 tie must still self-pair
    w = np.array(values, dtype=complex)
    n = len(w)
    assert conjugate_pairs(w) == reference_conjugate_pairs(w) == (
        [(i, i) for i in range(n)], [0.0] * n)
    # one complex pair among the same values takes the greedy
    w = np.concatenate([w, [0.5 + 1j, 0.5 - 1j]])
    pairs, resid = conjugate_pairs(w)
    assert (pairs, resid) == reference_conjugate_pairs(w)
    assert (n, n + 1) in pairs


def test_conjugate_pairs_matches_reference_on_product_spectrum():
    rng = np.random.default_rng(13)
    w = np.linalg.eigvals(construct_product(random_hermitian(rng, 30), random_hermitian(rng, 30)))
    assert conjugate_pairs(w) == reference_conjugate_pairs(w)


# ---------------------------------------------------------------------------
# bmap_correspondence

def test_bmap_makes_no_solve_for_invertible_b(monkeypatch):
    # the forward map B psi needs no inverse of B
    calls = []
    solve = np.linalg.solve

    def counting(*args, **kwargs):
        calls.append(np.shape(args[1]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting)
    rng = np.random.default_rng(3)
    n = 12
    b = factor_psd(random_psd(rng, n))
    rep = bmap_correspondence(random_hermitian(rng, n), b)
    assert rep.invertible
    assert calls == []
    assert all(e.mapped for e in rep.entries)
    assert max(e.residual for e in rep.entries) <= 1e-8


def test_bmap_report_gap_tol_is_a_field():
    spec = LatticeSpec(n=9, t=1.0, scaling="geometric", s=2.0)
    rep = bmap_correspondence(build_h0(spec), factor_psd(build_scaling(spec)))
    es = eig_full(construct_product(build_h0(spec), build_scaling(spec)))
    assert rep.gap_tol == DEFAULT.spectra_match_rel * es.matrix_norm
    tight = BMapReport(invertible=True, spectral_gap=1e-3, entries=[], gap_tol=1e-4)
    assert not tight.spectra_agree
    assert "gap_tol" not in repr(tight)


# ---------------------------------------------------------------------------
# inner_product_audit

def test_audit_batch_matches_per_mode_identity():
    rng = np.random.default_rng(8)
    n = 10
    a = random_psd(rng, n, 2)
    b = factor_psd(a)
    es = eig_full(construct_product(random_hermitian(rng, n), a))
    entries = inner_product_audit(es, b)
    assert [e.mu for e in entries] == list(range(n))
    for e in entries:
        psi = es.right(e.mu) / np.linalg.norm(es.right(e.mu))
        image = b @ psi
        bnorm = float(np.vdot(image, image).real)
        assert e.value == pytest.approx(float(np.real(np.vdot(a @ psi, psi))), abs=1e-12)
        assert e.b_norm_sq == pytest.approx(bnorm, abs=1e-12)
        assert e.ep_candidate == bool(np.sqrt(bnorm) <= DEFAULT.kernel_rel)


def test_audit_identity_bound_is_metric_rel():
    rng = np.random.default_rng(8)
    n = 10
    a = random_psd(rng, n, 2)
    b = factor_psd(a)
    es = eig_full(construct_product(random_hermitian(rng, n), a))
    inner_product_audit(es, b)
    with pytest.raises(CertificateError, match="inner-product identity violated"):
        inner_product_audit(es, b, DEFAULT.with_overrides({"metric_rel": 1e-20}))


# ---------------------------------------------------------------------------
# ep_analyze on the paper's chain beyond desk scale

def paper_chain(n):
    spec = LatticeSpec(n=n, t=1.0, scaling="geometric", s=1.7977)
    return construct_product(build_h0(spec), build_scaling(spec))


@pytest.mark.parametrize("n", [9, 21])
def test_ep_paper_chain_simple_zero(n):
    assert ep_analyze(paper_chain(n), 0.0).ep_orders == [1]


@pytest.mark.parametrize("n", [41, 61])
def test_ep_paper_chain_refuses_with_typed_error(n):
    h = paper_chain(n)
    with pytest.raises(IllConditionedError) as info:
        ep_analyze(h, 0.0)
    err = info.value
    assert err.n == n
    assert err.matrix_norm == pytest.approx(np.linalg.norm(h, 2))
    assert err.floor == pytest.approx(DEFAULT.nullity_rel * err.matrix_norm)
    assert isinstance(err, RuntimeError)
