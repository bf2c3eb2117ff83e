import numpy as np

from nhlab import spectra
from nhlab.config import DEFAULT
from nhlab.eig import SELF_ORTHOGONAL, eig_full, collinearity_residual
from nhlab.model import (LatticeSpec, build_h0, build_scaling, construct_product,
                         factor_psd, shift_spectrum, spectral_norm)
from nhlab.spectra import (bmap_correspondence, certify, conjugate_pairs,
                           ep_analyze, inner_product_audit)

from conftest import random_hermitian, random_psd


def chain_with_zeros(n, zeroed, s=2.0):
    spec = LatticeSpec(n=n, t=1.0, scaling="geometric", s=s, zeroed_sites=tuple(zeroed))
    return construct_product(build_h0(spec), build_scaling(spec))


# ---------------------------------------------------------------------------
# certify

def test_certify_psd_real_and_pseudo_hermitian():
    rng = np.random.default_rng(2)
    h0 = random_hermitian(rng, 8)
    h = construct_product(h0, random_psd(rng, 8))
    cert = certify(h, h0)
    assert cert.is_real
    assert cert.pseudo_hermitian_residual is not None
    assert cert.pseudo_hermitian_residual <= 1e-8
    assert all(mu == nu for mu, nu in cert.conjugate_pairs)


def test_certify_indefinite_conjugate_pair():
    h0 = np.array([[0, 1], [1, 0]], dtype=complex)
    cert = certify(construct_product(h0, np.diag([1.0, -1.0]).astype(complex)), h0)
    assert not cert.is_real
    assert cert.conjugate_pairs == [(0, 1)]
    assert max(cert.pair_residuals) < 1e-10


def test_certify_hermitian_identity_metric():
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 5)
    cert = certify(h, np.eye(5, dtype=complex))
    assert cert.is_real
    assert cert.pseudo_hermitian_residual <= 1e-12
    assert all(mu == nu for mu, nu in cert.conjugate_pairs)


def test_conjugate_pairs_cover_every_index():
    rng = np.random.default_rng(13)
    h0 = random_hermitian(rng, 11)
    a = random_hermitian(rng, 11)          # indefinite
    w = np.linalg.eigvals(construct_product(h0, a))
    pairs, resid = conjugate_pairs(w)
    seen = sorted({i for p in pairs for i in p})
    assert seen == list(range(11))
    assert max(resid) <= 1e-8 * np.abs(w).max()


# ---------------------------------------------------------------------------
# inner_product_audit

def test_audit_full_rank_positive(chain9):
    _, _, a, h, _ = chain9
    es = eig_full(h)
    entries = inner_product_audit(es, factor_psd(a))
    assert all(e.value > 0 for e in entries)
    assert not any(e.ep_candidate for e in entries)


def test_audit_flags_kernel_mode():
    spec = LatticeSpec(n=9, t=1.0, scaling="geometric", s=2.0, zeroed_sites=(4,))
    h = construct_product(build_h0(spec), build_scaling(spec))
    b = factor_psd(build_scaling(spec))
    entries = inner_product_audit(eig_full(h), b)
    flagged = [e for e in entries if e.ep_candidate]
    assert flagged, "the isolated-site mode must be flagged"
    es = eig_full(h)
    for e in flagged:
        assert abs(es.eigenvalues[e.mu]) <= 1e-7 * es.matrix_norm


def test_audit_hermitian_limit_unit_norm():
    rng = np.random.default_rng(6)
    h0 = random_hermitian(rng, 5)
    es = eig_full(h0)
    entries = inner_product_audit(es, np.eye(5, dtype=complex))
    assert all(abs(e.value - 1.0) < 1e-10 for e in entries)


# ---------------------------------------------------------------------------
# ep_analyze

def test_ep_a4_zero_full_structure(calibration):
    s = calibration["s"]
    h = chain_with_zeros(9, [4], s)
    rep = ep_analyze(h, 0.0)
    assert rep.algebraic_multiplicity == 3
    assert rep.geometric_multiplicity == 2
    assert rep.ep_orders == [2, 1]
    assert rep.chain_residuals <= 1e-8
    e4 = np.zeros(9)
    e4[3] = 1.0
    two = next(c for c, k in zip(rep.jordan_chains, rep.ep_orders) if k == 2)
    assert collinearity_residual(two[0], e4) <= 1e-8
    # the analytic chain vector: H J = t e4 with J = [-1, 0, s^-2, 0, ...]
    j_vec = np.zeros(9)
    j_vec[0], j_vec[2] = -1.0, s ** -2
    assert np.linalg.norm(h @ j_vec - e4) <= 1e-12
    # the single-element block is the surviving selective skin mode
    one = next(c for c, k in zip(rep.jordan_chains, rep.ep_orders) if k == 1)
    skin = np.zeros(9)
    skin[0::2] = (-1.0) ** np.arange(5) * float(s) ** -np.arange(0, 9, 2, dtype=float)
    assert collinearity_residual(one[0], skin) <= 1e-8


def test_ep_a1_zero_odd_chain_simple(calibration):
    rep = ep_analyze(chain_with_zeros(9, [1], calibration["s"]), 0.0)
    assert rep.algebraic_multiplicity == 1
    assert rep.geometric_multiplicity == 1
    assert rep.ep_orders == [1]
    e1 = np.zeros(9)
    e1[0] = 1.0
    assert collinearity_residual(rep.jordan_chains[0][0], e1) <= 1e-8


def test_ep_a1_zero_even_chain_ep2(calibration):
    rep = ep_analyze(chain_with_zeros(8, [1], calibration["s"]), 0.0)
    assert rep.algebraic_multiplicity == 2
    assert rep.geometric_multiplicity == 1
    assert rep.ep_orders == [2]
    e1 = np.zeros(8)
    e1[0] = 1.0
    assert collinearity_residual(rep.jordan_chains[0][0], e1) <= 1e-8


def test_ep_even_odd_dichotomy():
    # zeroing an even site leaves the threefold zero with an EP2;
    # zeroing an odd site leaves a simple zero
    for j in (2, 4, 6, 8):
        rep = ep_analyze(chain_with_zeros(9, [j]), 0.0)
        assert (rep.algebraic_multiplicity, rep.geometric_multiplicity) == (3, 2), j
        assert rep.ep_orders == [2, 1], j
    for j in (1, 3, 5, 7, 9):
        rep = ep_analyze(chain_with_zeros(9, [j]), 0.0)
        assert (rep.algebraic_multiplicity, rep.geometric_multiplicity) == (1, 1), j


def test_ep_shift_covariance(calibration):
    h = chain_with_zeros(9, [4], calibration["s"])
    base = ep_analyze(h, 0.0)
    shifted = ep_analyze(shift_spectrum(h, 1.0), 1.0)
    assert shifted.algebraic_multiplicity == base.algebraic_multiplicity
    assert shifted.geometric_multiplicity == base.geometric_multiplicity
    assert shifted.ep_orders == base.ep_orders


def test_ep_no_cluster_at_target():
    h = construct_product(build_h0(LatticeSpec(n=4)), np.eye(4, dtype=complex))
    rep = ep_analyze(h, 100.0)
    assert rep.algebraic_multiplicity == 0
    assert rep.geometric_multiplicity == 0
    assert rep.ep_orders == []


def _fig4_and_dense_cluster(s):
    """The three fig4 matrices and a dense H0 A whose zero is semisimple of order 2."""
    rng = np.random.default_rng(5)
    dense = construct_product(random_hermitian(rng, 12), random_psd(rng, 12, 2))
    return [chain_with_zeros(9, [4], s), chain_with_zeros(9, [1], s),
            chain_with_zeros(8, [1], s), dense]


def test_ep_geometric_multiplicity_matches_full_svd_nullity(calibration):
    geometric = []
    for h in _fig4_and_dense_cluster(calibration["s"]):
        n = h.shape[0]
        # the former rule, written out: nullity of H - target*I at nullity_rel*||H||
        ntol = DEFAULT.nullity_rel * np.linalg.svd(h, compute_uv=False)[0]
        sv = np.linalg.svd(h - 0.0 * np.eye(n), compute_uv=False)
        geometric.append(ep_analyze(h, 0.0).geometric_multiplicity)
        assert geometric[-1] == int(np.sum(sv <= ntol))
    assert geometric == [2, 1, 1, 2]


def test_ep_takes_no_full_size_svd(calibration, monkeypatch):
    shapes = []
    real_svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    for h in _fig4_and_dense_cluster(calibration["s"]):
        n = h.shape[0]
        # the norm is the tolerance scale, not a rank decision; take it out of the count
        monkeypatch.setattr(spectra, "spectral_norm", lambda m, v=spectral_norm(h): v)
        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        shapes.clear()
        rep = ep_analyze(h, 0.0)
        monkeypatch.undo()
        assert rep.algebraic_multiplicity < n
        assert (n, n) not in shapes, shapes


def test_ep_canonical_jordan_block():
    m = np.array([[0, 1], [0, 0]], dtype=complex)
    rep = ep_analyze(m, 0.0)
    assert rep.algebraic_multiplicity == 2
    assert rep.geometric_multiplicity == 1
    assert rep.ep_orders == [2]
    v1, v2 = rep.jordan_chains[0]
    assert np.linalg.norm(m @ v1) <= 1e-12
    assert np.linalg.norm(m @ v2 - v1) <= 1e-12 * np.linalg.norm(v1)


def test_ep_boundary_warning():
    # an eigenvalue parked just outside the cluster band trips the flag
    h = np.diag([0.0, 1.5e-7, 1.0]).astype(complex)
    rep = ep_analyze(h, 0.0)
    assert rep.boundary_warning


# ---------------------------------------------------------------------------
# bmap_correspondence

def test_bmap_graded_chain(chain9, calibration):
    _, h0, a, h, _ = chain9
    rep = bmap_correspondence(h0, factor_psd(a))
    assert rep.invertible
    assert rep.spectra_agree
    assert max(e.residual for e in rep.entries) <= 1e-8


def test_bmap_identity():
    h0 = build_h0(LatticeSpec(n=5))
    rep = bmap_correspondence(h0, np.eye(5, dtype=complex))
    assert rep.invertible
    assert rep.spectral_gap <= 1e-12


def test_bmap_degenerate_spectrum_maps_every_mode_forward():
    # inside the repeated w = 1 the eigenbasis of H is arbitrary, but B psi is an
    # H_e eigenvector at w whatever basis was chosen, so no cluster handling is needed
    rng = np.random.default_rng(0)
    q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    h0 = q @ np.diag([1.0, 1.0, 2.0, -1.0]) @ q.conj().T
    rep = bmap_correspondence((h0 + h0.conj().T) / 2, np.eye(4))
    assert rep.invertible and rep.spectra_agree
    assert sorted(round(e.eigenvalue.real, 8) for e in rep.entries) == [-1.0, 1.0, 1.0, 2.0]
    assert max(e.residual for e in rep.entries) <= 1e-12


def test_bmap_singular_maps_nonzero_modes():
    spec = LatticeSpec(n=9, t=1.0, scaling="geometric", s=2.0, zeroed_sites=(4,))
    b = factor_psd(build_scaling(spec))
    rep = bmap_correspondence(build_h0(spec), b)
    assert not rep.invertible
    assert rep.spectra_agree
    es = eig_full(construct_product(build_h0(spec), build_scaling(spec)))
    for e in rep.entries:
        if abs(es.eigenvalues[e.mu]) > 1e-7 * es.matrix_norm:
            assert e.mapped
            assert e.residual <= 1e-8


def test_bmap_random_dense(chain9):
    rng = np.random.default_rng(31)
    h0 = random_hermitian(rng, 7)
    b = rng.normal(size=(7, 7)) + 1j * rng.normal(size=(7, 7))
    rep = bmap_correspondence(h0, b)
    assert rep.invertible
    assert rep.spectra_agree
    assert max(e.residual for e in rep.entries) <= 1e-8


# ---------------------------------------------------------------------------
# property-style randomized checks (seeded)

def test_psd_exclusion_and_location_of_eps():
    rng = np.random.default_rng(77)
    for _ in range(40):
        n = int(rng.integers(2, 16))
        h = construct_product(random_hermitian(rng, n), random_psd(rng, n))
        es = eig_full(h)
        assert SELF_ORTHOGONAL not in es.norm_status
    for _ in range(40):
        n = int(rng.integers(3, 16))
        a = random_psd(rng, n, rank_deficiency=int(rng.integers(1, n // 2 + 1)))
        h = construct_product(random_hermitian(rng, n), a)
        es = eig_full(h)
        for mu, status in enumerate(es.norm_status):
            if status == SELF_ORTHOGONAL:
                assert abs(es.eigenvalues[mu]) <= 1e-7 * es.matrix_norm
                v = es.right(mu)
                assert np.linalg.norm(a @ v) <= 1e-8 * np.linalg.norm(v)
