"""The chain paths of the spectra layer against the dense ones: the banded
spectral norm against the SVD, structured against forced-dense ``ep_analyze``,
call-count guards that pin which path each input takes, and the typed
errors of the spectra entry points."""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import nhlab.spectra
from nhlab.config import DEFAULT
from nhlab.eig import apply_metric_pairing, collinearity_residual, eig_full
from nhlab.model import (BANDED_NORM_MIN_N, LatticeSpec, _tridiagonal_norm, build_h0,
                         build_scaling, construct_gauge, construct_product, factor_psd,
                         spectral_norm)
from nhlab.spectra import bmap_correspondence, certify, ep_analyze, inner_product_audit

from conftest import random_hermitian, random_psd


def spy(module, name):
    """Count the calls of ``module.name`` while still running it."""
    return mock.patch.object(module, name, wraps=getattr(module, name))


def svd_norm(m):
    return np.linalg.svd(m, compute_uv=False)[0]


def skin_chain(n, zeroed=()):
    """The skin_sweep chain: geometric scaling with s^(n-1) = 1e4."""
    spec = LatticeSpec(n=n, scaling="geometric", s=1e4 ** (1.0 / (n - 1)),
                       zeroed_sites=zeroed)
    h0, a = build_h0(spec), build_scaling(spec)
    return h0, a, construct_product(h0, a)


# ---------------------------------------------------------------------------
# spectral_norm: banded route against the dense SVD

@st.composite
def tridiagonals(draw, n_min=BANDED_NORM_MIN_N, n_max=200):
    n = draw(st.integers(n_min, n_max))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-150.0, 150.0))

    def entries(k):
        # complex entries whose moduli spread over six decades
        return ((rng.normal(size=k) + 1j * rng.normal(size=k))
                * 10.0 ** rng.uniform(-3.0, 3.0, size=k))

    return scale * (np.diag(entries(n)) + np.diag(entries(n - 1), 1)
                    + np.diag(entries(n - 1), -1))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(m=tridiagonals())
def test_banded_norm_matches_svd(m):
    with spy(scipy.linalg, "eigvals_banded") as banded:
        norm = spectral_norm(m)
    assert banded.call_count == 1
    assert norm == pytest.approx(svd_norm(m), rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_banded_norm_small_n(n):
    rng = np.random.default_rng(n)
    m = (np.diag(rng.normal(size=n) + 1j * rng.normal(size=n))
         + np.diag(rng.normal(size=n - 1), 1) + np.diag(rng.normal(size=n - 1), -1))
    norm = _tridiagonal_norm(np.diagonal(m, -1), np.diagonal(m), np.diagonal(m, 1))
    assert norm == pytest.approx(svd_norm(m), rel=1e-14)


def test_banded_norm_of_zero_matrix():
    m = np.zeros((BANDED_NORM_MIN_N, BANDED_NORM_MIN_N), dtype=complex)
    assert spectral_norm(m) == 0.0
    assert _tridiagonal_norm(np.zeros(2), np.zeros(3), np.zeros(2)) == 0.0


def test_banded_norm_of_overflowing_chain():
    # entries reach ~1e204: unscaled, the squares in G^H G would overflow
    spec = LatticeSpec(n=801, scaling="geometric", s=1.7977)
    h = construct_product(build_h0(spec), build_scaling(spec))
    with spy(scipy.linalg, "eigvals_banded") as banded:
        norm = spectral_norm(h)
    assert banded.call_count == 1
    assert norm == pytest.approx(svd_norm(h), rel=1e-14)


def test_small_and_dense_inputs_keep_the_svd():
    _, _, small = skin_chain(BANDED_NORM_MIN_N - 1)
    dense = random_hermitian(np.random.default_rng(2), BANDED_NORM_MIN_N + 8)
    with spy(scipy.linalg, "eigvals_banded") as banded:
        norms = [spectral_norm(small), spectral_norm(dense)]
    assert banded.call_count == 0
    assert norms == [svd_norm(small), svd_norm(dense)]


# ---------------------------------------------------------------------------
# ep_analyze: chain path against the forced dense path

@st.composite
def odd_chains(draw):
    """An odd chain H0 A or A^-1 H0 A and a target at one of its eigenvalues."""
    n = 2 * draw(st.integers(1, 100)) + 1
    kind = draw(st.sampled_from(["geometric", "random", "harmonic"]))
    if kind == "geometric":
        s = (10.0 ** draw(st.floats(-4.0, 4.0))) ** (1.0 / (n - 1))
        spec = LatticeSpec(n=n, scaling="geometric", s=s)
    elif kind == "random":
        spec = LatticeSpec(n=n, scaling="random", seed=draw(st.integers(0, 2**32 - 1)))
    else:
        spec = LatticeSpec(n=n, onsite="harmonic", omega2=draw(st.floats(0.01, 1.0)),
                           scaling="geometric", s=(10.0 ** draw(st.floats(-2.0, 2.0)))
                           ** (1.0 / (n - 1)))
    h0, a = build_h0(spec), build_scaling(spec)
    h = construct_product(h0, a) if draw(st.booleans()) else construct_gauge(h0, a)
    if kind != "harmonic":
        return h, 0.0      # the zero mode of a chiral odd chain
    w = np.sort(scipy.linalg.eigvals(h).real)
    return h, float(w[draw(st.integers(0, n - 1))])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(case=odd_chains())
def test_chain_ep_analyze_matches_dense(case):
    h, target = case
    with spy(scipy.linalg, "schur") as schur:
        rep = ep_analyze(h, target)
    with mock.patch.object(nhlab.spectra, "chain_form", lambda _: None):
        ref = ep_analyze(h, target)
    assert ((rep.algebraic_multiplicity, rep.geometric_multiplicity, rep.ep_orders)
            == (ref.algebraic_multiplicity, ref.geometric_multiplicity, ref.ep_orders))
    if rep.ep_orders == [1]:
        assert schur.call_count == 0
        v, v_ref = rep.jordan_chains[0][0], ref.jordan_chains[0][0]
        assert collinearity_residual(v, v_ref) <= DEFAULT.zero_mode_rel
        assert rep.chain_residuals <= DEFAULT.nullity_rel * rep.matrix_norm


def test_rejected_chain_vector_falls_back_to_schur():
    _, _, h = skin_chain(41)
    expected = ep_analyze(h, 0.0)
    solve = scipy.linalg.eigh_tridiagonal

    def perturbed(d, e, **kwargs):
        out = solve(d, e, **kwargs)
        if kwargs.get("eigvals_only"):
            return out
        w, phi = out
        return w, phi + 1e-3 * np.roll(phi, 1, axis=0)

    with mock.patch.object(scipy.linalg, "eigh_tridiagonal", perturbed), \
            spy(scipy.linalg, "schur") as schur:
        rep = ep_analyze(h, 0.0)
    assert schur.call_count == 1
    assert (rep.algebraic_multiplicity, rep.geometric_multiplicity, rep.ep_orders) == (1, 1, [1])
    assert collinearity_residual(rep.jordan_chains[0][0],
                                 expected.jordan_chains[0][0]) <= DEFAULT.zero_mode_rel


# ---------------------------------------------------------------------------
# bmap_correspondence: the forward map for every B

@st.composite
def b_factors(draw):
    """(H0, B): a dense H0 with the PSD root of a dense A of rank deficiency
    0..n/3, or a chain with the diagonal root of its scaling and up to two
    zeroed sites; so B is invertible or singular, diagonal or dense."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 19))
    if draw(st.booleans()):
        a = random_psd(rng, n, draw(st.integers(0, n // 3)))
        return random_hermitian(rng, n), factor_psd(a)
    zeroed = draw(st.lists(st.integers(1, n), max_size=2, unique=True))
    if draw(st.booleans()):
        spec = LatticeSpec(n=n, scaling="random", seed=draw(st.integers(0, 2**32 - 1)),
                           zeroed_sites=zeroed)
    else:
        spec = LatticeSpec(n=n, onsite="harmonic", omega2=draw(st.floats(0.0, 1.0)),
                           scaling="geometric", s=draw(st.floats(0.5, 2.0)),
                           zeroed_sites=zeroed)
    return build_h0(spec), factor_psd(build_scaling(spec))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=b_factors())
def test_bmap_forward_map_escapes_only_at_zero_energy(case):
    h0, b = case
    rep = bmap_correspondence(h0, b)
    es = eig_full(construct_product(h0, b.conj().T @ b))
    audit = inner_product_audit(es, b)
    assert rep.spectra_agree
    assert [e.mapped for e in rep.entries] == [not x.ep_candidate for x in audit]
    for e in rep.entries:
        if not e.mapped:         # B psi = 0 forces H psi = 0: the paper's EP at zero
            assert abs(e.eigenvalue) <= DEFAULT.zero_mode_rel * es.matrix_norm
        elif abs(e.eigenvalue) > 1e-7 * es.matrix_norm:
            assert e.residual <= 1e-8


# ---------------------------------------------------------------------------
# call-count guards

class SvdShapes:
    """Spy on np.linalg.svd that records the shape of every input."""

    def __init__(self):
        self.shapes = []
        self._svd = np.linalg.svd

    def __call__(self, a, *args, **kwargs):
        self.shapes.append(np.shape(a))
        return self._svd(a, *args, **kwargs)


def test_skin_chain_takes_no_schur_and_no_square_svd():
    n = 101
    h0, a, h = skin_chain(n)
    b = factor_psd(a)
    es = eig_full(h)
    svd = SvdShapes()
    with mock.patch.object(np.linalg, "svd", svd), spy(scipy.linalg, "schur") as schur, \
            spy(scipy.linalg, "eigvals_banded") as banded, \
            spy(scipy.linalg, "eigh_tridiagonal") as tri:
        spectral_norm(h)
        assert banded.call_count == 1
        rep = ep_analyze(h, 0.0)
        # eigenvalues and vectors near the target from one call
        assert tri.call_count == 1 and tri.call_args.kwargs["select"] == "v"
        cert = certify(h, h0, es)
        tri.reset_mock()
        with spy(np.linalg, "eigh") as eigh, spy(np.linalg, "solve") as solve:
            bmap = bmap_correspondence(h0, b)
        # eig_full's solve of H = H0 A, then one eigenvalues-only call for H_e
        assert [c.kwargs.get("eigvals_only", False) for c in tri.call_args_list] == [False, True]
        assert eigh.call_count == solve.call_count == 0
    assert schur.call_count == 0
    assert (n, n) not in svd.shapes
    assert (rep.algebraic_multiplicity, rep.geometric_multiplicity, rep.ep_orders) == (1, 1, [1])
    assert cert.is_real and cert.pseudo_hermitian_residual is None   # odd H0 is singular
    assert bmap.invertible and bmap.spectra_agree
    assert max(e.residual for e in bmap.entries) <= 1e-8


def test_zeroed_site_inputs_take_the_dense_path():
    h0, a, h = skin_chain(9, zeroed=(4,))
    with spy(scipy.linalg, "schur") as schur, spy(np.linalg, "eigvals") as eigvals, \
            spy(scipy.linalg, "eigh_tridiagonal") as tri, \
            spy(np.linalg, "eigvalsh") as eigvalsh:
        rep = ep_analyze(h, 0.0)
        bmap = bmap_correspondence(h0, factor_psd(a))
    assert schur.call_count == 1 and eigvals.call_count == 0
    assert (rep.algebraic_multiplicity, rep.geometric_multiplicity, rep.ep_orders) == (3, 2, [2, 1])
    assert tri.call_count == 0 and eigvalsh.call_count == 1
    assert not bmap.invertible and bmap.spectra_agree


@pytest.mark.parametrize("rank_deficiency", [0, 2])
def test_dense_bmap_makes_one_hermitian_solve(rank_deficiency):
    # one eigenvalues-only solve of H_e, whether B is invertible or not
    rng = np.random.default_rng(5)
    n = 12
    h0 = random_hermitian(rng, n)
    b = factor_psd(random_psd(rng, n, rank_deficiency))
    with spy(np.linalg, "eigh") as eigh, spy(np.linalg, "eigvalsh") as eigvalsh:
        rep = bmap_correspondence(h0, b)
    assert rep.invertible == (rank_deficiency == 0)
    assert (eigh.call_count, eigvalsh.call_count) == (0, 1)
    assert rep.spectra_agree


# ---------------------------------------------------------------------------
# typed input errors

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ep_analyze_rejects_non_finite_input(bad):
    _, _, h = skin_chain(9)
    h[2, 3] = bad
    with pytest.raises(ValueError, match="matrix has non-finite entries"):
        ep_analyze(h, 0.0)


def test_ep_analyze_rejects_non_square_input():
    with pytest.raises(ValueError, match=r"matrix must be square, got \(3, 4\)"):
        ep_analyze(np.ones((3, 4)), 0.0)


def test_eig_full_rejects_empty_matrix():
    with pytest.raises(ValueError, match="matrix is empty"):
        eig_full(np.zeros((0, 0)))


def test_pairing_and_audit_reject_wrong_size_operators():
    _, a, h = skin_chain(9)
    es = eig_full(h)
    with pytest.raises(ValueError, match=r"A has shape \(8, 8\).*shape \(9, 9\)"):
        apply_metric_pairing(es, a[:8, :8])
    with pytest.raises(ValueError, match=r"B has shape \(10, 10\).*shape \(9, 9\)"):
        inner_product_audit(es, np.eye(10))
