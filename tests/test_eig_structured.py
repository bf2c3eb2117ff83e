"""The structured chain path of ``eig_full`` and ``ep_analyze`` against the
dense solve: a property suite over real chains, call counts that pin which
path each input takes, and the diagonal shortcuts of the metric pairing and
the inner-product audit against their dense products."""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import nhlab.eig
from nhlab.config import DEFAULT
from nhlab.eig import (BIORTHONORMAL, EigensolveError, apply_metric_pairing,
                       collinearity_residual, eig_full)
from nhlab.model import (LatticeSpec, build_h0, build_scaling, construct_gauge,
                         construct_product, factor_psd)
from nhlab.spectra import ep_analyze, inner_product_audit

from conftest import random_hermitian, random_psd


def spy(module, name):
    """Count the calls of ``module.name`` while still running it."""
    return mock.patch.object(module, name, wraps=getattr(module, name))


@st.composite
def real_chains(draw):
    """A real chain the paper builds: H0, H0 A or A^-1 H0 A with A > 0."""
    n = draw(st.integers(2, 80))
    t = draw(st.sampled_from([1.0, -1.0])) * draw(st.floats(0.2, 3.0))
    onsite = draw(st.sampled_from(["zero", "harmonic"]))
    kwargs = {"omega2": draw(st.floats(0.0, 2.0))} if onsite == "harmonic" else {}
    scaling = draw(st.sampled_from(["geometric", "random", "explicit"]))
    if scaling == "geometric":
        # the total skin ratio s^(n-1) stays within 1e4 either way
        kwargs["s"] = (10.0 ** draw(st.floats(-4.0, 4.0))) ** (1.0 / (n - 1))
    elif scaling == "random":
        kwargs["seed"] = draw(st.integers(0, 2**32 - 1))
    else:
        kwargs["values"] = tuple(draw(st.lists(st.floats(0.1, 10.0), min_size=n,
                                               max_size=n)))
    spec = LatticeSpec(n=n, t=t, onsite=onsite, scaling=scaling, **kwargs)
    h0, a = build_h0(spec), build_scaling(spec)
    form = draw(st.sampled_from(["H0", "H0 A", "A^-1 H0 A"]))
    if form == "H0":
        return h0
    return construct_product(h0, a) if form == "H0 A" else construct_gauge(h0, a)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(h=real_chains())
def test_structured_chain_matches_dense_solve(h):
    n = h.shape[0]
    with spy(scipy.linalg, "eig") as dense, spy(scipy.linalg, "eigh_tridiagonal") as tri:
        es = eig_full(h)
    assert dense.call_count == 0 and tri.call_count == 1
    norm = es.matrix_norm
    reference = np.sort_complex(scipy.linalg.eigvals(h))
    assert np.abs(es.eigenvalues - reference).max() <= DEFAULT.spectra_match_rel * norm
    assert es.residuals.max() <= DEFAULT.residual_rel * norm
    gram = es.left_vectors.T @ es.right_vectors
    assert np.abs(gram - np.eye(n)).max() <= DEFAULT.biorth
    assert es.norm_status == (BIORTHONORMAL,) * n
    assert np.abs(es.eigenvalues.imag).max() == 0


def lossy_chain():
    spec = LatticeSpec(n=9, scaling="geometric", s=1.5)
    return construct_product(build_h0(spec), build_scaling(spec)) - 0.02j * np.eye(9)


def indefinite_chain():
    spec = LatticeSpec(n=9, scaling="explicit", values=(1, 2, -1, 0.5, 1, -2, 1, 1, 3))
    return construct_product(build_h0(spec), build_scaling(spec, allow_indefinite=True))


def zeroed_site_chain():
    spec = LatticeSpec(n=9, scaling="geometric", s=1.5, zeroed_sites=(4,))
    return construct_product(build_h0(spec), build_scaling(spec))


def dense_product():
    rng = np.random.default_rng(4)
    return construct_product(random_hermitian(rng, 9), random_psd(rng, 9))


@pytest.mark.parametrize("make", [zeroed_site_chain, lossy_chain, indefinite_chain,
                                  dense_product, lambda: np.array([[2.5]])],
                         ids=["zeroed_site", "lossy", "indefinite", "dense", "n1"])
def test_other_inputs_take_one_dense_solve(make):
    h = make()
    with spy(scipy.linalg, "eig") as dense, spy(scipy.linalg, "eigh_tridiagonal") as tri:
        es = eig_full(h)
    assert dense.call_count == 1 and tri.call_count == 0
    assert es.residuals.max() <= DEFAULT.residual_rel * es.matrix_norm


def test_failed_chain_certificate_returns_dense_result(monkeypatch):
    spec = LatticeSpec(n=21, scaling="geometric", s=1.3)
    h = construct_product(build_h0(spec), build_scaling(spec))
    with monkeypatch.context() as m:
        m.setattr(nhlab.eig, "chain_form", lambda _: None)
        expected = eig_full(h)
    solve = scipy.linalg.eigh_tridiagonal

    def perturbed(d, e, **kwargs):
        w, phi = solve(d, e, **kwargs)
        return w, phi + 1e-3 * np.roll(phi, 1, axis=0)

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", perturbed)
    with spy(scipy.linalg, "eig") as dense:
        es = eig_full(h)
    assert dense.call_count == 1
    for field in ("eigenvalues", "right_vectors", "left_vectors", "overlaps", "residuals"):
        np.testing.assert_array_equal(getattr(es, field), getattr(expected, field))
    assert es.norm_status == expected.norm_status


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_overflowing_couplings_raise_eigensolve_error():
    # entries reach ~1e204: a product m[i, i+1] * m[i+1, i] would overflow
    spec = LatticeSpec(n=801, scaling="geometric", s=1.7977)
    h = construct_product(build_h0(spec), build_scaling(spec))
    form = nhlab.eig.chain_form(h)
    assert np.all(np.isfinite(form.off)) and np.all(np.isfinite(form.d))
    with spy(scipy.linalg, "eig") as dense:
        with pytest.raises(EigensolveError, match="eigenpair residual inf exceeds"):
            eig_full(h)
    assert dense.call_count == 1


@pytest.mark.parametrize("n", [101, 201, 401])
def test_ep_analyze_counts_chain_cluster_without_dense_eigvals(n):
    spec = LatticeSpec(n=n, scaling="geometric", s=1e4 ** (1.0 / (n - 1)))
    h = construct_product(build_h0(spec), build_scaling(spec))
    with spy(np.linalg, "eigvals") as dense:
        rep = ep_analyze(h, 0.0)
    assert dense.call_count == 0
    assert (rep.algebraic_multiplicity, rep.geometric_multiplicity) == (1, 1)
    assert rep.ep_orders == [1]
    assert not rep.boundary_warning
    assert rep.chain_residuals <= DEFAULT.zero_mode_rel


# ---------------------------------------------------------------------------
# diagonal A and B: elementwise products against the dense per-mode products

@pytest.mark.parametrize("coupling", [0.0, 0.5], ids=["diagonal", "non_diagonal"])
def test_metric_pairing_and_audit_match_dense_products(coupling):
    spec = LatticeSpec(n=15, scaling="random", seed=9, zeroed_sites=(3,))
    h0, a = build_h0(spec), build_scaling(spec)
    a[5, 6] = a[6, 5] = coupling * np.sqrt(a[5, 5] * a[6, 6])
    b = factor_psd(a)
    es = eig_full(construct_product(h0, a))
    pairing = apply_metric_pairing(es, a)
    audit = inner_product_audit(es, b)
    for mu, entry in enumerate(pairing.entries):
        image = a @ es.right(mu)
        assert entry.kernel == bool(np.linalg.norm(image) <= DEFAULT.kernel_rel
                                    * np.linalg.norm(es.right(mu)))
        if entry.kernel:
            continue
        resids = [collinearity_residual(image.conj(), es.left(nu)) for nu in range(es.dim)]
        assert entry.nu == int(np.argmin(resids))
        assert entry.collinearity == pytest.approx(min(resids), rel=1e-12, abs=1e-15)
    for mu, entry in enumerate(audit):
        psi = es.right(mu) / np.linalg.norm(es.right(mu))
        assert entry.value == pytest.approx(np.vdot(a @ psi, psi).real, rel=1e-14)
        assert entry.b_norm_sq == pytest.approx(np.linalg.norm(b @ psi) ** 2, rel=1e-14)
    # the zeroed site puts a kernel mode on both branches
    assert sum(e.kernel for e in pairing.entries) == 1
    assert sum(e.ep_candidate for e in audit) == 1
