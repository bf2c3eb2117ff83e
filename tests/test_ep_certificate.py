"""ep_analyze on dense input: the empty-cluster certificate against an SVD oracle and
an eigvals count, typed errors at the cluster edge, and the count of dense solves."""

from unittest import mock

import numpy as np
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from nhlab import spectra
from nhlab.config import DEFAULT
from nhlab.model import construct_product, spectral_norm
from nhlab.spectra import EPReport, IllConditionedError, ep_analyze

from conftest import random_hermitian, random_psd


def spy(module, name):
    """Count the calls of ``module.name`` while still running it."""
    return mock.patch.object(module, name, wraps=getattr(module, name))


def unitary(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def near_edge_draws(count):
    """Q T Q^dag with one eigenvalue at ctol (1 + 1e-9 N(0,1)) from 0, T upper
    triangular with off-diagonal scale 1, 1e3 or 1e6."""
    rng = np.random.default_rng(0)
    for trial in range(count):
        n = int(rng.integers(3, 12))
        t = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)), 1)
        t *= (1.0, 1e3, 1e6)[trial % 3]
        t[np.diag_indices(n)] = rng.normal(size=n) + 1j * rng.normal(size=n)
        j = int(rng.integers(n))
        t[j, j] = 0.0
        ctol = DEFAULT.cluster_rel * spectral_norm(t)
        t[j, j] = ctol * np.exp(2j * np.pi * rng.uniform()) * (1 + 1e-9 * rng.normal())
        q = unitary(rng, n)
        yield q @ t @ q.conj().T


def test_near_edge_clusters_return_a_report_or_a_typed_error():
    # the eigvals count and the sorted Schur used to disagree here (an eigenvalue
    # counted at 0.99 ctol, none selected) and the rank analysis hit a bare IndexError
    for h in near_edge_draws(600):
        try:
            assert isinstance(ep_analyze(h), EPReport)
        except IllConditionedError:
            pass


@st.composite
def dense_cases(draw):
    """S T S^-1 with cond(S) from 1 to 1e6; T holds a bulk 1 to 2 away from the
    target, maybe a Jordan block at the target, and maybe one eigenvalue planted
    at factor * ctol from it (ctol from the matrix with that eigenvalue at the target)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 40))
    cond = 10.0 ** draw(st.sampled_from([0, 1, 2, 4, 6]))
    target = draw(st.sampled_from([0.0, 0.8 - 1.3j]))
    factor = draw(st.sampled_from([None, 0.3, 0.9, 1.1, 1.9, 2.1, 3.0]))
    block = draw(st.sampled_from([0, 0, 1, 2, 3]))
    block = min(block, n - (factor is not None))
    t = np.diag(target + (1 + rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n)))
    t[:block, :block] = target * np.eye(block) + np.eye(block, k=1)
    s = (unitary(rng, n) * np.logspace(0, np.log10(cond), n)) @ unitary(rng, n)
    h = s @ t @ np.linalg.inv(s)
    if factor is not None:
        t[-1, -1] = target
        ctol = DEFAULT.cluster_rel * spectral_norm(s @ t @ np.linalg.inv(s))
        t[-1, -1] = target + factor * ctol * np.exp(2j * np.pi * rng.uniform())
        h = s @ t @ np.linalg.inv(s)
    return h, target


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=dense_cases())
def test_empty_cluster_certificate_is_sound_and_matches_an_eigvals_count(case):
    h, target = case
    n = h.shape[0]
    with spy(scipy.linalg, "schur") as schur:
        try:
            rep = ep_analyze(h, target)
        except IllConditionedError:
            assert schur.call_count == 1     # only the Schur analysis may refuse
            return
    ctol = DEFAULT.cluster_rel * rep.matrix_norm
    dist = np.abs(np.linalg.eigvals(h) - target)
    if schur.call_count == 0:       # the certificate returned the empty report
        assert (rep.algebraic_multiplicity, rep.ep_orders, rep.boundary_warning) == (0, [], False)
        sv = np.linalg.svd(h - target * np.eye(n), compute_uv=False)
        assert sv.min() > 2 * ctol
        assert dist.min() > 2 * ctol
    if np.any((dist >= ctol / 2) & (dist <= 2 * ctol)):
        return
    # away from the edge: an eigvals count, then the Schur rank analysis
    count = int(np.sum(dist <= ctol))
    want = (0, 0, [])
    if count:
        with mock.patch.object(spectra, "_cluster_is_empty", lambda *args: False):
            ref = ep_analyze(h, target)
        want = (count, ref.geometric_multiplicity, ref.ep_orders)
    assert (rep.algebraic_multiplicity, rep.geometric_multiplicity, rep.ep_orders) == want


def test_generic_dense_pair_takes_one_schur_only_for_a_zero_cluster():
    n = 100
    rng = np.random.default_rng(3)
    h0 = random_hermitian(rng, n)
    for rank_deficiency, schurs in ((0, 0), (2, 1)):
        h = construct_product(h0, random_psd(rng, n, rank_deficiency))
        # the norm is the tolerance scale, not a rank decision; take it out of the count
        with mock.patch.object(spectra, "spectral_norm", lambda m, v=spectral_norm(h): v), \
                spy(np.linalg, "eigvals") as eigvals, spy(scipy.linalg, "schur") as schur, \
                spy(np.linalg, "svd") as svd:
            rep = ep_analyze(h, 0.0)
        assert (eigvals.call_count, schur.call_count) == (0, schurs)
        assert (n, n) not in [np.shape(call.args[0]) for call in svd.call_args_list]
        assert rep.algebraic_multiplicity == rep.geometric_multiplicity == rank_deficiency
