"""``eig_full`` over a (k, n, n) stack: every matrix of the stack gets, bit
for bit, the result of its own 2-D call, whichever path it takes; a failing
matrix is named by its stack index."""

import numpy as np
import pytest
import scipy.linalg

from nhlab import eig
from nhlab.config import DEFAULT
from nhlab.eig import EigensolveError, eig_full
from nhlab.model import LatticeSpec, build_h0, build_scaling, construct_gauge, construct_product

from conftest import random_hermitian, random_psd

N = 16
FIELDS = ("eigenvalues", "right_vectors", "left_vectors", "overlaps", "residuals")


def chain(s, omega2=0.0, zeroed_sites=(), gauge=False):
    """H0 A of a geometric chain, or A^-1 H0 A with ``gauge``."""
    spec = LatticeSpec(n=N, t=1.0, scaling="geometric", s=s, zeroed_sites=zeroed_sites,
                       onsite="harmonic" if omega2 else "zero", omega2=omega2)
    return (construct_gauge if gauge else construct_product)(build_h0(spec), build_scaling(spec))


def missed_chain():
    """The one chain with an onsite term: its symmetric solve gets spoiled."""
    return chain(1.6, omega2=0.5)


def semisimple_zero(rng, nullity=2):
    h0 = random_hermitian(rng, N)
    lam, u = np.linalg.eigh(h0)
    lam[np.argsort(np.abs(lam))[:nullity]] = 0.0
    h0 = (u * lam) @ u.conj().T
    return construct_product((h0 + h0.conj().T) / 2, random_psd(rng, N))


def mixed_stack():
    """Chains, dense instances, a semisimple zero cluster, an EP at zero (a
    chain with a zeroed site) and a chain that misses its certificate,
    interleaved."""
    rng = np.random.default_rng(7)
    return np.stack([
        chain(1.4),
        construct_product(random_hermitian(rng, N), random_psd(rng, N)),
        semisimple_zero(rng),
        chain(1.4, gauge=True),
        chain(1.5, zeroed_sites=(4,)),
        missed_chain(),
        construct_product(random_hermitian(rng, N), random_hermitian(rng, N)),
        chain(1.9),
    ])


@pytest.fixture
def spoiled_chain(monkeypatch):
    """Spoil the symmetric solve of ``missed_chain``, so its pairs miss the
    certificate and it joins the dense path."""
    solve = scipy.linalg.eigh_tridiagonal
    marked = np.diagonal(missed_chain()).real

    def spoiled(d, e, **kwargs):
        w, phi = solve(d, e, **kwargs)
        if np.array_equal(d, marked):
            phi = phi + 1e-3 * np.roll(phi, 1, axis=0)
        return w, phi

    monkeypatch.setattr(scipy.linalg, "eigh_tridiagonal", spoiled)


def assert_same(es, ref):
    for name in FIELDS:
        assert np.array_equal(getattr(es, name), getattr(ref, name)), name
        assert getattr(es, name).dtype == getattr(ref, name).dtype, name
    assert es.norm_status == ref.norm_status
    assert es.matrix_norm == ref.matrix_norm and type(es.matrix_norm) is float
    assert es.dim == ref.dim == N


def test_stack_equals_each_slice_bitwise(spoiled_chain):
    stack = mixed_stack()
    systems = eig_full(stack)
    assert isinstance(systems, list) and len(systems) == len(stack)
    for k, es in enumerate(systems):
        assert_same(es, eig_full(stack[k]))
    # the instances cover every path: chain, dense, clusters of both kinds
    for k, status in ((2, eig.BIORTHONORMAL), (4, eig.SELF_ORTHOGONAL)):
        es = systems[k]
        zero = np.abs(es.eigenvalues) <= DEFAULT.cluster_rel * es.matrix_norm
        assert zero.sum() >= 2 and status in np.array(es.norm_status)[zero]


def test_stack_paths(spoiled_chain, monkeypatch):
    calls = []
    dense = scipy.linalg.eig
    monkeypatch.setattr(scipy.linalg, "eig",
                        lambda m, **kw: calls.append(m.tobytes()) or dense(m, **kw))
    stack = mixed_stack()
    eig_full(stack)
    # the four dense instances and the spoiled chain, in stack order
    assert calls == [stack[k].tobytes() for k in (1, 2, 4, 5, 6)]


def test_stack_error_names_its_index(monkeypatch):
    stack = mixed_stack()
    bad = stack[6][0, 0]
    dense = scipy.linalg.eig

    def spoiled(m, **kwargs):
        w, vl, vr = dense(m, **kwargs)
        return (w, vl, vr + 1e-3 * np.roll(vr, 1, axis=0)) if m[0, 0] == bad else (w, vl, vr)

    monkeypatch.setattr(scipy.linalg, "eig", spoiled)
    with pytest.raises(EigensolveError, match=r"^stack index 6: eigenpair residual"):
        eig_full(stack)
    with pytest.raises(EigensolveError, match=r"^eigenpair residual"):
        eig_full(stack[6])

    def failing(m, **kwargs):
        if m[0, 0] == bad:
            raise np.linalg.LinAlgError("did not converge")
        return dense(m, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig", failing)
    with pytest.raises(EigensolveError, match=rf"^stack index 6: eigensolve failed for {N}x{N}"):
        eig_full(stack)
    with pytest.raises(EigensolveError, match=rf"^eigensolve failed for {N}x{N}"):
        eig_full(stack[6])


@pytest.mark.parametrize("shape", [(3, 4, 5), (2, 3, 3, 3), (0, 4, 4), (3, 0, 0), (4,)])
def test_stack_shape_errors(shape):
    with pytest.raises(ValueError, match="square|empty"):
        eig_full(np.ones(shape))


def test_stack_norm_status_lists_every_mode(spoiled_chain):
    systems = eig_full(mixed_stack())
    assert isinstance(systems, eig.EigenSystems)
    assert systems.norm_status == sum((es.norm_status for es in systems), ())
    assert systems.norm_status.count(eig.SELF_ORTHOGONAL) > 0


def test_stack_of_one_is_a_list():
    h = chain(1.4)
    systems = eig_full(h[None])
    assert isinstance(systems, list) and len(systems) == 1
    assert_same(systems[0], eig_full(h))
