"""Stacked kernels of the property suites: ``construct_gauge``,
``eigenfrequencies``, ``chain_form``, ``_conjugate_matching`` and ``eig_full``'s
chain path over a (k, n, n) stack give every matrix, bit for bit, the result
of its own call; a refusal names its stack index; and the trial RNGs are
numpy's ``default_rng`` streams."""

import numpy as np
import pytest
import scipy.linalg

from nhlab import properties
from nhlab.config import DEFAULT, Tolerances
from nhlab.eig import chain_form, eig_full
from nhlab.mech import dynamical_matrix, eigenfrequencies, stiffness_matrix
from nhlab.model import LatticeSpec, build_h0, build_scaling, construct_gauge, construct_product
from nhlab.spectra import _conjugate_matching, conjugate_pairs

from conftest import random_chain, random_hermitian, random_psd
from test_eig_stack import N, assert_same
from test_spectra_batched import reference_conjugate_pairs


def geometric(n, s, zeroed_sites=()):
    spec = LatticeSpec(n=n, t=1.0, scaling="geometric", s=s, zeroed_sites=zeroed_sites)
    return build_h0(spec), build_scaling(spec)


def explicit(rng, n):
    spec = LatticeSpec(n=n, t=0.7, scaling="explicit", values=tuple(rng.uniform(0.1, 3.0, n)))
    return build_h0(spec), build_scaling(spec)


# ---------------------------------------------------------------------------
# construct_gauge

def test_gauge_stack_equals_each_matrix():
    rng = np.random.default_rng(21)
    for n in (1, 2, 9, 31, 40):
        pairs = [geometric(n, s) for s in (1.1, 1.7, 2.6)] + [explicit(rng, n) for _ in range(3)]
        dense = [(random_hermitian(rng, n), random_psd(rng, n) + np.eye(n)) for _ in range(2)]
        for group in (pairs, dense, pairs[:2] + dense[:1] + pairs[2:]):     # mixed: each alone
            h0, a = (np.stack(x) for x in zip(*group))
            stacked = construct_gauge(h0, a)
            assert stacked.shape == h0.shape
            for k in range(len(group)):
                assert np.array_equal(stacked[k], construct_gauge(h0[k], a[k]))


def test_gauge_stack_refusal_names_its_index():
    h0, a = geometric(5, 1.5)
    singular = geometric(5, 1.5, zeroed_sites=(2, 4))[1]
    with pytest.raises(ValueError, match=r"^stack index 2: scaling is singular at sites \[2, 4\]"):
        construct_gauge(np.stack([h0] * 3), np.stack([a, a, singular]))
    rank_one = np.ones((5, 5), dtype=complex)
    with pytest.raises(ValueError, match=r"^stack index 1: scaling is numerically singular"):
        construct_gauge(np.stack([h0] * 2), np.stack([a, rank_one]))
    with pytest.raises(ValueError, match=r"^scaling is numerically singular"):
        construct_gauge(h0, rank_one)


@pytest.mark.parametrize("call", [lambda x: construct_gauge(x, x), eigenfrequencies])
def test_stacked_entry_points_refuse_1d_and_4d_input(call):
    m = geometric(4, 1.5)[1]
    for bad in (m[0], m[None, None]):
        with pytest.raises(ValueError, match=r"^(h0|m) must be square"):
            call(bad)


# ---------------------------------------------------------------------------
# eigenfrequencies

def test_eigenfrequencies_stack_equals_each_matrix():
    rng = np.random.default_rng(5)
    for n in range(1, 41):
        m = np.stack([dynamical_matrix(random_chain(rng, n)) for _ in range(3)])
        tilted = m + 1e-12j * np.eye(n)             # complex input: complex arithmetic
        for stack in (m, tilted, np.stack([m[0], tilted[1], m[2]])):
            got = eigenfrequencies(stack)
            assert got.shape == (3, n)
            for k in range(3):
                assert np.array_equal(got[k], eigenfrequencies(stack[k]))


def test_chain_matrices_are_each_chain_s_own():
    for n in (1, 2, 9, 40):
        rngs = [np.random.default_rng([n, k]) for k in range(4)]
        m, k0, root = properties._chain_matrices(n, rngs)
        for k in range(4):
            chain = random_chain(np.random.default_rng([n, k]), n)
            assert np.array_equal(m[k], dynamical_matrix(chain))
            assert np.array_equal(k0[k], stiffness_matrix(chain))
            assert np.array_equal(root[k], np.diag(1.0 / np.sqrt(np.array(chain.masses))))


def test_eigenfrequencies_stack_refusal_names_its_index():
    rng = np.random.default_rng(6)
    m = np.stack([dynamical_matrix(random_chain(rng, 6)) for _ in range(4)])
    unstable = m.copy()
    unstable[2] += 10.0 * np.eye(6)
    with pytest.raises(ValueError, match=r"^stack index 2: positive eigenvalue"):
        eigenfrequencies(unstable)
    rotated = m.copy()
    rotated[1] = [[0, 1, 0, 0, 0, 0], [-1, 0, 0, 0, 0, 0]] + [[0] * 6] * 4
    with pytest.raises(ValueError, match=r"^stack index 1: non-real eigenvalue"):
        eigenfrequencies(rotated)
    with pytest.raises(ValueError, match=r"^non-real eigenvalue"):
        eigenfrequencies(rotated[1])


def test_passing_mech_reality_calls_eigenfrequencies_once_per_size_group(monkeypatch):
    calls = []
    counted = properties.eigenfrequencies
    monkeypatch.setattr(properties, "eigenfrequencies",
                        lambda m, tol: calls.append(m.shape) or counted(m, tol))
    assert properties._details("mech_reality", 1, range(50), DEFAULT) == [None] * 50
    sizes = [n for _, n, _ in calls]
    assert len(sizes) == len(set(sizes)) > 1                 # one stack per size
    assert sum(k for k, _, _ in calls) == 50                 # every trial in one of them
    # a failing group is replayed matrix by matrix, for each trial's own detail
    calls.clear()
    tight = Tolerances(mech_spectrum_rel=-1.0)
    details = properties._details("mech_reality", 1, range(50), tight)
    assert all(details) and len(calls) == len(sizes) + 50


# ---------------------------------------------------------------------------
# chain_form and the chain path of eig_full

def test_chain_form_of_a_stack_has_each_chain_as_a_row():
    chains = [construct_product(*geometric(12, s)) for s in (1.2, 1.9, 3.0)]
    form = chain_form(np.stack(chains))
    for k, m in enumerate(chains):
        one = chain_form(m)
        for name in ("diag", "off", "d"):
            assert np.array_equal(getattr(form, name)[k], getattr(one, name))
    # any matrix that is not a chain refuses the stack
    assert chain_form(np.stack(chains[:2] + [np.ones((12, 12))])) is None


def overflowing_gauge(n):
    """A real chain with couplings 1e150 above and 1e-150 below the diagonal: its D
    over- and underflows, so only the dense path can solve it."""
    return np.diag(np.full(n - 1, 1e150), 1) + np.diag(np.full(n - 1, 1e-150), -1) + 0j


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_chain_stack_with_every_path_equals_each_matrix():
    n = N
    h0, a = geometric(n, 1.6)
    lossy = construct_product(h0, a) - 0.3j * np.eye(n)
    stack = np.stack([construct_product(h0, a), 1e200 * construct_product(h0, a),
                      overflowing_gauge(n), lossy, construct_gauge(h0, a),
                      construct_product(random_hermitian(np.random.default_rng(2), n), a)])
    assert chain_form(stack[2]) is None
    for k, es in enumerate(eig_full(stack)):
        assert_same(es, eig_full(stack[k]))
    # the chains keep the chain path in the stack: only the two others are dense
    calls = []
    dense = scipy.linalg.eig
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scipy.linalg, "eig", lambda m, **kw: calls.append(1) or dense(m, **kw))
        eig_full(stack)
    assert len(calls) == 2


def test_a_random_complex_stack_never_forms_a_chain(monkeypatch):
    rng = np.random.default_rng(3)
    stack = np.stack([construct_product(random_hermitian(rng, 7), random_psd(rng, 7))
                      for _ in range(5)])
    monkeypatch.setattr("nhlab.eig.chain_form", lambda m: pytest.fail("chain_form called"))
    assert len(eig_full(stack)) == 5


# ---------------------------------------------------------------------------
# _conjugate_matching

def test_conjugate_matching_of_a_stack_is_each_spectrum_s_greedy():
    rng = np.random.default_rng(9)
    for n in (1, 2, 7, 20):
        h = np.stack([construct_product(random_hermitian(rng, n), random_hermitian(rng, n))
                      for _ in range(6)])
        w = np.linalg.eigvals(h)
        w[0] = np.round(w[0])                               # ties, and a real spectrum
        w[1] = np.round(w[1].real)
        partner, resid = _conjugate_matching(w)
        for k in range(len(w)):
            pairs, costs = reference_conjugate_pairs(w[k])
            assert conjugate_pairs(w[k]) == (pairs, costs)
            for (mu, nu), c in zip(pairs, costs):
                assert partner[k, mu] == nu and partner[k, nu] == mu
                assert resid[k, mu] == resid[k, nu] == c


# ---------------------------------------------------------------------------
# the trial RNGs

@pytest.mark.parametrize("seed", [0, 1, 1000001, 2**32 - 1, 2**32, 2**63 + 5, 2**80])
def test_trial_rngs_are_default_rng_streams(seed):
    trials = [0, 1, 2, 199, 7, 7, 2**32 - 1]
    for suite in (0, 9):
        for rng, trial in zip(properties._trial_rngs(seed, suite, trials), trials):
            ref = np.random.default_rng([seed, suite, trial])
            assert np.array_equal(rng.normal(size=5), ref.normal(size=5))
            assert rng.integers(0, 2**62) == ref.integers(0, 2**62)
    assert properties._trial_rngs(seed, 3, []) == []

