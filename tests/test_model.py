from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhlab.model import (LatticeSpec, assert_hermitian, build_h0, build_scaling,
                         construct_gauge, construct_product, factor_psd,
                         hermitian_defect, hermitian_equivalent, norm_scale,
                         onsite_values, residual_norm, scaling_values, shift_spectrum,
                         spectral_norm, splitmix64_stream)

from conftest import random_hermitian, random_psd


# ---------------------------------------------------------------------------
# LatticeSpec validation

def test_spec_rejects_bad_fields():
    with pytest.raises(ValueError):
        LatticeSpec(n=0)
    with pytest.raises(ValueError):
        LatticeSpec(n=3, t=0.0)
    with pytest.raises(ValueError):
        LatticeSpec(n=3, scaling="geometric", s=0.0)
    with pytest.raises(ValueError):
        LatticeSpec(n=3, scaling="explicit", values=(1.0, 2.0))
    with pytest.raises(ValueError):
        LatticeSpec(n=3, zeroed_sites=(4,))
    with pytest.raises(ValueError):
        LatticeSpec(n=3, onsite="parabolic")


def test_spec_integer_fields_stored_as_int():
    spec = LatticeSpec(n=np.int64(9), scaling="random", seed=np.uint64(3),
                       zeroed_sites=(np.int32(4),))
    assert [type(x) for x in (spec.n, spec.seed, *spec.zeroed_sites)] == [int, int, int]
    with pytest.raises(ValueError, match="zeroed site 4.5 is not an integer"):
        LatticeSpec(n=9, zeroed_sites=(4.5,))


def test_spec_roundtrip_json_dict():
    spec = LatticeSpec(n=9, t=2.0, scaling="geometric", s=1.5, zeroed_sites=(4,))
    assert LatticeSpec.from_dict(spec.to_dict()) == spec
    with pytest.raises(ValueError, match="unknown"):
        LatticeSpec.from_dict({"n": 3, "bogus": 1})


# ---------------------------------------------------------------------------
# build_h0

def test_h0_two_site():
    h = build_h0(LatticeSpec(n=2, t=1.0))
    assert np.array_equal(h, np.array([[0, 1], [1, 0]], dtype=complex))


def test_h0_harmonic_diagonal():
    n, t = 100, 1.0
    spec = LatticeSpec(n=n, t=t, onsite="harmonic", omega2=t / 1000)
    h = build_h0(spec)
    j = np.arange(1, n + 1)
    expected = (j - (n - 1) / 2.0) ** 2 * (t / 1000) / 2.0
    assert np.allclose(np.diagonal(h).real, expected, rtol=0, atol=0)


def test_h0_open_chain_spectrum_closed_form():
    # open-chain analytic spectrum 2 t cos(k pi / (n+1)) is the oracle
    n = 9
    w = np.sort(np.linalg.eigvalsh(build_h0(LatticeSpec(n=n, t=1.0))))
    expected = np.sort(2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    assert np.abs(w - expected).max() < 1e-12
    assert np.abs(w[4]) < 1e-12                       # zero mode of the odd chain
    assert abs(abs(w[3]) - 2 * np.cos(2 * np.pi / 5)) < 1e-12


# ---------------------------------------------------------------------------
# scalings

def test_geometric_scaling_exact():
    a = scaling_values(LatticeSpec(n=3, scaling="geometric", s=2.0))
    assert np.array_equal(a, [1.0, 2.0, 4.0])


def test_zeroed_site_scaling():
    a = scaling_values(LatticeSpec(n=9, scaling="geometric", s=2.0, zeroed_sites=(4,)))
    assert np.array_equal(a, [1, 2, 4, 0, 16, 32, 64, 128, 256])


def test_random_scaling_range_and_reproducibility():
    spec = LatticeSpec(n=4, scaling="random", seed=1)
    a1 = scaling_values(spec)
    a2 = scaling_values(spec)
    assert np.array_equal(a1, a2)           # bit-reproducible
    assert np.all(a1 > 0) and np.all(a1 <= 2)


def test_splitmix64_stream_is_continuation_invariant():
    u = splitmix64_stream(12345, 8)
    assert np.array_equal(u[:4], splitmix64_stream(12345, 4))
    assert np.all((0 <= u) & (u < 1))


def test_explicit_negative_rejected_without_override():
    spec = LatticeSpec(n=2, scaling="explicit", values=(1.0, -1.0))
    with pytest.raises(ValueError, match="site"):
        build_scaling(spec)
    a = build_scaling(spec, allow_indefinite=True)
    assert np.array_equal(np.diagonal(a), [1.0, -1.0])


# ---------------------------------------------------------------------------
# construct_product

def test_product_two_site_by_hand():
    h0 = np.array([[0, 2.0], [2.0, 0]], dtype=complex)
    a = np.diag([3.0, 5.0]).astype(complex)
    h = construct_product(h0, a)
    assert np.array_equal(h, np.array([[0, 10.0], [6.0, 0]]))
    w = np.sort(np.linalg.eigvals(h).real)
    assert np.allclose(w, [-2 * np.sqrt(15), 2 * np.sqrt(15)])


def test_product_identity_scaling_is_h0():
    h0 = build_h0(LatticeSpec(n=5))
    assert np.array_equal(construct_product(h0, np.eye(5, dtype=complex)), h0)


def test_product_indefinite_scaling_conjugate_pair():
    h = construct_product(np.array([[0, 1], [1, 0]], dtype=complex),
                          np.diag([1.0, -1.0]).astype(complex))
    w = np.linalg.eigvals(h)
    w = w[np.argsort(w.imag)]
    assert np.allclose(w, [-1j, 1j], atol=1e-12)


def test_product_requires_hermitian_inputs():
    with pytest.raises(ValueError, match="Hermitian"):
        construct_product(np.array([[0, 1], [0, 0]], dtype=complex), np.eye(2))
    with pytest.raises(ValueError, match="mismatch"):
        construct_product(np.eye(3, dtype=complex), np.eye(2, dtype=complex))


def test_product_adjoint_identity_exact_dense():
    rng = np.random.default_rng(5)
    for n in (2, 7, 23, 64, 200):
        h0 = random_hermitian(rng, n)
        a = random_psd(rng, n)
        h = construct_product(h0, a)
        rev = construct_product(a, h0)
        assert np.array_equal(h.conj().T, rev)
    h0 = np.stack([random_hermitian(rng, 40) for _ in range(3)])
    a = np.stack([random_psd(rng, 40, 2 * k) for k in range(3)])
    assert np.array_equal(np.swapaxes(construct_product(h0, a).conj(), -1, -2),
                          construct_product(a, h0))


def _gamma(k: int, u):
    return k * u / (1 - k * u)


def test_dense_product_meets_the_matrix_multiplication_bound():
    # Each entry of H0 A is a complex inner product of length n: its real and
    # imaginary parts are real inner products of length 2n, so in any summation
    # order |fl(H0 A) - H0 A| <= sqrt(2) gamma_2n |H0||A| entrywise (Higham,
    # Accuracy and Stability of Numerical Algorithms, 2nd ed., sections 3.5-3.6).
    # Halving is exact and the sum of the halves adds one rounding, so the
    # constant is c = sqrt(2) gamma_(2n+1), u = 2^-53.  The np.clongdouble
    # reference adds its own sqrt(2) gamma_2n at the extended unit roundoff.
    rng = np.random.default_rng(21)
    u, u_ref = np.finfo(float).eps / 2, np.finfo(np.longdouble).eps / 2
    cases = [(random_hermitian(rng, n), random_psd(rng, n, n // 8)) for n in (2, 7, 64, 200)]
    cases.append((np.stack([random_hermitian(rng, 30) for _ in range(4)]),
                  np.stack([random_psd(rng, 30) for _ in range(4)])))
    for h0, a in cases:
        n = h0.shape[-1]
        h = construct_product(h0, a).astype(np.clongdouble)
        h0, a = h0.astype(np.clongdouble), a.astype(np.clongdouble)
        c = np.sqrt(np.longdouble(2)) * (_gamma(2 * n + 1, u) + _gamma(2 * n, u_ref))
        assert (np.abs(h - h0 @ a) <= c * (np.abs(h0) @ np.abs(a))).all(), n


def test_dense_product_halves_before_the_sum():
    # each product is finite; their sum before halving would overflow
    h0 = 8e307 * np.eye(2, dtype=complex)
    a = np.array([[2.0, 0.5], [0.5, 2.0]], dtype=complex)
    assert np.array_equal(construct_product(h0, a), h0 @ a)


def test_stacked_inputs_give_each_matrix_its_2d_result():
    rng = np.random.default_rng(8)
    for n in (1, 5, 31, 40):
        h0 = np.stack([random_hermitian(rng, n) for _ in range(4)])
        a = np.stack([random_psd(rng, n) for _ in range(4)])
        d = np.stack([np.diag(rng.uniform(0.2, 3.0, n)).astype(complex) for _ in range(4)])
        # tridiagonal chains take the banded norm route from n = 32 on
        chains = np.stack([build_h0(LatticeSpec(n=n, t=t)) * d[0].diagonal()
                           for t in (0.5, 1.0, 2.0)])
        for stack, each in [
            (construct_product(h0, a), [construct_product(x, y) for x, y in zip(h0, a)]),
            (construct_product(h0, d), [construct_product(x, y) for x, y in zip(h0, d)]),
            (assert_hermitian(h0), [assert_hermitian(x) for x in h0]),
            (hermitian_defect(h0 + 1e-3 * a.imag), [hermitian_defect(x + 1e-3 * y.imag)
                                                    for x, y in zip(h0, a)]),
            (spectral_norm(h0 @ a), [spectral_norm(x @ y) for x, y in zip(h0, a)]),
            (spectral_norm(chains), [spectral_norm(x) for x in chains]),
            (hermitian_equivalent(h0, d), [hermitian_equivalent(x, y) for x, y in zip(h0, d)]),
        ]:
            assert np.array_equal(stack, np.array(each))
    assert type(hermitian_defect(h0[0])) is float and type(spectral_norm(h0[0])) is float
    assert hermitian_defect(np.zeros((3, 2, 2))).tolist() == [0.0, 0.0, 0.0]
    broken = h0.copy()
    broken[2, 0, -1] += 1.0
    with pytest.raises(ValueError, match="h0 is not Hermitian"):
        construct_product(broken, a)
    with pytest.raises(ValueError, match="must be square"):
        assert_hermitian(np.zeros(3))


def test_assert_hermitian_returns_the_symmetrized_bits():
    # an exactly Hermitian stack skips the defect's moduli; both it and a
    # near-Hermitian stack come back as (m + m^dag) / 2, bit for bit
    rng = np.random.default_rng(19)
    exact = np.stack([random_hermitian(rng, n) for n in (7, 7, 7)])
    exact[0, 2, 2] = -0.0j                        # a signed zero on the diagonal
    near = exact + 1e-14 * (rng.normal(size=exact.shape) + 1j * rng.normal(size=exact.shape))
    for m in (exact, near, exact[1], near[2]):
        out = assert_hermitian(m)
        ref = (m + np.swapaxes(m.conj(), -1, -2)) / 2
        assert out.tobytes() == ref.tobytes() and out is not m
    with pytest.raises(ValueError, match="not Hermitian"):
        assert_hermitian(exact + 1e-6 * rng.normal(size=exact.shape))


def test_assert_hermitian_keeps_entries_near_the_largest_float():
    # each term is halved before the sum, so a finite entry above 8.99e307 stays finite
    m = np.array([[1e308, 1.5e308 - 1e308j], [1.5e308 + 1e308j, -1.7e308]])
    assert np.array_equal(assert_hermitian(m), m)
    assert np.array_equal(assert_hermitian(np.array([[1e308]])), [[1e308]])


@settings(max_examples=50, deadline=None)
@given(n=st.integers(2, 16), s=st.floats(1.05, 3.0), seed=st.integers(0, 2**32 - 1))
def test_geometric_coupling_ratio(n, s, seed):
    spec = LatticeSpec(n=n, t=1.0, scaling="geometric", s=s)
    h = construct_product(build_h0(spec), build_scaling(spec))
    for j in range(n - 1):
        assert h[j, j + 1].real / h[j + 1, j].real == pytest.approx(s, rel=1e-13)


def test_geometric_coupling_ratio_exact_for_dyadic():
    spec = LatticeSpec(n=12, t=1.0, scaling="geometric", s=2.0)
    h = construct_product(build_h0(spec), build_scaling(spec))
    for j in range(11):
        assert (h[j, j + 1] / h[j + 1, j]).real == 2.0


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1))
def test_reality_property(n, seed):
    rng = np.random.default_rng(seed)
    h = construct_product(random_hermitian(rng, n), random_psd(rng, n))
    w = np.linalg.eigvals(h)
    assert np.abs(w.imag).max() <= 1e-8 * max(spectral_norm(h), 1e-300)


# ---------------------------------------------------------------------------
# construct_gauge

def test_gauge_preserves_spectrum(chain9):
    _, h0, a, _, hpp = chain9
    w0 = np.sort(np.linalg.eigvalsh(h0))
    w = np.sort(np.linalg.eigvals(hpp).real)
    assert np.abs(w - w0).max() <= 1e-8 * spectral_norm(h0)
    assert abs(abs(w[3]) - 2 * np.cos(2 * np.pi / 5)) < 1e-8   # +-0.618 t


def test_gauge_identity_and_coupling_ratio():
    spec = LatticeSpec(n=3, t=1.0, scaling="geometric", s=2.0)
    h0 = build_h0(spec)
    assert np.array_equal(construct_gauge(h0, np.eye(3, dtype=complex)), h0)
    hpp = construct_gauge(h0, build_scaling(spec))
    for j in range(2):
        assert (hpp[j, j + 1] / hpp[j + 1, j]).real == pytest.approx(4.0, rel=1e-14)


def test_gauge_anchor_independent_of_s():
    # null control: the similarity transform cannot move the 0.618t anchor
    for s in (1.3, 1.8, 2.6):
        spec = LatticeSpec(n=9, t=1.0, scaling="geometric", s=s)
        hpp = construct_gauge(build_h0(spec), build_scaling(spec))
        w = np.abs(np.linalg.eigvals(hpp))
        smallest_nonzero = np.sort(w)[1]
        assert smallest_nonzero == pytest.approx(2 * np.cos(2 * np.pi / 5), abs=1e-9)


def test_gauge_names_singular_sites():
    spec = LatticeSpec(n=3, scaling="geometric", s=2.0, zeroed_sites=(2,))
    with pytest.raises(ValueError, match=r"\[2\]"):
        construct_gauge(build_h0(spec), build_scaling(spec))
    # in a stack the refusal names the stack index of the singular scaling
    with pytest.raises(ValueError, match=r"^stack index 1: scaling is singular at sites \[2\]"):
        construct_gauge(np.stack([build_h0(spec)] * 2),
                        np.stack([np.eye(3), build_scaling(spec)]))


# ---------------------------------------------------------------------------
# factor_psd / hermitian_equivalent

def test_factor_diagonal():
    b = factor_psd(np.diag([1.0, 4.0, 9.0]).astype(complex))
    assert np.array_equal(b, np.diag([1.0, 2.0, 3.0]))
    b = factor_psd(np.diag([1.0, 2.0, 0.0]).astype(complex))
    assert np.allclose(b, np.diag([1.0, np.sqrt(2), 0.0]))


def test_factor_dense_reconstructs():
    rng = np.random.default_rng(11)
    a = random_psd(rng, 4)
    b = factor_psd(a)
    assert spectral_norm(b.conj().T @ b - a) <= 1e-10 * spectral_norm(a)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n, deficiency", [(10, 2), (40, 3)])
def test_factor_rank_deficient_is_singular_on_the_kernel(seed, n, deficiency):
    # round-off eigenvalues (~1e-16 ||A||) of a singular A must not become
    # singular values ~1e-8 of B: the audit then misses the kernel modes and
    # the B-map treats them as mapped
    from nhlab.eig import eig_full
    from nhlab.spectra import bmap_correspondence, inner_product_audit
    rng = np.random.default_rng(seed)
    h0 = random_hermitian(rng, n)
    a = random_psd(rng, n, deficiency)
    b = factor_psd(a)
    assert np.linalg.matrix_rank(b) == n - deficiency
    assert spectral_norm(b.conj().T @ b - a) <= 1e-10 * spectral_norm(a)
    audit = inner_product_audit(eig_full(construct_product(h0, a)), b)
    assert sum(e.ep_candidate for e in audit) == deficiency
    rep = bmap_correspondence(h0, b)
    assert not rep.invertible
    assert sum(e.mapped for e in rep.entries) == n - deficiency
    assert max(e.residual for e in rep.entries) <= 1e-10


def test_factor_rejects_indefinite():
    with pytest.raises(ValueError):
        factor_psd(np.diag([1.0, -1.0]).astype(complex))


def _decomposition_calls(fn, *args):
    """The (eigh, eigvalsh, svd) call counts of fn(*args), and its result or ValueError."""
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh, \
            mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh, \
            mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
        try:
            out = fn(*args)
        except ValueError as exc:
            out = exc
    return (eigh.call_count, eigvalsh.call_count, svd.call_count), out


def test_dense_factor_takes_one_eigh_and_no_other_decomposition():
    rng = np.random.default_rng(13)
    a = random_psd(rng, 30, 3)
    calls, b = _decomposition_calls(factor_psd, a)
    assert calls == (1, 0, 0)
    assert spectral_norm(b.conj().T @ b - a) <= 1e-10 * spectral_norm(a)
    q = np.linalg.qr(rng.normal(size=(30, 30)) + 1j * rng.normal(size=(30, 30)))[0]
    calls, err = _decomposition_calls(factor_psd, (q * np.linspace(-1.0, 2.0, 30)) @ q.conj().T)
    assert calls == (1, 0, 0)
    assert str(err) == "a is not positive semi-definite (lowest eigenvalue -1.000e+00)"


def test_hermitian_equivalent_graded_couplings():
    s = 2.0
    spec = LatticeSpec(n=9, t=1.0, scaling="geometric", s=s)
    h0 = build_h0(spec)
    b = factor_psd(build_scaling(spec))
    he = hermitian_equivalent(h0, b)
    for j in range(8):
        assert he[j, j + 1].real == pytest.approx(s ** (j + 0.5), rel=1e-14)
    assert np.array_equal(hermitian_equivalent(h0, np.eye(9, dtype=complex)), h0)


def test_hermitian_equivalent_spectrum_matches_product():
    rng = np.random.default_rng(3)
    h0 = random_hermitian(rng, 6)
    a = random_psd(rng, 6)
    b = factor_psd(a)
    h = construct_product(h0, a)
    we = np.sort(np.linalg.eigvalsh(hermitian_equivalent(h0, b)))
    w = np.sort(np.linalg.eigvals(h).real)
    assert np.abs(we - w).max() <= 1e-8 * spectral_norm(h)


# ---------------------------------------------------------------------------
# shift_spectrum

def test_shift_zero_is_identity():
    h = build_h0(LatticeSpec(n=4))
    assert np.array_equal(shift_spectrum(h, 0.0), h)


def test_shift_moves_all_eigenvalues():
    rng = np.random.default_rng(1)
    h = construct_product(random_hermitian(rng, 5), random_psd(rng, 5))
    w = np.sort(np.linalg.eigvals(h).real)
    w_shifted = np.sort(np.linalg.eigvals(shift_spectrum(h, 2.5)).real)
    assert np.allclose(w_shifted, w + 2.5, atol=1e-10 * spectral_norm(h))


def test_shift_recovers_harmonic_levels():
    # lowest levels of the harmonic chain sit at (q - 1/2) * omega_tilde
    # once the band offset 2|t| is shifted away
    n, t = 100, 1.0
    spec = LatticeSpec(n=n, t=t, onsite="harmonic", omega2=t / 1000)
    shifted = shift_spectrum(build_h0(spec), 2 * abs(t))
    w = np.sort(np.linalg.eigvalsh(shifted))
    omega_tilde = np.sqrt(t / 1000) * np.sqrt(2 * t)
    for q in range(1, 6):
        assert abs(w[q - 1] - (q - 0.5) * omega_tilde) <= 0.05 * omega_tilde


def test_onsite_values_zero():
    assert np.array_equal(onsite_values(LatticeSpec(n=3)), np.zeros(3))


def test_norm_scale_decides_every_test_as_the_svd_norm():
    # values at rel * ||M||_2 * (1 -+ 1e-9), far inside and of either sign;
    # wherever the verdict fails the scale is the exact norm.  n = 40 and the
    # tridiagonal stack take the banded norm route
    rng = np.random.default_rng(8)
    for n in (1, 3, 12, 40):
        m = rng.normal(size=(6, n, n)) + 1j * rng.normal(size=(6, n, n))
        m[0] = 0.0
        for stack in (m, m + np.swapaxes(m.conj(), 1, 2),
                      np.stack([build_h0(LatticeSpec(n=n, t=t)) for t in (0.5, 1, 2, 3, 4, 5)])):
            norm = spectral_norm(stack)
            for rel in (1e-8, 0.0, -1.0):
                factors = rng.choice([1 - 1e-9, 1 + 1e-9, 1e-3, 1e3, -1e-3, -1.0], size=6)
                values = factors * (rel or 1e-3) * norm
                scale = norm_scale(stack, values, rel)
                assert np.array_equal(values <= rel * scale, values <= rel * norm)
                fails = ~(values <= rel * norm)
                assert np.array_equal(scale[fails], norm[fails])
                one = norm_scale(stack[1], values[1], rel)
                assert type(one) is float
                assert (values[1] <= rel * one) == (values[1] <= rel * norm[1])


def test_residual_norm_decides_every_test_as_the_svd_norms():
    # ||R||_2 at rel * ||M||_2 * (1 -+ 1e-9), far inside and far out; wherever
    # the verdict fails, value and limit are both the SVD norms
    rng = np.random.default_rng(9)
    for n in (1, 3, 12, 40):
        m = rng.normal(size=(6, n, n)) + 1j * rng.normal(size=(6, n, n))
        r = rng.normal(size=(6, n, n)) + 1j * rng.normal(size=(6, n, n))
        r_norm, m_norm = spectral_norm(r), spectral_norm(m)
        for rel in (1e-8, 0.0, -1.0):
            factors = rng.choice([1 - 1e-9, 1 + 1e-9, 1e-3, 1e3], size=6)
            r_scaled = r * (factors * (rel or 1e-3) * m_norm / r_norm)[:, None, None]
            exact = spectral_norm(r_scaled)
            value, limit = residual_norm(r_scaled, m, rel)
            assert np.array_equal(value <= limit, exact <= rel * m_norm)
            fails = ~(exact <= rel * m_norm)
            assert np.array_equal(value[fails], exact[fails])
            assert np.array_equal(limit[fails], rel * m_norm[fails])
