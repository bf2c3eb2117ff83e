"""The one-site chain threshold from the pumped site's Green's function
against exact and dense oracles, and the continuation that keeps the mode
order: the order against a per-point overlap tracker, exact thresholds from
Fraction continued fractions, the roots against the bordered matrix's real
spectrum and the sign changes of Re G_pp, the enclosures of the crossing
search against sampled values, the search's zero dense solves, its tie rule
and its noise-floor refusal, the secular step's swap guard and its bounded
separation test against the pairwise one, and dense inputs searched exactly
as by the plain regula falsi."""

from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhlab.config import DEFAULT
from nhlab.eig import chain_form
from nhlab import laser
from nhlab.laser import (NoThresholdError, PumpSpec, _enclose, _green, _PumpedChain,
                         find_threshold, pumped_hamiltonian, track_mode)
from nhlab.model import LatticeSpec, build_h0, build_scaling, construct_gauge, construct_product

from conftest import random_hermitian
from test_laser_structured import Counter, dense_track, symmetric_form
from test_laser_symmetric import skin_chains, threshold_cases


def bench_cases():
    """The threshold benchmark's n = 41 chains at both loss strengths."""
    return [(m, PumpSpec(kappa0=k0, pumped_sites=(1,)))
            for m in skin_chains(41) for k0 in (0.02, 1.0)]


def calibrated_product(n, s):
    spec = LatticeSpec(n=n, t=1.0, scaling="geometric", s=s)
    return construct_product(build_h0(spec), build_scaling(spec))


def regula_falsi(h, pump, tol=DEFAULT):
    """Reference search: bracket doubling and Illinois regula falsi on the
    dense max Im eigvals of M, with no Newton proposals."""
    f = lambda g: np.linalg.eigvals(pumped_hamiltonian(h, pump, g)).imag.max()
    ftol = tol.threshold_imag * pump.kappa0
    lo, f_lo, hi = 0.0, f(0.0), pump.kappa0
    f_hi = f(hi)
    while f_hi < 0 and abs(f_hi) > ftol:
        lo, f_lo, hi = hi, f_hi, 2 * hi
        f_hi = f(hi)
    g, f_g, side = hi, f_hi, 0
    while abs(f_g) > ftol:
        g = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        if not lo < g < hi:
            g = 0.5 * (lo + hi)
        f_g = f(g)
        if f_g < 0:
            f_hi = 0.5 * f_hi if side < 0 else f_hi
            lo, f_lo, side = g, f_g, -1
        else:
            f_lo = 0.5 * f_lo if side > 0 else f_lo
            hi, f_hi, side = g, f_g, 1
    return g, (lo, hi)


def test_continued_order_matches_a_per_point_overlap_tracker(chain9):
    # every step of the 33-point track up to the threshold, against
    # np.linalg.eig of T at each point matched by maximal overlap: same
    # order, same values
    _, _, _, h, hpp = chain9
    cases = [(m, PumpSpec(kappa0=k0, pumped_sites=(1,)))
             for m in (h, hpp) for k0 in (0.02, 1.0)] + bench_cases()
    for m, pump in cases:
        traj = track_mode(m, pump, np.linspace(0.0, find_threshold(m, pump).threshold, 33))
        ref = dense_track(symmetric_form(m), pump, traj.gammas)
        norm = np.linalg.norm(symmetric_form(m), 2)
        assert np.abs(traj.eigenvalues - ref).max() <= 1e-12 * norm
        grid = np.linspace(0.0, 2 * traj.gammas[-1], 41)
        got = track_mode(m, pump, grid).eigenvalues
        assert np.abs(got - dense_track(symmetric_form(m), pump, grid)).max() <= 1e-12 * norm


def pinned_threshold(m, kappa0):
    """gamma0 = rho_1 of the chiral pinned mode (zero onsite): rho_n = kappa0,
    rho_k = kappa0 + b_k^2 / rho_{k+1}, b_k^2 = m[k, k+1] m[k+1, k], in exact
    rational arithmetic."""
    k0 = rho = Fraction(kappa0)
    for k in range(len(m) - 2, -1, -1):
        rho = k0 + Fraction(m[k, k + 1].real) * Fraction(m[k + 1, k].real) / rho
    return float(rho)


@pytest.mark.parametrize("n", [9, 41])
def test_pinned_chiral_threshold_matches_the_exact_continued_fraction(calibration, n):
    # the paper's chains at its s: at n = 41 M's dense max Im w has a noise
    # floor eps*||H|| ~ 3.6e-6, far above the 2e-11 stop test, so only the
    # exact recurrence can judge the threshold
    spec = LatticeSpec(n=n, t=1.0, scaling="geometric", s=calibration["s"])
    h0, a = build_h0(spec), build_scaling(spec)
    for m in (construct_product(h0, a), construct_gauge(h0, a)):
        for k0 in (0.02, 1.0):
            got = find_threshold(m, PumpSpec(kappa0=k0, pumped_sites=(1,))).threshold
            assert got == pytest.approx(pinned_threshold(m, k0), rel=n * np.finfo(float).eps)
    if n == 41:
        h = construct_product(h0, a)
        for k0, ratio in ((0.02, 1.4480428701), (1.0, 1.3565483678)):
            got = find_threshold(h, PumpSpec(kappa0=k0, pumped_sites=(1,))).threshold
            assert got / k0 == pytest.approx(ratio, abs=1e-10)


@pytest.mark.parametrize("n, exact", [(9, Fraction(55, 34)), (10, Fraction(89, 55))])
def test_uniform_chain_threshold_at_kappa0_t_is_a_fibonacci_ratio(n, exact):
    got = find_threshold(build_h0(LatticeSpec(n=n)).astype(complex),
                         PumpSpec(kappa0=1.0, pumped_sites=(1,))).threshold
    assert abs(got - float(exact)) <= 2 * np.spacing(float(exact))


def test_three_site_chain_pumped_in_the_middle_crosses_at_two_kappa0():
    # G_22(z) = z / (2 - z^2): Re G_22 vanishes at w = 0, where gamma = 2/kappa0
    # + kappa0 (the zero mode (1, 0, -1) has no pumped weight and never
    # crosses), and at w = +-sqrt(2 - kappa0^2), where gamma = 2 kappa0
    h = build_h0(LatticeSpec(n=3)).astype(complex)
    for k0 in (0.02, 0.1, 1.0):
        pump = PumpSpec(kappa0=k0, pumped_sites=(2,))
        res = find_threshold(h, pump)
        assert res.threshold == pytest.approx(2 * k0, rel=4 * np.finfo(float).eps)
        w = np.linalg.eigvals(pumped_hamiltonian(h, pump, res.threshold))
        assert abs(w.imag.max()) <= DEFAULT.threshold_imag * k0
        assert np.linalg.eigvals(pumped_hamiltonian(h, pump, res.bracket[0])).imag.max() < 0


def test_chain_whose_poles_coincide_in_floating_point_crosses_at_kappa0():
    # couplings of 1e-20 on a uniform onsite 1 leave eigh_tridiagonal's
    # eigenvalues all equal to 1.0, so the crossing search has no interval to
    # cut; the mode is all but confined to the pumped site, so gamma* = kappa0
    for n in (2, 3):
        h = (np.eye(n) + 1e-20 * (np.eye(n, k=1) + np.eye(n, k=-1))).astype(complex)
        pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
        res = find_threshold(h, pump)
        assert res.threshold == pytest.approx(0.02, rel=4 * np.finfo(float).eps)
        assert_dense_oracle(h, pump, res)


@pytest.mark.parametrize("b, c, top, ulps, ratio", [
    # the two least crossings merge at w ~ -2.0352, gamma ~ 3.2059893 kappa0,
    # as kappa0 rises to top; the next root is at ~3.5 kappa0
    ([1.2, 1.7, 0.85], [-0.9, -0.2, -0.6, -0.8], 0.7625762239408224, 40, 3.2059893),
    # two crossings above the least one, 2.3306490404 kappa0, merge at top - 100 ulps
    ([1.6, 1.8], [0.6, -0.1, -0.7], 0.2774624217928009, 200, 2.3306490404)])
def test_crossings_about_to_merge_are_not_lost(b, c, top, ulps, ratio):
    # pumped at site 3, kappa0 within ulps below top: round-off makes the
    # merging pair's double root of Q_p a real or a complex pair, and Newton
    # from it must neither drop it nor wander off and fail the certificate
    h = (np.diag(c) + np.diag(b, 1) + np.diag(b, -1)).astype(complex)
    k0 = top
    for _ in range(ulps):
        res = find_threshold(h, PumpSpec(kappa0=k0, pumped_sites=(3,)))
        assert res.threshold / k0 == pytest.approx(ratio, rel=1e-6)
        k0 = np.nextafter(k0, 0.0)


def test_unresolved_chain_search_names_the_noise_floor(calibration):
    # at n = 61 on the paper's s, eps*||Q_p|| ~ 0.49 is far above kappa0 / 6:
    # the real spectrum of Q_p cannot be trusted, so the search refuses
    h = calibrated_product(61, calibration["s"])
    for k0 in (0.02, 1.0):
        with pytest.raises(NoThresholdError) as err:
            find_threshold(h, PumpSpec(kappa0=k0, pumped_sites=(1,)))
        assert str(err.value) == "n = 61: noise floor eps*||Q_p|| = 4.944e-01 >= kappa0 / 6"


def fuzz_chain(seed):
    """A chain of the deep-pump family: n = 28-30, couplings in [0.5, 2],
    onsite in [-2, 2], kappa0 log-uniform in [1e-3, 10^0.5], pumped at one of
    sites 25-28."""
    rng = np.random.default_rng([7, seed])
    n = int(rng.integers(28, 31))
    b, c = rng.uniform(0.5, 2.0, n - 1), rng.uniform(-2.0, 2.0, n)
    p, k0 = int(rng.integers(25, 29)), float(10 ** rng.uniform(-3, 0.5))
    return np.diag(c) + np.diag(b, 1) + np.diag(b, -1), PumpSpec(kappa0=k0, pumped_sites=(p,))


# the seeds of fuzz_chain(0..2999) whose threshold mode is below 1e-12 of its
# norm at site 1 (142 chains, which a psi_1 = 1 normalization cannot return)
VANISHING_SEEDS = (
    42, 63, 64, 68, 101, 106, 124, 161, 168, 169, 174, 207, 210, 216, 219, 236, 243, 307, 310,
    312, 368, 370, 415, 469, 484, 492, 578, 663, 695, 756, 813, 896, 918, 1004, 1010, 1064,
    1077, 1080, 1085, 1090, 1092, 1108, 1137, 1143, 1161, 1162, 1186, 1207, 1220, 1253, 1303,
    1310, 1319, 1323, 1371, 1399, 1417, 1435, 1443, 1467, 1477, 1502, 1535, 1547, 1559, 1571,
    1597, 1598, 1599, 1601, 1608, 1614, 1631, 1639, 1643, 1660, 1670, 1677, 1688, 1712, 1735,
    1746, 1784, 1804, 1827, 1828, 1884, 1918, 1935, 1953, 1983, 2020, 2027, 2028, 2097, 2101,
    2102, 2120, 2129, 2145, 2154, 2171, 2176, 2186, 2195, 2249, 2252, 2269, 2270, 2275, 2276,
    2357, 2363, 2368, 2375, 2477, 2511, 2524, 2536, 2561, 2569, 2575, 2579, 2600, 2628, 2629,
    2635, 2642, 2649, 2684, 2685, 2695, 2702, 2757, 2794, 2804, 2826, 2842, 2876, 2901, 2921,
    2973)


def assert_dense_oracle(h, pump, res, tol=DEFAULT):
    """M's dense oracle at gamma*: its top eigenvalue within threshold_imag *
    kappa0 of the axis, the mode 1 at its pumped site p, and ||M psi - w psi||
    within residual_rel * ||M||_2 ||psi|| for the eigenvalue w nearest (M psi)_p,
    which must be within threshold_imag * kappa0 of the axis too: either of a
    chiral chain's tied pair +-w, whose order by Im w round-off decides."""
    m, psi = pumped_hamiltonian(h, pump, res.threshold), res.threshold_mode
    p = pump.pumped_sites[0] - 1
    w = np.linalg.eigvals(m)
    assert abs(w.imag.max()) <= tol.threshold_imag * pump.kappa0
    assert psi[p] == 1.0
    w = w[np.abs(w - (m @ psi)[p]).argmin()]
    assert abs(w.imag) <= tol.threshold_imag * pump.kappa0
    assert (np.linalg.norm(m @ psi - w * psi)
            <= tol.residual_rel * np.linalg.norm(m, 2) * np.linalg.norm(psi))


def test_threshold_mode_that_vanishes_at_site_1_is_one_at_its_pumped_site():
    # seed 68 of the family (n = 29): a certified crossing pumped at site 28
    # whose mode decays to ~4e-13 of its norm at site 1
    h, pump = fuzz_chain(68)
    assert pump.pumped_sites == (28,)
    res = find_threshold(h, pump)
    assert f"{res.threshold:.6g}" == "0.412839"
    assert abs(res.threshold_mode[0]) < 1e-12 * np.linalg.norm(res.threshold_mode)
    assert_dense_oracle(h, pump, res)


def test_every_chain_whose_mode_vanishes_at_site_1_returns_its_threshold():
    for seed in VANISHING_SEEDS:
        h, pump = fuzz_chain(seed)
        res = find_threshold(h, pump)
        assert abs(res.threshold_mode[0]) < 1e-11 * np.linalg.norm(res.threshold_mode), seed
        assert_dense_oracle(h, pump, res)


def test_chain_search_takes_no_dense_solve_and_passes_the_dense_oracle(monkeypatch):
    # every tenth chain of the deep-pump family, and the threshold benchmark's
    # n = 101 chains pumped at site n
    cases = [fuzz_chain(seed) for seed in range(0, 3000, 10)] + [
        (m, PumpSpec(kappa0=k0, pumped_sites=(101,))) for m in skin_chains(101)
        for k0 in (0.02, 1.0)]
    counter = Counter(monkeypatch)
    for h, pump in cases:
        solves = counter.solves
        res = find_threshold(h, pump)
        assert counter.solves == solves
        assert_dense_oracle(h, pump, res)


def test_tied_crossings_of_a_chiral_chain_return_the_least_w():
    # the uniform n = 10 chain pumped at site 1 is chiral, so its crossings
    # come in pairs +-w of one gamma: at kappa0 = 0.02 the least gamma is
    # such a pair, and the search returns its w < 0 whichever of the pair
    # round-off favours; at kappa0 = 1 it is the single crossing at w = 0
    h = build_h0(LatticeSpec(n=10)).astype(complex)
    for k0, expect in ((0.02, -0.28435284944751), (1.0, 0.0)):
        pump = PumpSpec(kappa0=k0, pumped_sites=(1,))
        res = find_threshold(h, pump)
        m = pumped_hamiltonian(h, pump, res.threshold)
        w = (m @ res.threshold_mode)[0]                 # psi_1 = 1
        assert w == pytest.approx(expect, abs=1e-12)
        assert np.abs(np.linalg.eigvals(m) + w.conjugate()).min() <= 1e-12   # its partner


@st.composite
def enclosure_cases(draw):
    """(lam, c, k0, tn, a, b): poles, weights >= 0 (some 0 or tiny), a loss, a
    bound tn >= |lam| and a cell [a, b] inside one cell of the search's cuts
    of [lam_1, lam_n] (the poles, their midpoints, lam +- k0 and lam +-
    sqrt(3) k0), on which every term of f, f' and g is monotone."""
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lam = np.sort(rng.uniform(-1.0, 1.0, n)) * 10 ** draw(st.floats(-2.0, 3.0))
    c = rng.uniform(0.0, 1.0, n) ** draw(st.sampled_from([1, 8]))
    c[rng.integers(n)] *= draw(st.sampled_from([0.0, 1e-12, 1.0]))
    k0 = 10 ** draw(st.floats(-3.0, 1.0))
    tn = np.abs(lam).max() * draw(st.sampled_from([1.0, 3.0]))
    cuts = np.concatenate([lam, (lam[1:] + lam[:-1]) / 2]
                          + [lam + s * k0 for s in (-3 ** 0.5, -1.0, 1.0, 3 ** 0.5)])
    cuts = np.unique(cuts[(lam[0] <= cuts) & (cuts <= lam[-1])])
    i = draw(st.integers(0, len(cuts) - 2))
    t = np.sort([draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)) for _ in range(2)])
    a, b = np.clip(cuts[i] + t * (cuts[i + 1] - cuts[i]), cuts[i], cuts[i + 1])
    return lam, c, k0, tn, a, b


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=enclosure_cases())
def test_cell_enclosures_hold_every_sampled_value(case):
    # the completeness of the crossing search rests on this: at 64 points of
    # the cell, f = Re G_pp, f' and g / kappa0 in extended precision lie
    # within the enclosures, slacks included
    lam, c, k0, tn, a, b = case
    fa, fb, *bounds = _enclose(lam, c, k0, tn, np.array([a]), np.array([b]))
    x = lam.astype(np.longdouble) - np.linspace(a, b, 64).astype(np.longdouble)[:, None]
    q = 1 / (x * x + np.longdouble(k0) ** 2)
    for (lo, hi), value in zip(bounds, (c * x * q, c * (x * x - np.longdouble(k0) ** 2) * q * q,
                                        c * q)):
        value = value.sum(axis=1)
        assert np.all((lo <= value) & (value <= hi)), (lo, hi, value.min(), value.max())


def test_polish_stops_on_the_rounding_bound_or_its_step_budget(monkeypatch):
    # seed 9: the continued fraction's rounding keeps |Re R_p| above the
    # 4 eps (s + |w phi^T phi|) stop, so the polish runs out its budget:
    # _POLISH_STEPS + 1 evaluations of _green and one more for the mode; the
    # bench chains stop on the 4 eps test after at most 2 evaluations
    calls = []
    monkeypatch.setattr(laser, "_green", lambda *a: calls.append(1) or _green(*a))
    h, pump = fuzz_chain(9)
    res = find_threshold(h, pump)
    assert len(calls) <= laser._POLISH_STEPS + 2
    assert res.threshold == pytest.approx(regula_falsi(h, pump)[0], rel=1e-9)
    for m, bench_pump in bench_cases():
        calls.clear()
        find_threshold(m, bench_pump)
        assert len(calls) <= 3


@st.composite
def random_chains(draw):
    """(matrix, pump): a real chain with couplings in [0.5, 2], onsite in
    [-2, 2], kappa0 in [0.05, 2] and one pumped site anywhere in 1..n."""
    n = draw(st.integers(2, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    off = rng.uniform(0.5, 2.0, n - 1)
    m = np.diag(rng.uniform(-2.0, 2.0, n)) + np.diag(off, 1) + np.diag(off, -1)
    kappa0 = draw(st.floats(0.05, 2.0))
    return m.astype(complex), PumpSpec(kappa0=kappa0, pumped_sites=(draw(st.integers(1, n)),))


def bordered_matrix(form, p, kappa0):
    """Q_p = [[T0, -kappa0], [kappa0, T0]] without row and column p.

    Lemma: for real w, Re G_pp(w + i kappa0) = 0 iff det(Q_p - w) = 0,
    multiplicities included.  Re G_pp = e^T D^-1 e / 2 with D = diag(T0 - z,
    T0 - conj z), e = (e_p; e_p); J = [[I, I], [I, -I]] / sqrt 2 = J^-1 gives
    J D J = [[T0 - w, -i kappa0], [-i kappa0, T0 - w]] and J e = sqrt 2 (e_p;
    0), and diag(I, i) J D J diag(I, -i) = Q - w keeps the (p, p) entry of the
    inverse.  By Cramer's rule Re G_pp = det(Q_p - w) / det(Q - w), and
    det(Q - w) = det D = |det(T0 - z)|^2 > 0."""
    n = len(form.diag)
    t0 = np.diag(form.diag) + np.diag(form.off, 1) + np.diag(form.off, -1)
    q = np.block([[t0, -kappa0 * np.eye(n)], [kappa0 * np.eye(n), t0]])
    return np.delete(np.delete(q, p, axis=0), p, axis=1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=random_chains())
def test_chain_threshold_matches_the_green_function_and_the_dense_search(case):
    m, pump = case
    p, k0, form = pump.pumped_sites[0] - 1, pump.kappa0, chain_form(m)
    seen, eigvals = [], np.linalg.eigvals
    with pytest.MonkeyPatch.context() as patch:   # the search takes no eigvals
        patch.setattr(np.linalg, "eigvals", lambda a: seen.append(a) or eigvals(a))
        res = find_threshold(m, pump)
    assert seen == []
    # the real eigenvalues of Q_p (the Lemma's roots) are the sign changes of
    # Re G_pp on a grid of step kappa0 / 400 across Q_p's spectrum
    mu = eigvals(bordered_matrix(form, p, k0))
    roots = np.sort(mu.real[mu.imag == 0])
    edge = np.abs(mu).max() + 1.0
    grid = np.arange(-edge, edge, k0 / 400)
    re_g = (1.0 / _green(form.diag, form.off, p, grid + 1j * k0)[0]).real
    cells = np.flatnonzero(np.sign(re_g[:-1]) != np.sign(re_g[1:]))
    assert len(cells) == len(roots)
    assert np.all((grid[cells] <= roots) & (roots <= grid[cells + 1]))
    # the threshold is the least gamma = -Im R_p over those roots, and it
    # matches the dense regula falsi and is below the axis at lo
    gammas = -_green(form.diag, form.off, p, roots + 1j * k0)[0].imag
    assert res.threshold == pytest.approx(gammas.min(), rel=1e-9)
    assert res.threshold == pytest.approx(regula_falsi(m, pump)[0], rel=1e-9)
    assert eigvals(pumped_hamiltonian(m, pump, res.bracket[0])).imag.max() < 0


def test_swap_guard_refuses_a_step_that_reorders_modes(chain9):
    # exact modes at gamma = 0 with two eigenvalue labels swapped: Newton takes
    # each mode back to its own pole's root and every residual certifies,
    # but each swapped prediction is nearest the other's root, so the step
    # returns the roots without their order (left to the overlap match)
    _, _, _, h, _ = chain9
    pump = PumpSpec(kappa0=0.02, pumped_sites=(1,))
    chain = _PumpedChain(h, pump, DEFAULT)
    w, v = chain.solve(0.0)
    mu, slope = chain.seed(w, v)
    moved = chain.step(w, mu, slope, 0.0, 1e-9)
    assert moved[2]
    swapped = w[[1, 0] + list(range(2, len(w)))]
    unordered = chain.step(swapped, mu, slope, 0.0, 1e-9)
    assert not unordered[2]
    assert np.array_equal(np.sort_complex(unordered[0]), np.sort_complex(moved[0]))


@st.composite
def separation_cases(draw):
    """(w, guess, limit): points with repeated real parts, conjugate pairs,
    near-ties and NaN, each prediction moved a fraction t of the way to
    another point, t up to and around one half."""
    n = draw(st.integers(1, 10))
    parts = st.sampled_from([-1.0, 0.0, 0.3, 1.0, 1e-300]) | st.floats(-3.0, 3.0)
    w = (np.array(draw(st.lists(parts, min_size=n, max_size=n)))
         + 1j * np.array(draw(st.lists(parts, min_size=n, max_size=n))))
    if n >= 2 and draw(st.booleans()):
        w[1] = w[0].conjugate()
    if n >= 2 and draw(st.booleans()):
        w[-1] = np.nextafter(w[-2].real, np.inf) + 1j * w[-2].imag
    if draw(st.integers(0, 9)) == 0:
        w[draw(st.integers(0, n - 1))] = np.nan
    toward = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    near_half = st.sampled_from([0.0, 0.25, 0.5 - 1e-15, 0.5 - 2e-16, 0.5, 0.7])
    t = np.array(draw(st.lists(near_half | st.floats(0.0, 1.0), min_size=n, max_size=n)))
    return w, w + t * (w[toward] - w), draw(st.sampled_from([0.0, 1e-12, 1e-3, 0.1]))


def pairwise(w, guess, limit):
    """The n x n test: every |w_i - w_j| > limit, each guess_i nearest w_i."""
    n = len(w)
    return bool(np.abs(w[:, None] - w)[~np.eye(n, dtype=bool)].min(initial=np.inf) > limit
                and np.array_equal(np.abs(guess[:, None] - w).argmin(axis=1), np.arange(n)))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=separation_cases())
def test_gap_bound_never_passes_where_the_pairwise_test_fails(case):
    # the bound on the sorted real parts decides first and the n x n test only
    # where it does not, so a bound that passed where the n x n test fails
    # would make the verdict differ from the n x n test alone
    w, guess, limit = case
    assert laser._separated(w, guess, limit) == pairwise(w, guess, limit)
    assert laser._separated(w, None, limit) == pairwise(w, w, limit)   # the gaps alone


def test_gap_bound_decides_clear_cases_without_the_pairwise_test():
    # (w, guess, limit, verdict, decided by the bound): half the least gap, a
    # gap at the limit, a conjugate pair (equal real parts) and a NaN are not
    pts = np.array([0.0, 1.0, 3.0]) - 0.02j
    pair = np.array([1 + 1j, 1 - 1j])
    for w, guess, limit, verdict, bound in [
            (pts, pts + 0.4, 0.5, True, True), (pts, pts + 0.5, 0.5, True, False),
            (pts, pts + 0.4, 1.0, False, False), (pair, pair, 0.0, True, False),
            (np.array([0.0, np.nan]), np.array([0.0, 1.0]), 0.0, False, False)]:
        with mock.patch.object(np, "eye", wraps=np.eye) as eye:
            assert laser._separated(w, guess, limit) == verdict
        assert eye.call_count == (0 if bound else 1)


def test_dense_inputs_keep_the_regula_falsi_bits(chain9):
    # inputs without a ChainForm take no Newton proposal: threshold and
    # bracket equal the plain search's, bit for bit, and the threshold mode
    # is M's eigenvector for its eigenvalue of largest Im w there
    _, _, _, h, _ = chain9
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
    u = np.eye(9, dtype=complex)
    u[1:, 1:] = q                                 # fixes the pumped site 1
    for m in (u @ h @ u.conj().T, random_hermitian(rng, 9)):
        assert chain_form(m) is None
        for k0 in (0.02, 1.0):
            pump = PumpSpec(kappa0=k0, pumped_sites=(1,))
            res = find_threshold(m, pump)
            threshold, bracket = regula_falsi(m, pump)
            assert res.threshold == threshold and res.bracket == bracket
            mt = pumped_hamiltonian(m, pump, res.threshold)
            w = np.linalg.eigvals(mt)
            psi = res.threshold_mode
            assert psi[0] == 1.0
            resid = np.linalg.norm(mt @ psi - w[w.imag.argmax()] * psi)
            assert resid <= DEFAULT.residual_rel * np.linalg.norm(mt, 2) * np.linalg.norm(psi)


# ---------------------------------------------------------------------------
# a one-site chain search: no dense solve

def test_chain_search_takes_no_dense_solve_at_zero(monkeypatch, chain9):
    # nor anywhere else: no eig and no eigvals, and its threshold and bracket
    # pass M's dense oracles
    for m, pump in threshold_cases(chain9):
        counter = Counter(monkeypatch)
        res = find_threshold(m, pump)
        assert counter.calls == {"eig": 0, "eigvals": 0}
        at = np.linalg.eigvals(pumped_hamiltonian(m, pump, res.threshold)).imag.max()
        assert abs(at) <= DEFAULT.threshold_imag * pump.kappa0
        lo, hi = res.bracket
        assert 0 <= lo < hi == res.threshold


def test_gamma_zero_shortcut_matches_the_dense_spectrum(chain9):
    # M(0) is similar to T0 - i kappa0 with T0 real symmetric: its dense max
    # Im w is -kappa0 up to round-off, and the bracket's low end, which the
    # search may leave at 0 without solving there, is below the axis
    for m, pump in threshold_cases(chain9):
        m0 = pumped_hamiltonian(m, pump, 0.0)
        noise = len(m) * np.finfo(float).eps * np.linalg.norm(m0, 2)
        assert abs(np.linalg.eigvals(m0).imag.max() + pump.kappa0) <= noise
        lo = find_threshold(m, pump).bracket[0]
        assert np.linalg.eigvals(pumped_hamiltonian(m, pump, lo)).imag.max() < 0
