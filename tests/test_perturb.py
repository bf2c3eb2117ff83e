import numpy as np
import pytest

from nhlab.config import DEFAULT
from nhlab.eig import BIORTHONORMAL, eig_full
from nhlab.laser import PumpSpec, find_threshold, pump_indicator, pumped_hamiltonian, track_mode
from nhlab.model import LatticeSpec, build_h0, build_scaling, construct_gauge, construct_product
from nhlab.perturb import (DegenerateModeError, PerturbationPrediction,
                           SelfOrthogonalModeError, first_order, matrix_elements)
from nhlab.spectra import conjugate_pairs


KAPPA0 = 0.02


@pytest.fixture(scope="module")
def passive(chain9):
    """Passive lossy system of the calibrated chain, plus its zero mode."""
    _, _, _, h, _ = chain9
    pump = PumpSpec(kappa0=KAPPA0, pumped_sites=(1,))
    hp = pumped_hamiltonian(h, pump, gamma=0.0)
    es = eig_full(hp)
    zi = int(np.argmin(np.abs(es.eigenvalues.real)))
    return h, pump, es, zi


# ---------------------------------------------------------------------------
# reference oracles: the full-matrix elements and the looped first-order sum

def full_matrix_elements(es, pumped_sites):
    bad = [mu for mu, st in enumerate(es.norm_status) if st != BIORTHONORMAL]
    if bad:
        raise SelfOrthogonalModeError(
            f"modes {bad} are not biorthonormal; the system is at or near an EP")
    p = pump_indicator(pumped_sites, es.dim)
    weighted = es.right_vectors * p[:, None]
    return es.left_vectors.T @ weighted


def looped_first_order(es, pumped_sites, gamma1, mode, tol=DEFAULT):
    hg = full_matrix_elements(es, pumped_sites)
    w = es.eigenvalues
    denoms = w[mode] - np.delete(w, mode)
    if np.abs(denoms).min() < tol.denominator_rel * max(es.matrix_norm, 1e-300):
        raise DegenerateModeError(
            f"mode {mode} is near-degenerate (gap {np.abs(denoms).min():.3e}); "
            "degenerate perturbation theory is not implemented")

    energy = 1j * gamma1 * hg[mode, mode]
    state = np.zeros(es.dim, dtype=complex)
    for nu in range(es.dim):
        if nu == mode:
            continue
        state += hg[nu, mode] / (w[mode] - w[nu]) * es.right(nu)
    state *= 1j * gamma1

    return PerturbationPrediction(base_mode_index=mode, gamma1=float(gamma1),
                                  energy_correction=complex(energy),
                                  state_correction=state)


def lossy_systems(n):
    """Lossy H0 A and A^-1 H0 A of a geometric chain with s^(n-1) = 1e4."""
    spec = LatticeSpec(n=n, t=1.0, scaling="geometric", s=1e4 ** (1 / (n - 1)))
    h0, a = build_h0(spec), build_scaling(spec)
    pump = PumpSpec(kappa0=KAPPA0, pumped_sites=(1,))
    return {label: eig_full(pumped_hamiltonian(m, pump, gamma=0.0))
            for label, m in (("H0 A", construct_product(h0, a)),
                             ("A^-1 H0 A", construct_gauge(h0, a)))}


@pytest.mark.parametrize("n", [9, 41, 101])
def test_column_path_matches_full_matrix_oracle(n):
    gamma1 = 0.01
    checked = 0
    for label, es in lossy_systems(n).items():
        for sites in ((1,), (1, 3, 5), (n,)):
            hg = full_matrix_elements(es, sites)
            for mu in range(n):
                col = matrix_elements(es, sites, mu)
                assert np.linalg.norm(col - hg[:, mu]) <= 1e-12 * np.linalg.norm(hg[:, mu])
                try:
                    old = looped_first_order(es, sites, gamma1, mu)
                except DegenerateModeError:
                    with pytest.raises(DegenerateModeError):
                        first_order(es, sites, gamma1, mu)
                    continue
                new = first_order(es, sites, gamma1, mu)
                assert new.base_mode_index == mu and new.gamma1 == gamma1
                scale = gamma1 * np.linalg.norm(hg[:, mu])
                assert abs(new.energy_correction - old.energy_correction) <= 1e-12 * scale
                ref = np.linalg.norm(old.state_correction)
                assert (np.linalg.norm(new.state_correction - old.state_correction)
                        <= 1e-12 * ref)
                checked += 1
    assert checked > 0


# ---------------------------------------------------------------------------
# matrix elements

def test_rank_one_indicator_structure(passive):
    _, _, es, _ = passive
    outer = np.outer(es.left_vectors[0, :], es.right_vectors[0, :])
    for mu in range(es.dim):
        assert np.abs(matrix_elements(es, (1,), mu) - outer[:, mu]).max() < 1e-12


def test_hermitian_limit_diagonal_elements_nonnegative():
    h0 = build_h0(LatticeSpec(n=9, t=1.0))
    es = eig_full(h0)
    diag = np.array([matrix_elements(es, (1,), mu)[mu] for mu in range(es.dim)])
    assert np.abs(diag.imag).max() < 1e-10
    assert diag.real.min() > -1e-12


def test_partner_elements_equal(passive):
    # the partner identity holds in the particle-hole phase gauge; the
    # eigensolver's phases are arbitrary, so compare the gauge-invariant
    # magnitude and the bilinear product H_{g,nu 0} H_{g,0 nu}
    _, _, es, zi = passive
    col = matrix_elements(es, (1,), zi)
    pairs, _ = particle_hole_partners(es)
    for nu, nup in pairs:
        if nu == nup:
            continue
        row_nu = matrix_elements(es, (1,), nu)[zi]
        row_nup = matrix_elements(es, (1,), nup)[zi]
        assert abs(col[nu]) == pytest.approx(abs(col[nup]), rel=1e-6)
        assert col[nu] * row_nu == pytest.approx(col[nup] * row_nup, rel=1e-6)


def test_matrix_elements_refuse_ep_basis():
    spec = LatticeSpec(n=9, t=1.0, scaling="geometric", s=2.0, zeroed_sites=(4,))
    es = eig_full(construct_product(build_h0(spec), build_scaling(spec)))
    with pytest.raises(SelfOrthogonalModeError):
        matrix_elements(es, (1,), 0)


@pytest.mark.parametrize("mode", [9, -1, 4.0, "4", True])
def test_mode_outside_range_refused(passive, mode):
    _, _, es, _ = passive
    with pytest.raises(ValueError, match=r"mode .*n = 9"):
        matrix_elements(es, (1,), mode)
    with pytest.raises(ValueError, match=r"mode .*n = 9"):
        first_order(es, (1,), 0.01, mode)


def test_pumped_site_outside_range_refused(passive):
    _, _, es, zi = passive
    with pytest.raises(ValueError, match="pumped site 10"):
        first_order(es, (10,), 0.01, zi)


@pytest.mark.parametrize("site", [1.5, "1", 1.0])
def test_non_integer_pumped_site_refused(passive, site):
    _, _, es, zi = passive
    with pytest.raises(ValueError, match=f"pumped site {site!r} is not an integer"):
        pump_indicator((site,), es.dim)
    with pytest.raises(ValueError, match=f"pumped site {site!r}"):
        matrix_elements(es, (site,), zi)
    with pytest.raises(ValueError, match=f"pumped site {site!r}"):
        first_order(es, (site,), 0.01, zi)


def test_indicator_accepts_numpy_integer_sites():
    assert pump_indicator(np.array([1, 3]), 4).tolist() == [1.0, 0.0, 1.0, 0.0]


# ---------------------------------------------------------------------------
# first order

def test_one_mode_system_has_zero_state_correction():
    es = eig_full(np.array([[0.5 + 0j]]))
    pred = first_order(es, (1,), 0.1, 0)
    assert pred.energy_correction == 1j * 0.1 * (es.left(0) @ es.right(0))
    assert pred.state_correction.tolist() == [0j]


def test_zero_gamma_gives_zero_corrections(passive):
    _, _, es, zi = passive
    pred = first_order(es, (1,), 0.0, zi)
    assert pred.energy_correction == 0
    assert np.abs(pred.state_correction).max() == 0


@pytest.mark.parametrize("gamma1", [np.nan, np.inf, -np.inf])
def test_non_finite_gamma_refused(passive, gamma1):
    _, _, es, zi = passive
    with pytest.raises(ValueError, match="gamma1"):
        first_order(es, (1,), gamma1, zi)


def test_zero_mode_energy_correction_imaginary(passive):
    _, _, es, zi = passive
    pred = first_order(es, (1,), 0.01, zi)
    assert abs(pred.energy_correction.real) <= 1e-10 * abs(pred.energy_correction)


def test_zero_mode_state_correction_even_sites_only(passive):
    _, _, es, zi = passive
    pred = first_order(es, (1,), 0.01, zi)
    corr = pred.state_correction
    assert np.abs(corr[0::2]).max() <= 1e-10 * np.linalg.norm(corr)
    assert np.abs(corr[1::2]).max() > 0


def test_prediction_matches_exact_mode_quadratically(passive):
    h, pump, es, zi = passive
    d = find_threshold(h, pump).threshold
    resids = []
    gammas = [d / 4, d / 2, d]
    for g1 in gammas:
        pred = first_order(es, (1,), g1, zi)
        wa, va = np.linalg.eig(pumped_hamiltonian(h, pump, g1))
        exact = va[:, int(np.argmin(np.abs(wa.real)))]
        exact = exact / (es.left(zi) @ exact)
        resids.append(np.linalg.norm(exact - es.right(zi) - pred.state_correction))
    slope = np.polyfit(np.log(gammas), np.log(resids), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.3)


def test_energy_slope_matches_tracked_derivative(passive):
    h, pump, es, zi = passive
    h_zz = matrix_elements(es, (1,), zi)[zi]
    h_fd = 1e-3 * KAPPA0
    tr = track_mode(h, pump, np.array([0.0, h_fd, 2 * h_fd]))
    z = tr.zero_mode_index
    dwdg = (tr.eigenvalues[2, z] - tr.eigenvalues[0, z]) / (2 * h_fd)
    assert abs(dwdg - 1j * h_zz) <= 1e-6 * KAPPA0


def test_degenerate_denominator_refused():
    # two decoupled identical dimers: doubly degenerate spectrum
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = h[1, 0] = h[2, 3] = h[3, 2] = 1.0
    es = eig_full(h)
    with pytest.raises(DegenerateModeError):
        first_order(es, (1,), 0.01, 0)


# ---------------------------------------------------------------------------
# particle-hole pairing: w_nu' = -conj(w_nu) is the conjugate pairing of i*w

def particle_hole_partners(es):
    """Split ``conjugate_pairs(1j * w)`` into accepted partner pairs and the
    modes left unmatched: a pair is accepted when its eigenvalue residual is
    at most 1e-8 ||H|| and the sublattice-sign-flipped wave function matches
    the partner's to 1e-6 at the optimal relative phase."""
    pairs, resid = conjugate_pairs(1j * es.eigenvalues)
    sign = (-1.0) ** np.arange(es.dim)  # +1 on 1-based odd sites
    accepted, unmatched = [], []
    for (nu, m), r in zip(pairs, resid):
        flipped = sign * es.right(nu)
        flipped = flipped / np.linalg.norm(flipped)
        partner = es.right(m) / np.linalg.norm(es.right(m))
        overlap = np.vdot(flipped, partner)
        phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
        if (r <= 1e-8 * es.matrix_norm
                and np.linalg.norm(partner - phase * flipped) <= 1e-6):
            accepted.append((nu, m))
        else:
            unmatched += sorted({nu, m})
    return accepted, unmatched


def test_particle_hole_cost_is_exact():
    w = np.array([-1.5 + 0.25j, 0.0 - 0.02j, 1.5 + 0.25j, 0.7 - 0.1j])
    pairs, resid = conjugate_pairs(1j * w)
    for (mu, nu), r in zip(pairs, resid):
        assert r == abs(w[mu] + np.conj(w[nu]))
    assert pairs == [(0, 2), (1, 1), (3, 3)]


def test_pairing_counts_on_selective_chain(passive):
    _, _, es, zi = passive
    pairs, unmatched = particle_hole_partners(es)
    assert not unmatched
    self_pairs = [p for p in pairs if p[0] == p[1]]
    proper = [p for p in pairs if p[0] != p[1]]
    assert self_pairs == [(zi, zi)]
    assert len(proper) == 4
    for nu, nup in proper:
        assert es.eigenvalues[nu].real == pytest.approx(-es.eigenvalues[nup].real,
                                                        abs=1e-9)


def test_pairing_hermitian_chain():
    es = eig_full(build_h0(LatticeSpec(n=9, t=1.0)))
    pairs, unmatched = particle_hole_partners(es)
    assert not unmatched
    assert len([p for p in pairs if p[0] != p[1]]) == 4


def test_pairing_broken_by_harmonic_potential():
    spec = LatticeSpec(n=9, t=1.0, onsite="harmonic", omega2=0.3)
    es = eig_full(build_h0(spec))
    _, unmatched = particle_hole_partners(es)
    assert len(unmatched) == 9


def test_real_denominators_for_partners(passive):
    _, _, es, zi = passive
    pairs, _ = particle_hole_partners(es)
    w = es.eigenvalues
    for nu, nup in pairs:
        if nu == nup:
            continue
        lhs = w[zi] - w[nu]
        rhs = -(w[zi] - w[nup])
        assert lhs == pytest.approx(rhs, abs=1e-9 * es.matrix_norm)
        assert abs(lhs.imag) <= 1e-8 * es.matrix_norm
