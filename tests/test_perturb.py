import numpy as np
import pytest

from nhlab.eig import eig_full
from nhlab.laser import PumpSpec, find_threshold, pumped_hamiltonian, track_mode
from nhlab.model import LatticeSpec, build_h0, build_scaling, construct_product
from nhlab.perturb import (DegenerateModeError, SelfOrthogonalModeError,
                           first_order, matrix_elements, nhph_pairs)


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
# matrix elements

def test_rank_one_indicator_structure(passive):
    _, _, es, _ = passive
    hg = matrix_elements(es, (1,))
    outer = np.outer(es.left_vectors[0, :], es.right_vectors[0, :])
    assert np.abs(hg - outer).max() < 1e-12


def test_hermitian_limit_diagonal_elements_nonnegative():
    h0 = build_h0(LatticeSpec(n=9, t=1.0))
    es = eig_full(h0)
    hg = matrix_elements(es, (1,))
    diag = np.diagonal(hg)
    assert np.abs(diag.imag).max() < 1e-10
    assert diag.real.min() > -1e-12


def test_partner_elements_equal(passive):
    # the partner identity holds in the particle-hole phase gauge; the
    # eigensolver's phases are arbitrary, so compare the gauge-invariant
    # magnitude and the bilinear product H_{g,nu 0} H_{g,0 nu}
    _, _, es, zi = passive
    hg = matrix_elements(es, (1,))
    pairing = nhph_pairs(es)
    for nu, nup in pairing.pairs:
        if nu == nup:
            continue
        assert abs(hg[nu, zi]) == pytest.approx(abs(hg[nup, zi]), rel=1e-6)
        assert hg[nu, zi] * hg[zi, nu] == pytest.approx(hg[nup, zi] * hg[zi, nup],
                                                        rel=1e-6)


def test_matrix_elements_refuse_ep_basis():
    spec = LatticeSpec(n=9, t=1.0, scaling="geometric", s=2.0, zeroed_sites=(4,))
    es = eig_full(construct_product(build_h0(spec), build_scaling(spec)))
    with pytest.raises(SelfOrthogonalModeError):
        matrix_elements(es, (1,))


# ---------------------------------------------------------------------------
# first order

def test_zero_gamma_gives_zero_corrections(passive):
    _, _, es, zi = passive
    pred = first_order(es, (1,), 0.0, zi)
    assert pred.energy_correction == 0
    assert np.abs(pred.state_correction).max() == 0


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
    hg = matrix_elements(es, (1,))
    h_fd = 1e-3 * KAPPA0
    tr = track_mode(h, pump, np.array([0.0, h_fd, 2 * h_fd]))
    z = tr.zero_mode_index
    dwdg = (tr.eigenvalues[2, z] - tr.eigenvalues[0, z]) / (2 * h_fd)
    assert abs(dwdg - 1j * hg[zi, zi]) <= 1e-6 * KAPPA0


def test_degenerate_denominator_refused():
    # two decoupled identical dimers: doubly degenerate spectrum
    h = np.zeros((4, 4), dtype=complex)
    h[0, 1] = h[1, 0] = h[2, 3] = h[3, 2] = 1.0
    es = eig_full(h)
    with pytest.raises(DegenerateModeError):
        first_order(es, (1,), 0.01, 0)


# ---------------------------------------------------------------------------
# particle-hole pairing

def test_pairing_counts_on_selective_chain(passive):
    _, _, es, zi = passive
    pairing = nhph_pairs(es)
    assert not pairing.unmatched
    self_pairs = [p for p in pairing.pairs if p[0] == p[1]]
    proper = [p for p in pairing.pairs if p[0] != p[1]]
    assert self_pairs == [(zi, zi)]
    assert len(proper) == 4
    for nu, nup in proper:
        assert es.eigenvalues[nu].real == pytest.approx(-es.eigenvalues[nup].real,
                                                        abs=1e-9)


def test_pairing_hermitian_chain():
    es = eig_full(build_h0(LatticeSpec(n=9, t=1.0)))
    pairing = nhph_pairs(es)
    assert not pairing.unmatched
    assert len([p for p in pairing.pairs if p[0] != p[1]]) == 4


def test_pairing_broken_by_harmonic_potential():
    spec = LatticeSpec(n=9, t=1.0, onsite="harmonic", omega2=0.3)
    es = eig_full(build_h0(spec))
    pairing = nhph_pairs(es)
    assert len(pairing.unmatched) == 9


def test_real_denominators_for_partners(passive):
    _, _, es, zi = passive
    pairing = nhph_pairs(es)
    w = es.eigenvalues
    for nu, nup in pairing.pairs:
        if nu == nup:
            continue
        lhs = w[zi] - w[nu]
        rhs = -(w[zi] - w[nup])
        assert lhs == pytest.approx(rhs, abs=1e-9 * es.matrix_norm)
        assert abs(lhs.imag) <= 1e-8 * es.matrix_norm
