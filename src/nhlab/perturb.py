"""First-order perturbation theory in the pump strength, with the
particle-hole bookkeeping of bipartite chains.

The pump enters as i*gamma1*P with P the diagonal indicator of the pumped
sites.  In a biorthonormal basis the first-order energy shift of mode mu is
i*gamma1 * psi~_mu^T P psi_mu and the state correction expands over the
remaining modes.  On a zero-onsite chain, modes pair as w_nu = -w_nu'* with
site-alternating wave functions, which cancels the correction on the odd
sublattice for the zero mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances
from .eig import BIORTHONORMAL, EigenSystem
from .laser import pump_indicator


class DegenerateModeError(RuntimeError):
    """A vanishing denominator: degenerate theory is out of scope."""


class SelfOrthogonalModeError(RuntimeError):
    """Perturbation theory is invalid at an exceptional point."""


def matrix_elements(es: EigenSystem, pumped_sites: tuple[int, ...]) -> np.ndarray:
    """Pump matrix elements psi~_nu^T P psi_mu in the biorthonormal basis.

    Raises if any pair is not biorthonormal: an incomplete (EP) basis cannot
    support the expansion.
    """
    bad = [mu for mu, st in enumerate(es.norm_status) if st != BIORTHONORMAL]
    if bad:
        raise SelfOrthogonalModeError(
            f"modes {bad} are not biorthonormal; the system is at or near an EP")
    p = pump_indicator(pumped_sites, es.dim)
    weighted = es.right_vectors * p[:, None]
    return es.left_vectors.T @ weighted


@dataclass
class PerturbationPrediction:
    """First-order response of one mode to the pump."""

    base_mode_index: int
    gamma1: float
    energy_correction: complex         # i*gamma1*H_{g,mu mu}
    state_correction: np.ndarray       # sum over nu != mu

    def to_dict(self) -> dict:
        return {"base_mode_index": self.base_mode_index, "gamma1": self.gamma1,
                "energy_correction": [self.energy_correction.real,
                                      self.energy_correction.imag],
                "state_correction": [[z.real, z.imag] for z in self.state_correction]}


def first_order(es: EigenSystem, pumped_sites: tuple[int, ...], gamma1: float,
                mode: int, tol: Tolerances = DEFAULT) -> PerturbationPrediction:
    """Energy and state corrections of ``mode`` at pump strength gamma1."""
    hg = matrix_elements(es, pumped_sites)
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


@dataclass
class NhphPairing:
    """Particle-hole partner assignment among the modes.

    ``pairs`` holds (nu, nu') with w_nu = -w_nu'* and site-alternating
    partner wave functions; a self-pair (nu, nu) marks a zero mode.
    ``unmatched`` lists modes for which no partner satisfied the tolerances
    (on-site potentials break the symmetry).
    """

    pairs: list[tuple[int, int]]
    residuals: list[float]
    unmatched: list[int]

    def to_dict(self) -> dict:
        return {"pairs": [list(p) for p in self.pairs],
                "residuals": self.residuals, "unmatched": self.unmatched}


def nhph_pairs(es: EigenSystem, tol: Tolerances = DEFAULT) -> NhphPairing:
    """Match every mode with its particle-hole partner (or flag it)."""
    w = es.eigenvalues
    n = es.dim
    norm = max(es.matrix_norm, 1e-300)
    sign = (-1.0) ** np.arange(n)  # +1 on 1-based odd sites

    pairs, residuals, unmatched = [], [], []
    done = np.zeros(n, dtype=bool)
    for nu in range(n):
        if done[nu]:
            continue
        target = -np.conj(w[nu])
        cand = [m for m in range(n) if not done[m]]
        m = min(cand, key=lambda m: abs(w[m] - target))
        if abs(w[m] - target) > tol.nhph_eigen_rel * norm:
            done[nu] = True
            unmatched.append(nu)
            continue
        flipped = sign * es.right(nu)
        flipped = flipped / np.linalg.norm(flipped)
        partner = es.right(m) / np.linalg.norm(es.right(m))
        # residual at the optimal relative phase (alignment by the largest
        # component is ambiguous when magnitudes tie)
        overlap = np.vdot(flipped, partner)
        phase = overlap / abs(overlap) if abs(overlap) > 0 else 1.0
        res = float(np.linalg.norm(partner - phase * flipped))
        if res > tol.nhph_vector:
            done[nu] = True
            unmatched.append(nu)
            continue
        done[nu] = done[m] = True
        pairs.append((nu, m))
        residuals.append(res)
    return NhphPairing(pairs=pairs, residuals=residuals, unmatched=unmatched)
