"""First-order perturbation theory in the pump strength.

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

from .config import DEFAULT, Tolerances, _real
from .eig import BIORTHONORMAL, EigenSystem
from .laser import pump_indicator


class DegenerateModeError(RuntimeError):
    """A vanishing denominator: degenerate theory is out of scope."""


class SelfOrthogonalModeError(RuntimeError):
    """Perturbation theory is invalid at an exceptional point."""


def matrix_elements(es: EigenSystem, pumped_sites: tuple[int, ...],
                    mode: int) -> np.ndarray:
    """Pump matrix-element column psi~_nu^T P psi_mode over nu, in the
    biorthonormal basis.

    Raises if any pair is not biorthonormal: an incomplete (EP) basis cannot
    support the expansion.
    """
    if (isinstance(mode, bool) or not isinstance(mode, (int, np.integer))
            or not 0 <= mode < es.dim):
        raise ValueError(f"mode must be an integer in [0, n) with n = {es.dim}; "
                         f"got {mode!r}")
    bad = [mu for mu, st in enumerate(es.norm_status) if st != BIORTHONORMAL]
    if bad:
        raise SelfOrthogonalModeError(
            f"modes {bad} are not biorthonormal; the system is at or near an EP")
    p = pump_indicator(pumped_sites, es.dim)
    return es.left_vectors.T @ (p * es.right_vectors[:, mode])


@dataclass
class PerturbationPrediction:
    """First-order response of one mode to the pump."""

    base_mode_index: int
    gamma1: float
    energy_correction: complex         # i*gamma1*H_{g,mu mu}
    state_correction: np.ndarray       # sum over nu != mu


def first_order(es: EigenSystem, pumped_sites: tuple[int, ...], gamma1: float,
                mode: int, tol: Tolerances = DEFAULT) -> PerturbationPrediction:
    """Energy and state corrections of ``mode`` at pump strength gamma1."""
    gamma1 = _real(gamma1, "gamma1")
    hg = matrix_elements(es, pumped_sites, mode)
    w = es.eigenvalues
    others = np.arange(es.dim) != mode
    denoms = w[mode] - w[others]
    gap = np.abs(denoms).min(initial=np.inf)     # a one-mode system has no other mode
    if gap < tol.denominator_rel * max(es.matrix_norm, 1e-300):
        raise DegenerateModeError(
            f"mode {mode} is near-degenerate (gap {gap:.3e}); "
            "degenerate perturbation theory is not implemented")

    energy = 1j * gamma1 * hg[mode]
    state = 1j * gamma1 * (es.right_vectors[:, others] @ (hg[others] / denoms))
    return PerturbationPrediction(base_mode_index=mode, gamma1=gamma1,
                                  energy_correction=complex(energy),
                                  state_correction=state)
