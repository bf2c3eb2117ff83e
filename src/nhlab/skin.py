"""Mode-localization metrics and the selective vs standard skin effect.

A mode counts as a left skin mode when its center of mass sits in the left
quarter of the chain, its log-profile decays at least half as fast as the
scaling ratio demands, and the log-profile is close to a straight line
(a uniform exponential envelope).  The last condition is what separates the
product construction's bulk modes, whose envelopes peak in the interior,
from genuinely exponentially localized modes; its threshold lives in
``Tolerances.envelope_rms``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULT, Tolerances, _real
from .eig import EigenSystem, collinearity_residual

ODD_SITES = "odd_sites"
EVEN_SITES = "even_sites"
MIXED = "mixed"

SKIN_LEFT = "skin_left"
SKIN_RIGHT = "skin_right"
BULK = "bulk"


class NoZeroModeError(RuntimeError):
    """The spectrum has no eigenvalue with Re w = 0 (even chain length?)."""


@dataclass
class ModeReport:
    """Localization metrics and skin/bulk classification of one mode."""

    mode_index: int
    eigenvalue: complex
    ipr: float              # sum |psi|^4 / (sum |psi|^2)^2, in [1/n, 1]
    com: float              # center of mass, 1-based, in [1, n]
    decay_rate: float       # least-squares slope of ln|psi_j| vs j
    fit_rms: float          # RMS deviation of ln|psi_j| from the fitted line
    support_parity: str     # odd_sites | even_sites | mixed
    classification: str     # skin_left | skin_right | bulk


def _metrics(mags: np.ndarray, tol: Tolerances) -> tuple[np.ndarray, ...]:
    """ipr, com, decay_rate, fit_rms and support parity of each row of |psi|.

    The decay rate is the least-squares slope of ln|psi_j| against the 1-based
    site j, fitted in closed form over the mode's support parity (odd or even
    sublattice when the other one is dark), skipping sites below
    ``profile_floor`` times the row's max amplitude.
    """
    amax = mags.max(axis=1)
    if not amax.all():
        raise ValueError("zero vector has no profile")
    j = np.arange(1.0, mags.shape[1] + 1.0)
    p = mags ** 2
    norm2 = p.sum(axis=1)
    ipr = (mags ** 4).sum(axis=1) / norm2 ** 2
    com = (j * p).sum(axis=1) / norm2

    odd_dark = mags[:, 0::2].max(axis=1) <= tol.parity_rel * amax
    even_dark = mags[:, 1::2].max(axis=1, initial=0.0) <= tol.parity_rel * amax
    parity = np.where(even_dark, ODD_SITES, np.where(odd_dark, EVEN_SITES, MIXED))
    odd_site = j % 2 == 1
    mask = (np.where(even_dark[:, None], odd_site,
                     np.where(odd_dark[:, None], ~odd_site, True))
            & (mags > tol.profile_floor * amax[:, None]))

    k = mask.sum(axis=1)
    y = np.log(np.where(mask, mags, 1.0))
    jc = np.where(mask, j - (mask @ j / k)[:, None], 0.0)
    yc = np.where(mask, y - (y.sum(axis=1) / k)[:, None], 0.0)
    sxx = (jc * jc).sum(axis=1)
    slope = np.divide((jc * yc).sum(axis=1), sxx, out=np.zeros_like(sxx), where=k >= 2)
    fit_rms = np.sqrt(((yc - slope[:, None] * jc) ** 2).sum(axis=1) / k)
    return ipr, com, slope, fit_rms, parity


def _ratio(s) -> float:
    """The one rule for a skin ratio s: a finite real (``config._real``) that is positive."""
    s = _real(s, "skin ratio s =")
    if not s > 0:
        raise ValueError(f"skin ratio s must be positive, got s = {s!r}")
    return s


def mode_reports(es: EigenSystem, s: float, tol: Tolerances = DEFAULT) -> list[ModeReport]:
    """Profile and classify every mode of ``es`` for a chain scaled by ratio s."""
    s = _ratio(s)
    ipr, com, decay, rms, parity = _metrics(
        np.ascontiguousarray(np.abs(es.right_vectors).T), tol)
    n, half_rate = es.dim, np.log(s) / 2.0
    envelope = rms <= tol.envelope_rms
    left = (com < tol.com_fraction * n) & (decay <= -half_rate + tol.decay_margin) & envelope
    right = ((com > (1.0 - tol.com_fraction) * n) & (decay >= half_rate - tol.decay_margin)
             & envelope)
    calls = np.where(left, SKIN_LEFT, np.where(right, SKIN_RIGHT, BULK))
    columns = zip(es.eigenvalues.tolist(), ipr.tolist(), com.tolist(), decay.tolist(),
                  rms.tolist(), parity.tolist(), calls.tolist())
    return [ModeReport(mu, complex(w), *row) for mu, (w, *row) in enumerate(columns)]


def find_zero_mode(es: EigenSystem, tol: Tolerances = DEFAULT) -> int:
    """Index of the frequency-pinned mode, Re w = 0; raises NoZeroModeError if absent.

    Uniform loss shifts every eigenvalue by the same -i*kappa0, so the rule
    on Re w finds the zero mode of a lossless chain and of a lossy one alike.
    """
    idx = int(np.argmin(np.abs(es.eigenvalues.real)))
    if abs(es.eigenvalues[idx].real) > tol.zero_mode_rel * max(es.matrix_norm, 1e-300):
        raise NoZeroModeError(
            f"no zero mode: closest eigenvalue {es.eigenvalues[idx]:.3e} "
            "(even site count has none)")
    return idx


def geometric_envelope(reference: np.ndarray, s: float) -> np.ndarray:
    """reference_j * s^-(j-1): the skin-mode image of a reference profile, or
    of each column of a block of them."""
    scale = _ratio(s) ** (-np.arange(len(reference), dtype=float))
    return (np.asarray(reference).T * scale).T


@dataclass
class SkinReport:
    zero_mode_index: int
    envelope_residual: float            # zero mode vs reference * s^-(j-1)
    left_zero_residual: float           # left zero-eigenvector vs its prediction
    left_zero_com: float
    classifications: list[ModeReport]
    passed: bool


def _zero_mode_core(system: EigenSystem, h0_system: EigenSystem, s: float,
                    tol: Tolerances) -> tuple[list[ModeReport], int, int, float, str]:
    """What both verdicts share: the mode reports, the zero modes of H and H0,
    the left zero-eigenvector's center of mass and the zero mode's expected class."""
    if system.dim != h0_system.dim:
        raise ValueError(f"eigensystems differ in size: {system.dim} vs {h0_system.dim} (H0)")
    zi, zi0 = find_zero_mode(system, tol), find_zero_mode(h0_system, tol)
    reports = mode_reports(system, s, tol)
    lcom = float(_metrics(np.abs(system.left(zi))[None, :], tol)[1][0])
    return reports, zi, zi0, lcom, SKIN_LEFT if s > 1 else BULK if s == 1 else SKIN_RIGHT


def verify_selective_skin(h_system: EigenSystem, h0_system: EigenSystem, s: float,
                          tol: Tolerances = DEFAULT) -> SkinReport:
    """Selective skin effect: only the zero mode localizes.

    Asserts (i) the zero mode of H equals the H0 zero mode times s^-(j-1),
    (ii) every nonzero mode classifies as bulk, (iii) the left zero-
    eigenvector of H is extended, equal to the H0 zero mode.
    """
    reports, zi, zi0, lcom, want = _zero_mode_core(h_system, h0_system, s, tol)
    ref = h0_system.right(zi0)
    env_res = collinearity_residual(h_system.right(zi), geometric_envelope(ref, s))
    left_res = collinearity_residual(h_system.left(zi), ref)
    nonzero_bulk = all(r.classification == BULK
                       for r in reports if r.mode_index != zi)

    passed = (env_res <= tol.zero_mode_rel and left_res <= tol.zero_mode_rel
              and nonzero_bulk and reports[zi].classification == want)
    return SkinReport(zero_mode_index=zi, envelope_residual=float(env_res),
                      left_zero_residual=float(left_res), left_zero_com=lcom,
                      classifications=reports, passed=bool(passed))


@dataclass
class StandardSkinReport:
    envelope_residuals: list[float]     # per mode, vs the matched H0 mode
    left_zero_residual: float           # left zero-eigenvector vs its prediction
    left_zero_com: float
    classifications: list[ModeReport]
    passed: bool


def verify_standard_skin(hpp_system: EigenSystem, h0_system: EigenSystem, s: float,
                         tol: Tolerances = DEFAULT) -> StandardSkinReport:
    """Standard skin effect: every mode is the H0 mode times s^-(j-1).

    Modes are matched by eigenvalue (the similarity transform preserves the
    spectrum); for s > 1 all modes must classify skin_left and the left
    zero-eigenvector must localize on the right edge.
    """
    reports, zi, zi0, lcom, want = _zero_mode_core(hpp_system, h0_system, s, tol)
    nearest = np.argmin(np.abs(h0_system.eigenvalues[:, None] - hpp_system.eigenvalues),
                        axis=0)
    residuals = collinearity_residual(
        hpp_system.right_vectors,
        geometric_envelope(h0_system.right_vectors[:, nearest], s)).tolist()

    # couplings seen by the left problem are swapped, localizing it oppositely
    left_pred = h0_system.right(zi0) * s ** (+np.arange(hpp_system.dim, dtype=float))
    left_res = collinearity_residual(hpp_system.left(zi), left_pred)
    all_skin = all(r.classification == want for r in reports)

    passed = (max(residuals) <= tol.zero_mode_rel and all_skin
              and left_res <= tol.zero_mode_rel)
    return StandardSkinReport(envelope_residuals=residuals,
                              left_zero_residual=float(left_res), left_zero_com=lcom,
                              classifications=reports, passed=bool(passed))


def zero_mode_equality(h_system: EigenSystem, hpp_system: EigenSystem,
                       tol: Tolerances = DEFAULT) -> float:
    """Residual between the zero modes of the two constructions."""
    if h_system.dim != hpp_system.dim:
        raise ValueError(f"eigensystems differ in size: {h_system.dim} vs {hpp_system.dim}")
    zi = find_zero_mode(h_system, tol)
    zj = find_zero_mode(hpp_system, tol)
    return float(collinearity_residual(h_system.right(zi), hpp_system.right(zj)))
