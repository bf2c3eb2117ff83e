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

from .config import DEFAULT, Tolerances
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

    def csv_row(self) -> list:
        return [self.mode_index, self.eigenvalue.real, self.eigenvalue.imag,
                self.ipr, self.com, self.decay_rate, self.classification]


CSV_HEADER = ["index", "omega_re", "omega_im", "ipr", "com", "decay_rate", "class"]


def profile(mode: np.ndarray, tol: Tolerances = DEFAULT) -> dict:
    """Scale-free localization metrics of a nonzero mode vector.

    The decay-rate fit runs over the mode's support parity only (odd or even
    sublattice when the other one is dark), skipping sites below
    ``profile_floor`` times the max amplitude.
    """
    v = np.asarray(mode, dtype=complex)
    amax = np.abs(v).max()
    if amax == 0:
        raise ValueError("zero vector has no profile")
    n = len(v)
    p = np.abs(v) ** 2
    ipr = float((np.abs(v) ** 4).sum() / p.sum() ** 2)
    com = float((np.arange(1, n + 1) * p).sum() / p.sum())

    odd_max = np.abs(v[0::2]).max()                        # 1-based odd sites
    even_max = np.abs(v[1::2]).max() if n > 1 else 0.0
    if even_max <= tol.parity_rel * amax:
        parity, sites = ODD_SITES, np.arange(0, n, 2)
    elif odd_max <= tol.parity_rel * amax:
        parity, sites = EVEN_SITES, np.arange(1, n, 2)
    else:
        parity, sites = MIXED, np.arange(n)
    sites = sites[np.abs(v[sites]) > tol.profile_floor * amax]

    if len(sites) >= 2:
        js = sites + 1.0
        y = np.log(np.abs(v[sites]))
        slope, icpt = np.polyfit(js, y, 1)
        fit_rms = float(np.sqrt(np.mean((y - slope * js - icpt) ** 2)))
        decay = float(slope)
    else:
        decay, fit_rms = 0.0, 0.0

    return {"ipr": ipr, "com": com, "decay_rate": decay, "fit_rms": fit_rms,
            "support_parity": parity}


def classify(metrics: dict, n: int, s: float, tol: Tolerances = DEFAULT) -> str:
    """Skin/bulk call from profile metrics, for a chain scaled by ratio s."""
    half_rate = np.log(s) / 2.0
    com, decay, rms = metrics["com"], metrics["decay_rate"], metrics["fit_rms"]
    if (com < tol.com_fraction * n and decay <= -half_rate + tol.decay_margin
            and rms <= tol.envelope_rms):
        return SKIN_LEFT
    if (com > (1.0 - tol.com_fraction) * n and decay >= half_rate - tol.decay_margin
            and rms <= tol.envelope_rms):
        return SKIN_RIGHT
    return BULK


def mode_report(index: int, eigenvalue: complex, vector: np.ndarray, s: float,
                tol: Tolerances = DEFAULT) -> ModeReport:
    m = profile(vector, tol)
    return ModeReport(mode_index=index, eigenvalue=complex(eigenvalue),
                      ipr=m["ipr"], com=m["com"], decay_rate=m["decay_rate"],
                      fit_rms=m["fit_rms"], support_parity=m["support_parity"],
                      classification=classify(m, len(vector), s, tol))


def mode_reports(es: EigenSystem, s: float, tol: Tolerances = DEFAULT) -> list[ModeReport]:
    return [mode_report(mu, es.eigenvalues[mu], es.right(mu), s, tol)
            for mu in range(es.dim)]


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
    """reference_j * s^-(j-1): the skin-mode image of a reference profile."""
    n = len(reference)
    return np.asarray(reference) * s ** (-np.arange(n, dtype=float))


@dataclass
class SkinReport:
    zero_mode_index: int
    envelope_residual: float            # zero mode vs reference * s^-(j-1)
    left_zero_residual: float           # left zero-eigenvector vs its prediction
    left_zero_com: float
    classifications: list[ModeReport]
    passed: bool

    def to_dict(self) -> dict:
        return {"zero_mode_index": self.zero_mode_index,
                "envelope_residual": self.envelope_residual,
                "left_zero_residual": self.left_zero_residual,
                "left_zero_com": self.left_zero_com,
                "classifications": [r.csv_row() for r in self.classifications],
                "passed": self.passed}


def verify_selective_skin(h_system: EigenSystem, h0_system: EigenSystem, s: float,
                          tol: Tolerances = DEFAULT) -> SkinReport:
    """Selective skin effect: only the zero mode localizes.

    Asserts (i) the zero mode of H equals the H0 zero mode times s^-(j-1),
    (ii) every nonzero mode classifies as bulk, (iii) the left zero-
    eigenvector of H is extended, equal to the H0 zero mode.
    """
    zi = find_zero_mode(h_system, tol)
    zi0 = find_zero_mode(h0_system, tol)
    ref = h0_system.right(zi0)

    target = geometric_envelope(ref, s)
    env_res = collinearity_residual(h_system.right(zi), target)
    left_res = collinearity_residual(h_system.left(zi), ref)

    reports = mode_reports(h_system, s, tol)
    nonzero_bulk = all(r.classification == BULK
                       for r in reports if r.mode_index != zi)
    zero_skin = reports[zi].classification == (SKIN_LEFT if s > 1 else
                                               BULK if s == 1 else SKIN_RIGHT)
    lcom = profile(h_system.left(zi), tol)["com"]

    passed = (env_res <= tol.zero_mode_rel and left_res <= tol.zero_mode_rel
              and nonzero_bulk and zero_skin)
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

    def to_dict(self) -> dict:
        return {"envelope_residuals": self.envelope_residuals,
                "left_zero_residual": self.left_zero_residual,
                "left_zero_com": self.left_zero_com,
                "classifications": [r.csv_row() for r in self.classifications],
                "passed": self.passed}


def verify_standard_skin(hpp_system: EigenSystem, h0_system: EigenSystem, s: float,
                         tol: Tolerances = DEFAULT) -> StandardSkinReport:
    """Standard skin effect: every mode is the H0 mode times s^-(j-1).

    Modes are matched by eigenvalue (the similarity transform preserves the
    spectrum); for s > 1 all modes must classify skin_left and the left
    zero-eigenvector must localize on the right edge.
    """
    residuals = []
    n = hpp_system.dim
    for mu in range(n):
        lam = hpp_system.eigenvalues[mu]
        nu = int(np.argmin(np.abs(h0_system.eigenvalues - lam)))
        target = geometric_envelope(h0_system.right(nu), s)
        residuals.append(float(collinearity_residual(hpp_system.right(mu), target)))

    zi = find_zero_mode(hpp_system, tol)
    zi0 = find_zero_mode(h0_system, tol)
    # couplings seen by the left problem are swapped, localizing it oppositely
    left_pred = h0_system.right(zi0) * s ** (+np.arange(n, dtype=float))
    left_res = collinearity_residual(hpp_system.left(zi), left_pred)
    lcom = profile(hpp_system.left(zi), tol)["com"]

    reports = mode_reports(hpp_system, s, tol)
    want = SKIN_LEFT if s > 1 else BULK if s == 1 else SKIN_RIGHT
    all_skin = all(r.classification == want for r in reports)

    passed = (max(residuals) <= tol.zero_mode_rel and all_skin
              and left_res <= tol.zero_mode_rel)
    return StandardSkinReport(envelope_residuals=residuals,
                              left_zero_residual=float(left_res), left_zero_com=lcom,
                              classifications=reports, passed=bool(passed))


def zero_mode_equality(h_system: EigenSystem, hpp_system: EigenSystem,
                       tol: Tolerances = DEFAULT) -> float:
    """Residual between the zero modes of the two constructions."""
    zi = find_zero_mode(h_system, tol)
    zj = find_zero_mode(hpp_system, tol)
    return float(collinearity_residual(h_system.right(zi), hpp_system.right(zj)))
