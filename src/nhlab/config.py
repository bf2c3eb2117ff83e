"""Numerical tolerances with config-file / command-line overrides.

Every threshold used by the analysis modules lives here so that a tolerance
dispute can be settled from the CLI (``--tol key=value``) without touching
code.  Tolerances named ``*_rel`` are relative to the spectral norm of the
matrix under analysis (or to another scale stated in the consuming function).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace


def _real(value, name: str) -> float:
    """The one rule for a user-facing real number: a finite int, float or
    numpy real but not a bool, stored as float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} {value!r} is not a real number")
    try:
        x = float(value)
    except OverflowError:       # an int beyond the float range
        x = math.inf
    if not math.isfinite(x):
        raise ValueError(f"{name} {value!r} is not finite")
    return x


def _complex(value, name: str) -> complex:
    """The one rule for a user-facing complex number: an int, float, complex or
    numpy number but not a bool, each part finite by ``_real``'s rule."""
    if isinstance(value, bool) or not isinstance(value, numbers.Complex):
        raise ValueError(f"{name} {value!r} is not a number")
    return complex(_real(value.real, name), _real(value.imag, name))


def _object(value, name: str) -> dict:
    """The one rule for a config document and each of its sections: a JSON object."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} {value!r} is not a JSON object")
    return value


@dataclass(frozen=True)
class Tolerances:
    # matrix tagging
    hermitian_rel: float = 1e-12      # max-norm Hermiticity defect
    psd_rel: float = 1e-10            # allowed negative eigenvalue of a PSD matrix
    # eigensystem
    residual_rel: float = 1e-10       # per-pair eigenpair residual
    cluster_rel: float = 1e-7         # degenerate-cluster grouping
    nullity_rel: float = 1e-8         # singular-value threshold for rank/nullity
    self_orth: float = 1e-6           # |psi~.psi| below this (unit vectors) flags an EP
    biorth: float = 1e-8              # biorthonormality defect (cluster overlap blocks in eig_full)
    # spectral certification
    reality_rel: float = 1e-8         # max |Im w| for a spectrum to count as real
    metric_rel: float = 1e-8          # pseudo-Hermiticity residual; inner-product identity
    invertible_rel: float = 1e-10     # smallest singular value for invertibility
    kernel_rel: float = 1e-10         # |A psi| below this (unit psi) is a kernel vector
    spectra_match_rel: float = 1e-8   # sorted-spectra agreement
    # mode localization
    parity_rel: float = 1e-8          # dark-sublattice detection
    profile_floor: float = 1e-12      # sites below this fraction of max excluded from fits
    com_fraction: float = 0.25        # skin_left needs com < com_fraction * n
    decay_margin: float = 1e-6        # slack on the half-rate decay test
    envelope_rms: float = 0.8         # max log-profile fit RMS for a skin mode
    zero_mode_rel: float = 1e-8       # zero-mode identification / profile residuals
    # laser
    threshold_imag: float = 1e-9      # |Im w| at threshold, in units of kappa0
    track_margin: float = 0.01        # relative overlap gap below which tracking refuses
    balance_rel: float = 1e-8         # power-balance residual over max term
    gamma_max_factor: float = 1e4     # abandon threshold search above this * kappa0
    # perturbation theory
    denominator_rel: float = 1e-6     # smallest |w_mu - w_nu| for first-order sums
    # mechanics
    mech_spectrum_rel: float = 1e-8   # reality / nonpositivity of the dynamical matrix
    integrator_guard: float = 0.1     # dt * max eigenfrequency must stay below this

    def __post_init__(self):
        # every tolerance is a finite real by ``_real``'s rule (zero and negative allowed)
        for f in fields(self):
            object.__setattr__(self, f.name, _real(getattr(self, f.name), f.name))

    def with_overrides(self, overrides: dict[str, float]) -> "Tolerances":
        """Return a copy with the given named tolerances replaced (a ValueError
        names a value that is not a finite real)."""
        known = {f.name for f in fields(self)}
        unknown = set(overrides) - known
        if unknown:
            raise KeyError(f"unknown tolerance keys: {sorted(unknown)}; known: {sorted(known)}")
        return replace(self, **overrides)


DEFAULT = Tolerances()
