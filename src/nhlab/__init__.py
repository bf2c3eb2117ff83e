"""Numerical laboratory for non-Hermitian chain Hamiltonians with real
spectra built as the product of a Hermitian matrix and a PSD scaling."""

from .config import DEFAULT, Tolerances
from .eig import EigenSystem, apply_metric_pairing, eig_full
from .laser import PumpSpec, ThresholdResult, find_threshold, power_flows, pumped_hamiltonian, track_mode
from .mech import OscillatorChain, dynamical_matrix, eigenfrequencies, integrate
from .model import (LatticeSpec, build_h0, build_scaling, construct_gauge,
                    construct_product, factor_psd, hermitian_equivalent,
                    shift_spectrum, splitmix64_stream)
from .perturb import first_order, matrix_elements, nhph_pairs
from .skin import mode_reports, verify_selective_skin, verify_standard_skin, zero_mode_equality
from .spectra import (CertificateError, IllConditionedError, bmap_correspondence, certify,
                      ep_analyze, inner_product_audit)

__all__ = [
    "DEFAULT", "Tolerances",
    "LatticeSpec", "build_h0", "build_scaling", "construct_product",
    "construct_gauge", "factor_psd", "hermitian_equivalent", "shift_spectrum",
    "splitmix64_stream",
    "EigenSystem", "eig_full", "apply_metric_pairing",
    "certify", "inner_product_audit", "ep_analyze", "bmap_correspondence",
    "CertificateError", "IllConditionedError",
    "mode_reports", "verify_selective_skin", "verify_standard_skin",
    "zero_mode_equality",
    "PumpSpec", "ThresholdResult", "pumped_hamiltonian", "track_mode",
    "find_threshold", "power_flows",
    "matrix_elements", "first_order", "nhph_pairs",
    "OscillatorChain", "dynamical_matrix", "eigenfrequencies", "integrate",
]

__version__ = "0.1.0"
