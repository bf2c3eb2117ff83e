"""One rule for every matrix argument (``model._matrix``).

Every public entry point that takes a matrix refuses a non-finite, empty,
non-square or wrongly sized one, and the scalars and vectors next to those
matrices, with a ``ValueError`` that names the argument: never a returned
result, a NaN-filled matrix, numpy's ``LinAlgError`` (a ``ValueError``
subclass) or a ``TypeError``.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nhlab.eig import apply_metric_pairing, eig_full
from nhlab.laser import (PumpSpec, find_threshold, power_flows, pumped_hamiltonian,
                         track_mode)
from nhlab.mech import OscillatorChain, eigenfrequencies, integrate, spectral_peaks
from nhlab.model import (LatticeSpec, build_h0, build_scaling, construct_gauge,
                         construct_product, factor_psd, hermitian_equivalent, shift_spectrum)
from nhlab.perturb import first_order
from nhlab.properties import run_properties
from nhlab.skin import geometric_envelope, mode_reports, verify_standard_skin
from nhlab.spectra import bmap_correspondence, certify, ep_analyze, inner_product_audit


def chain(n):
    spec = LatticeSpec(n=n, t=1.0, scaling="geometric", s=1.5)
    h0, a = build_h0(spec), build_scaling(spec)
    return h0, a, construct_product(h0, a)


def with_entry(m, value, i=2, j=3):
    """A copy of m with ``value`` at (i, j) and, to keep it Hermitian, at (j, i)."""
    m = m.copy()
    m[i, j] = m[j, i] = value
    return m


H0, A, H = chain(9)
ES = eig_full(H)
ES11 = eig_full(chain(11)[2])
PUMP = PumpSpec(kappa0=0.02, pumped_sites=(1,))
MODE = ES.right(0)
OSC = OscillatorChain(n=3, masses=(1.0, 2.0, 3.0))

# probe: (call, the start of the expected message)
PROBES = {
    "certify_nan_h0": (lambda: certify(H, with_entry(H0, np.nan), ES),
                       "h0 has non-finite entries"),
    "certify_es_of_another_size": (lambda: certify(H, H0, ES11),
                                   "dimension mismatch: h has shape (9, 9), "
                                   "expected shape (11, 11)"),
    "eigenfrequencies_nan": (lambda: eigenfrequencies(with_entry(H, np.nan)),
                             "m has non-finite entries"),
    "eigenfrequencies_2x3": (lambda: eigenfrequencies(np.ones((2, 3))),
                             "m must be square, got (2, 3)"),
    "factor_psd_2x3": (lambda: factor_psd(np.zeros((2, 3))), "a must be square, got (2, 3)"),
    "product_inf_h0": (lambda: construct_product(with_entry(H0, np.inf, 4, 4), A),
                       "h0 has non-finite entries"),
    "product_nan_a": (lambda: construct_product(H0, with_entry(A, np.nan)),
                      "a has non-finite entries"),
    "gauge_inf_h0": (lambda: construct_gauge(with_entry(H0, np.inf), A),
                     "h0 has non-finite entries"),
    "gauge_nan_a": (lambda: construct_gauge(H0, with_entry(A, np.nan, 4, 4)),
                    "a has non-finite entries"),
    "equivalent_nan_h0": (lambda: hermitian_equivalent(with_entry(H0, np.nan), A),
                          "h0 has non-finite entries"),
    "equivalent_inf_b": (lambda: hermitian_equivalent(H0, with_entry(A, -np.inf, 1, 1)),
                         "b has non-finite entries"),
    "metric_pairing_nan_a": (lambda: apply_metric_pairing(ES, with_entry(A, np.nan, 0, 0)),
                             "A has non-finite entries"),
    "audit_nan_b": (lambda: inner_product_audit(ES, with_entry(A, np.nan, 0, 0)),
                    "B has non-finite entries"),
    "pumped_hamiltonian_2x3": (lambda: pumped_hamiltonian(np.ones((2, 3)), PUMP, 0.01),
                               "h must be square, got (2, 3)"),
    "product_0x0": (lambda: construct_product(np.zeros((0, 0)), np.zeros((0, 0))),
                    "h0 is empty, got (0, 0)"),
    "ep_analyze_nan_target": (lambda: ep_analyze(H, float("nan")), "target nan is not finite"),
    "pumped_hamiltonian_nan_gamma": (lambda: pumped_hamiltonian(H, PUMP, np.nan),
                                     "gamma nan is not finite"),
    "shift_spectrum_nan_c": (lambda: shift_spectrum(H, np.nan), "c nan is not finite"),
    "power_flows_nan_gamma": (lambda: power_flows(MODE, H, PUMP, np.nan),
                              "gamma nan is not finite"),
    "power_flows_short_mode": (lambda: power_flows(MODE[:-1], H, PUMP, 0.01),
                               "dimension mismatch: mode has shape (8,), expected shape (9,)"),
    "first_order_tuple_gamma1": (lambda: first_order(ES, (1,), "x", 0),
                                 "gamma1 'x' is not a real number"),
    "mode_reports_str_s": (lambda: mode_reports(ES, "x"),
                           "skin ratio s = 'x' is not a real number"),
    "standard_skin_str_s": (lambda: verify_standard_skin(ES, eig_full(H0), "x"),
                            "skin ratio s = 'x' is not a real number"),
    "integrate_str_dt": (lambda: integrate(OSC, np.zeros(3), np.zeros(3), "x", 10),
                         "dt 'x' is not a real number"),
    "track_mode_str_grid": (lambda: track_mode(H, PUMP, "ab"),
                            "gamma_grid 'ab' is not an array of real numbers"),
    "track_mode_numeric_string_grid": (lambda: track_mode(H, PUMP, ["0", "0.01"]),
                                       "gamma_grid entry '0' is not a real number"),
    "track_mode_bool_grid": (lambda: track_mode(H, PUMP, [False, True]),
                             "gamma_grid entry False is not a real number"),
    "integrate_bool_steps": (lambda: integrate(OSC, np.zeros(3), np.zeros(3), 0.01, True),
                             "steps True is not an integer"),
    "integrate_negative_steps": (lambda: integrate(OSC, np.zeros(3), np.zeros(3), 0.01, -1),
                                 "steps must be a nonnegative integer, got -1"),
    "spectral_peaks_str_dt": (lambda: spectral_peaks(np.ones(8), "x"),
                              "dt 'x' is not a real number"),
    "spectral_peaks_zero_dt": (lambda: spectral_peaks(np.ones(8), 0.0),
                               "dt must be positive, got 0.0"),
    "spectral_peaks_negative_dt": (lambda: spectral_peaks(np.ones(8), -1.0),
                                   "dt must be positive, got -1.0"),
    "run_properties_bool_trials": (lambda: run_properties(True, 1),
                                   "trials True is not an integer"),
    "run_properties_str_seed": (lambda: run_properties(1, "a"), "seed 'a' is not an integer"),
    "geometric_envelope_str_s": (lambda: geometric_envelope(np.ones(3), "x"),
                                 "skin ratio s = 'x' is not a real number"),
    "geometric_envelope_zero_s": (lambda: geometric_envelope(np.ones(3), 0.0),
                                  "skin ratio s must be positive, got s = 0.0"),
    "geometric_envelope_negative_s": (lambda: geometric_envelope(np.ones(3), -2.0),
                                      "skin ratio s must be positive, got s = -2.0"),
    "spectral_peaks_nan_signal": (lambda: spectral_peaks([1.0, np.nan, 2.0], 0.1),
                                  "signal has non-finite entries"),
    "spectral_peaks_empty_signal": (lambda: spectral_peaks([], 0.1),
                                    "signal must be a nonempty real vector, got shape (0,)"),
    "spectral_peaks_complex_signal": (lambda: spectral_peaks([1.0, 1j], 0.1),
                                      "signal must be a nonempty real vector, got shape (2,)"),
    "spectral_peaks_str_signal": (lambda: spectral_peaks("ab", 0.1),
                                  "signal is not a numeric array"),
    "run_properties_negative_seed": (lambda: run_properties(1, -1),
                                     "seed must be >= 0, got -1"),
}


@pytest.mark.parametrize("probe", sorted(PROBES))
def test_probe_raises_a_value_error_naming_the_argument(probe):
    call, message = PROBES[probe]
    with pytest.raises(ValueError, match="^" + re.escape(message)) as excinfo:
        call()
    assert excinfo.type is ValueError


# ---------------------------------------------------------------------------
# fuzz: one corrupted matrix argument of one entry point

def _calls(x):
    """entry point -> {argument key: the name its message gives} and its call on x."""
    return {
        "construct_product": ({"h0": "h0", "a": "a"}, lambda: construct_product(x["h0"], x["a"])),
        "construct_gauge": ({"h0": "h0", "a": "a"}, lambda: construct_gauge(x["h0"], x["a"])),
        "factor_psd": ({"a": "a"}, lambda: factor_psd(x["a"])),
        "hermitian_equivalent": ({"h0": "h0", "b": "b"},
                                 lambda: hermitian_equivalent(x["h0"], x["b"])),
        "shift_spectrum": ({"h": "h"}, lambda: shift_spectrum(x["h"], 0.5)),
        "eig_full": ({"h": "matrix"}, lambda: eig_full(x["h"])),
        "apply_metric_pairing": ({"a": "A"}, lambda: apply_metric_pairing(x["es"], x["a"])),
        "certify": ({"h": "h", "h0": "h0"}, lambda: certify(x["h"], x["h0"], x["es"])),
        "inner_product_audit": ({"b": "B"}, lambda: inner_product_audit(x["es"], x["b"])),
        "ep_analyze": ({"h": "matrix"}, lambda: ep_analyze(x["h"])),
        "bmap_correspondence": ({"h0": "h0", "b": "b"},
                                lambda: bmap_correspondence(x["h0"], x["b"])),
        "pumped_hamiltonian": ({"h": "h"}, lambda: pumped_hamiltonian(x["h"], PUMP, 0.01)),
        "track_mode": ({"h": "h"}, lambda: track_mode(x["h"], PUMP, [0.0, 0.01])),
        "find_threshold": ({"h": "h"}, lambda: find_threshold(x["h"], PUMP)),
        "power_flows": ({"h": "h_a"}, lambda: power_flows(x["mode"], x["h"], PUMP, 0.01)),
        "eigenfrequencies": ({"h": "m"}, lambda: eigenfrequencies(x["h"])),
    }


ENTRY_POINTS = sorted(_calls({}))
CORRUPTIONS = ("nan", "inf", "-inf", "off_by_one", "1d", "4d", "0x0")


def corrupt(m, kind, data):
    if kind in ("nan", "inf", "-inf"):
        m = m.copy()
        n = len(m)
        m[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))] = float(kind)
        return m
    if kind == "off_by_one":
        axis, longer = data.draw(st.integers(0, 1)), data.draw(st.booleans())
        if longer:
            return np.concatenate([m, np.take(m, [0], axis=axis)], axis=axis)
        return m[:-1] if axis == 0 else m[:, :-1]
    if kind == "1d":
        return m[0]
    if kind == "4d":
        return m[None, None]
    return np.zeros((0, 0), dtype=m.dtype)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 12), scaling=st.sampled_from(["geometric", "random", "explicit"]),
       s=st.floats(1.05, 2.0), seed=st.integers(0, 2**32 - 1),
       entry=st.sampled_from(ENTRY_POINTS), kind=st.sampled_from(CORRUPTIONS), data=st.data())
def test_one_corrupted_matrix_argument_raises_a_named_value_error(n, scaling, s, seed, entry,
                                                                  kind, data):
    values = tuple(np.random.default_rng(seed).uniform(0.1, 3.0, n))
    spec = LatticeSpec(n=n, scaling=scaling, s=s, seed=seed,
                       values=values if scaling == "explicit" else None)
    h0, a = build_h0(spec), build_scaling(spec)
    h = construct_product(h0, a)
    es = eig_full(h)
    x = {"h0": h0, "a": a, "b": factor_psd(a), "h": h, "es": es, "mode": es.right(0)}
    names, _ = _calls(x)[entry]
    key = data.draw(st.sampled_from(sorted(names)))
    x[key] = corrupt(x[key], kind, data)
    with pytest.raises(ValueError) as excinfo:
        _calls(x)[entry][1]()
    assert excinfo.type is ValueError
    assert re.search(rf"(^|\W){re.escape(names[key])}\W", str(excinfo.value)), str(excinfo.value)
