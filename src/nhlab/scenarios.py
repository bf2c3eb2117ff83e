"""Config-driven scenario runner: figure reproductions, the ratio
calibration, property suites, and machine-readable outputs.

Every scenario is a pure function of its config (plus the calibration
record it may consume); outputs are written deterministically so reruns are
byte-identical.  Timestamps go only to the sidecar ``run.log``.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Any

import numpy as np

from .config import DEFAULT, Tolerances, _integer, _object, _real, _record
from .eig import collinearity_residual, eig_full
from .laser import PumpSpec, find_threshold, power_flows, pumped_hamiltonian, track_mode
from .mech import (OscillatorChain, dynamical_matrix, eigenfrequencies,
                   integrate, spectral_peaks, total_energy)
from .model import (LatticeSpec, build_h0, build_scaling, construct_gauge,
                    construct_product, spectral_norm)
from .perturb import first_order, matrix_elements
from .properties import SUITE_NAMES, run_properties
from .skin import (ModeReport, NoZeroModeError, find_zero_mode, mode_reports,
                   verify_selective_skin, verify_standard_skin, zero_mode_equality)
from .spectra import certify, ep_analyze

SCENARIOS = ("fig1", "fig2", "fig3", "fig4", "fig5", "oscillators",
             "properties", "calibrate_s", "custom")

# anchors from the figure captions and threshold table
ANCHOR_NEXT_TO_ZERO = 2.38          # |w| of the first nonzero pair of H, in units of t
ANCHOR_GAUGE = 0.618                # same for the similarity-transformed chain
THRESHOLD_TABLE = {                 # kappa0/t -> (D/kappa0 selective, D/kappa0 standard)
    0.02: (1.44, 4.99),
    1.0: (1.35, 1.62),
}
CALIBRATION_S_RANGE = (1.01, 4.0)   # geometric ratios scanned by calibrate_s


class CalibrationError(RuntimeError):
    """No scaling ratio in range reproduces the spectral anchor."""


@dataclass(frozen=True)
class _Output:                     # a config's output section: out_dir and format
    path: str = "out"
    format: str = "csv"            # csv | json


@dataclass
class ScenarioConfig:
    scenario: str
    lattice: LatticeSpec | None = None
    pump: PumpSpec | None = None
    tolerances: dict[str, float] = field(default_factory=dict)
    out_dir: str = _Output.path
    format: str = _Output.format
    seed: int = 1
    trials: int = 200
    anchor: float = ANCHOR_NEXT_TO_ZERO
    n: int = 9

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ValueError(f"unknown scenario {self.scenario!r}; choose from {SCENARIOS}")
        if self.format not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.format!r}")
        if not isinstance(self.out_dir, str):
            raise ValueError(f"output path {self.out_dir!r} is not a string")
        for name, lo in (("seed", 0), ("trials", 1), ("n", 1)):
            setattr(self, name, _integer(getattr(self, name), name, lo))
        self.anchor = _real(self.anchor, "anchor")

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ScenarioConfig":
        unknown = set(d) - {"scenario", "lattice", "pump", "tolerances", "output", "seed",
                            "trials", "anchor", "n"}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        given = {k: v for k, v in d.items() if v is not None}     # a null section is absent
        kwargs: dict[str, Any] = {k: d[k] for k in
                                  ("scenario", "seed", "trials", "anchor", "n") if k in d}
        kwargs.update({k: spec.from_dict(given[k]) for k, spec in
                       (("lattice", LatticeSpec), ("pump", PumpSpec)) if k in given})
        out = _record(_Output, given.get("output", {}), "output", ())
        return cls(**kwargs, tolerances=dict(_object(given.get("tolerances", {}), "tolerances")),
                   out_dir=out.path, format=out.format)

    def tol(self) -> Tolerances:
        return DEFAULT.with_overrides(self.tolerances)


@dataclass
class Assertion:
    name: str
    passed: bool
    measured: Any
    expected: str

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark}  {self.name}: measured {self.measured} (want {self.expected})"


def _assert_le(name: str, value: float, limit: float) -> Assertion:
    return Assertion(name=name, passed=bool(value <= limit),
                     measured=float(value), expected=f"<= {limit:g}")


def _assert_true(name: str, flag: bool, detail: Any = True) -> Assertion:
    return Assertion(name=name, passed=bool(flag), measured=detail, expected="true")


@dataclass
class ScenarioResult:
    scenario: str
    assertions: list[Assertion]
    tables: dict[str, tuple[list[str], list[list]]]   # name -> (header, rows)
    report: dict[str, Any]
    files: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.assertions)


# ---------------------------------------------------------------------------
# calibration

def smallest_nonzero_abs(h: np.ndarray, tol: Tolerances = DEFAULT) -> float | np.ndarray:
    """Smallest |w| over eigenvalues that are not numerically zero; of each matrix of a (k, n, n)
    stack, equal to its 2-D call as the stacked ``eigvals`` and ``spectral_norm`` are."""
    w = np.abs(np.linalg.eigvals(h))
    floor = tol.zero_mode_rel * np.maximum(spectral_norm(h), 1e-300)
    least = np.where(w > np.expand_dims(floor, -1), w, np.inf).min(axis=-1)
    if np.isinf(least).any():
        raise ValueError("spectrum is entirely zero")
    return float(least) if np.ndim(least) == 0 else least


def _calibration_gap(s, anchor: float = ANCHOR_NEXT_TO_ZERO, n: int = 9, t: float = 1.0,
                    tol: Tolerances = DEFAULT) -> float | np.ndarray:
    """smallest_nonzero_abs(H0 A) / t - anchor for the geometric ratio s, or for each ratio
    of an array s from one stacked ``construct_product``, each equal to its scalar call."""
    a = np.asarray(s, dtype=float)[..., None] ** np.arange(n, dtype=float)
    h0 = np.broadcast_to(build_h0(LatticeSpec(n=n, t=t)), a.shape[:-1] + (n, n))
    h = construct_product(h0, (a[..., None, :] * np.eye(n)).astype(complex), tol)
    return smallest_nonzero_abs(h, tol) / t - anchor


def _product_pair(n: int, s: float, t: float = 1.0,
                  tol: Tolerances = DEFAULT) -> tuple[np.ndarray, np.ndarray]:
    spec = LatticeSpec(n=n, t=t, scaling="geometric", s=s)
    h0 = build_h0(spec)
    a = build_scaling(spec)
    return construct_product(h0, a, tol), construct_gauge(h0, a, tol)


def calibrate_s(anchor: float = ANCHOR_NEXT_TO_ZERO, n: int = 9, t: float = 1.0,
                tol: Tolerances = DEFAULT) -> dict:
    """Find the geometric ratio that puts the first nonzero |w| at anchor*t.

    Scans a logarithmic grid for a sign change of the gap, bisects it, then
    cross-checks the calibrated ratio against the threshold table.  Returns
    the calibration record (also consumed by the fig2/3/5 scenarios).
    """
    s_lo, s_hi = CALIBRATION_S_RANGE
    grid = np.geomspace(s_lo, s_hi, 121)
    values = _calibration_gap(grid, anchor, n, t, tol)
    i = next((i for i in range(len(grid) - 1)
              if values[i] == 0 or values[i] * values[i + 1] < 0), None)
    if i is None:
        best = int(np.argmin(np.abs(values)))
        raise CalibrationError(
            f"no s in [{s_lo}, {s_hi}] reaches anchor {anchor}; "
            f"best s = {grid[best]:.6f} with gap {values[best]:.3e}")

    lo, hi, glo = grid[i], grid[i + 1], values[i]
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:       # float64 convergence: the bracket is fixed
            break
        gm = _calibration_gap(mid, anchor, n, t, tol)
        if glo * gm <= 0:
            hi = mid
        else:
            lo, glo = mid, gm
    s_cal = 0.5 * (lo + hi)
    achieved = _calibration_gap(s_cal, anchor, n, t, tol) + anchor

    h, hpp = _product_pair(n, s_cal, t, tol)
    checks = {}
    all_ok = abs(achieved - anchor) <= 1e-3
    for kappa_over_t, (d_sel, d_std) in THRESHOLD_TABLE.items():
        pump = PumpSpec(kappa0=kappa_over_t * t, pumped_sites=(1,))
        got_sel = find_threshold(h, pump, tol).threshold / pump.kappa0
        got_std = find_threshold(hpp, pump, tol).threshold / pump.kappa0
        ok = (abs(got_sel - d_sel) <= 0.01 * d_sel
              and abs(got_std - d_std) <= 0.01 * d_std)
        all_ok = all_ok and ok
        checks[str(kappa_over_t)] = {"selective": got_sel, "standard": got_std,
                                     "expected": [d_sel, d_std], "within_1pct": ok}

    return {"s": float(s_cal), "anchor": anchor, "achieved": float(achieved),
            "n": n, "t": t, "threshold_checks": checks, "all_ok": bool(all_ok)}


def load_or_calibrate(out_dir: Path, tol: Tolerances) -> dict:
    path = out_dir / "calibration.json"
    if path.exists():
        record = json.loads(path.read_text())
        if "s" not in record:
            raise CalibrationError(f"{path} is not a calibration record")
        return record
    record = calibrate_s(tol=tol)
    out_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(_json_text(record))
    return record


# ---------------------------------------------------------------------------
# figure scenarios

def scenario_fig1(cfg: ScenarioConfig, tol: Tolerances) -> ScenarioResult:
    """Harmonic chain: discrete low levels vs the continuum rule, and the
    spectral stretch caused by a random positive scaling."""
    spec = cfg.lattice or LatticeSpec(n=100, t=1.0, onsite="harmonic",
                                      omega2=1.0 / 1000.0, scaling="random",
                                      seed=cfg.seed)
    if spec.onsite != "harmonic" or spec.omega2 <= 0:
        raise ValueError("fig1 needs a harmonic lattice with omega2 > 0")
    _integer(spec.n, "fig1 lattice n", 5)       # five levels are compared
    t = abs(spec.t)
    h0 = build_h0(spec)
    a = build_scaling(spec)
    h = construct_product(h0, a, tol)
    w0 = np.sort(np.linalg.eigvalsh(h0))
    es = eig_full(h, tol)
    w = es.eigenvalues

    assertions = [
        _assert_le("fig1.reality_max_imag", np.abs(w.imag).max(),
                   tol.reality_rel * es.matrix_norm),
    ]
    omega_tilde = np.sqrt(spec.omega2) * np.sqrt(2.0 * t)
    q = np.arange(1, 6)
    approx = (q - 0.5) * omega_tilde - 2.0 * t
    dev = np.abs(w0[:5] - approx) / omega_tilde
    assertions += [_assert_le(f"fig1.harmonic_level_q{k}", d, 0.05)
                   for k, d in zip(q, dev)]
    # H0 A is similar to A^1/2 H0 A^1/2, so by Ostrowski's theorem the sorted
    # levels are w_k = theta_k lambda_k(H0) with theta_k in [a_min, a_max]
    a_eigs = np.linalg.eigvalsh(a)
    ends = np.outer(w0, a_eigs[[0, -1]])
    wr = np.sort(w.real)
    excess = max(0.0, (ends.min(axis=1) - wr).max(), (wr - ends.max(axis=1)).max())
    assertions.append(_assert_le("fig1.ostrowski_bound", excess,
                                 tol.spectra_match_rel * es.matrix_norm))

    _, v0 = np.linalg.eigh(h0)
    v = es.right_vectors[:, np.argsort(w.real)]
    sites = np.arange(1, spec.n + 1)

    report = {
        "lattice": spec.to_dict(),
        "omega_tilde": float(omega_tilde),
        "h0_range": [float(w0[0]), float(w0[-1])],
        "h_range": [float(w.real.min()), float(w.real.max())],
        "max_imag": float(np.abs(w.imag).max()),
    }
    tables = {
        "fig1_spectra": _table({"index": sites, "omega0": w0, "omega": w}),
        "fig1_levels": _table({"q": q, "energy": w0[:5], "continuum": approx,
                               "deviation_over_omega_tilde": dev}),
        "fig1_modes": _table({
            "site": sites,
            **{f"h0_mode{k + 1}_abs": np.abs(v0[:, k]) for k in range(3)},
            **{f"h_mode{k + 1}_abs": np.abs(v[:, k]) for k in range(3)}}),
    }
    return ScenarioResult("fig1", assertions, tables, report)


def scenario_fig2(cfg: ScenarioConfig, tol: Tolerances,
                  calibration: dict) -> ScenarioResult:
    """Selective vs standard skin effect at the calibrated ratio."""
    s = calibration["s"]
    n, t = cfg.n, 1.0
    spec = LatticeSpec(n=n, t=t, scaling="geometric", s=s)
    h0 = build_h0(spec)
    h, hpp = _product_pair(n, s, t, tol)
    es_h = eig_full(h, tol)
    es_hpp = eig_full(hpp, tol)
    es_h0 = eig_full(h0, tol)

    anchor_h = smallest_nonzero_abs(h, tol) / t
    anchor_hpp = smallest_nonzero_abs(hpp, tol) / t
    selective = verify_selective_skin(es_h, es_h0, s, tol)
    standard = verify_standard_skin(es_hpp, es_h0, s, tol)
    eq_resid = zero_mode_equality(es_h, es_hpp, tol)

    assertions = [
        _assert_le("fig2.gauge_anchor", abs(anchor_hpp - ANCHOR_GAUGE), 1e-3),
        _assert_le("fig2.product_anchor", abs(anchor_h - cfg.anchor), 1e-2),
        _assert_le("fig2.zero_mode_equality", eq_resid, tol.zero_mode_rel),
        _assert_le("fig2.zero_mode_envelope", selective.envelope_residual,
                   tol.zero_mode_rel),
        _assert_le("fig2.left_zero_extended", selective.left_zero_residual,
                   tol.zero_mode_rel),
        _assert_true("fig2.nonzero_modes_bulk",
                     all(r.classification == "bulk"
                         for r in selective.classifications
                         if r.mode_index != selective.zero_mode_index),
                     [r.classification for r in selective.classifications]),
        _assert_true("fig2.all_gauge_modes_skin_left",
                     all(r.classification == "skin_left"
                         for r in standard.classifications),
                     [r.classification for r in standard.classifications]),
        _assert_le("fig2.standard_envelopes", max(standard.envelope_residuals),
                   tol.zero_mode_rel),
        _assert_true("fig2.spectral_repulsion", anchor_h > anchor_hpp,
                     [anchor_h, anchor_hpp]),
    ]

    def profiles(es):
        v = es.right_vectors / np.abs(es.right_vectors).max(axis=0)
        return _table({"mode": np.repeat(np.arange(n), n),
                       "site": np.tile(np.arange(1, n + 1), n), "psi": v.T.ravel()})

    tables = {
        "fig2_modes_product": _mode_table(selective.classifications),
        "fig2_modes_gauge": _mode_table(standard.classifications),
        "fig2_profiles_product": profiles(es_h),
        "fig2_profiles_gauge": profiles(es_hpp),
    }
    report = {
        "s": s,
        "product_anchor": anchor_h,
        "gauge_anchor": anchor_hpp,
        "zero_mode_equality_residual": eq_resid,
        **{label: {**_plain(verdict),
                   "classifications": _mode_table(verdict.classifications)[1]}
           for label, verdict in (("selective", selective), ("standard", standard))},
    }
    return ScenarioResult("fig2", assertions, tables, report)


def scenario_fig3(cfg: ScenarioConfig, tol: Tolerances,
                  calibration: dict) -> ScenarioResult:
    """Lasing thresholds under a single-site pump, and junction power flows."""
    s = calibration["s"]
    n, t = cfg.n, 1.0
    h, hpp = _product_pair(n, s, t, tol)
    assertions = []
    report: dict[str, Any] = {"s": s, "thresholds": {}}
    tables: dict[str, tuple[list[str], list[list]]] = {}

    flow_reports = {}
    for kappa_over_t, (d_sel, d_std) in THRESHOLD_TABLE.items():
        pump = cfg.pump or PumpSpec(kappa0=kappa_over_t * t, pumped_sites=(1,))
        pump = replace(pump, kappa0=kappa_over_t * t)
        results = {}
        reported = report["thresholds"][str(kappa_over_t)] = {}
        for label, matrix, expect in (("selective", h, d_sel), ("standard", hpp, d_std)):
            res = find_threshold(matrix, pump, tol)
            ratio = res.threshold / pump.kappa0
            assertions.append(Assertion(
                name=f"fig3.threshold_{label}_kappa{kappa_over_t:g}",
                passed=bool(abs(ratio - expect) <= 0.01 * expect),
                measured=float(ratio), expected=f"{expect} +- 1%"))
            results[label] = res
            tr = track_mode(matrix, pump, np.linspace(0.0, res.threshold, 33), tol)
            crossing = int(np.argmax(tr.eigenvalues[-1].imag))
            reported[label] = _plain({
                "threshold": res.threshold, "crossing_mode_index": crossing,
                "threshold_mode": res.threshold_mode, "bracket": res.bracket,
                "trajectory": {"gammas": tr.gammas,
                               "crossing_mode": tr.eigenvalues[:, crossing]}})
        if kappa_over_t == 0.02:
            flow_reports = {
                lbl: power_flows(results[lbl].threshold_mode,
                                 pumped_hamiltonian(mat, pump, results[lbl].threshold),
                                 pump, gamma=results[lbl].threshold)
                for lbl, mat in (("selective", h), ("standard", hpp))}
            # one gamma axis for both zero-mode trajectories, up to the larger threshold
            shared = np.linspace(0.0, max(results["selective"].threshold,
                                          results["standard"].threshold), 41)
            tr_sel = track_mode(h, pump, shared, tol)
            tr_std = track_mode(hpp, pump, shared, tol)
            if tr_sel.zero_mode_index is None or tr_std.zero_mode_index is None:
                raise NoZeroModeError("no frequency-pinned mode along the pump sweep")
            tables["fig3_trajectories"] = _table({
                "gamma": shared,
                "selective": tr_sel.eigenvalues[:, tr_sel.zero_mode_index],
                "standard": tr_std.eigenvalues[:, tr_std.zero_mode_index]})
            tables["fig3_threshold_modes"] = _table({
                "site": np.arange(1, n + 1),
                "selective": results["selective"].threshold_mode,
                "standard": results["standard"].threshold_mode})

    sel, std = flow_reports["selective"], flow_reports["standard"]
    assertions += [
        _assert_true("fig3.junction_loss_selective", bool((sel.junction_gains < 0).all()),
                     [float(g) for g in sel.junction_gains]),
        _assert_true("fig3.junction_loss_standard", bool((std.junction_gains < 0).all()),
                     [float(g) for g in std.junction_gains]),
        _assert_true("fig3.gain_contrast_5x",
                     bool(np.abs(std.junction_gains).max()
                          >= 5.0 * np.abs(sel.junction_gains).max()),
                     float(np.abs(std.junction_gains).max()
                           / np.abs(sel.junction_gains).max())),
        _assert_le("fig3.balance_selective",
                   sel.balance_residual, tol.balance_rel * sel.max_term),
        _assert_le("fig3.balance_standard",
                   std.balance_residual, tol.balance_rel * std.max_term),
    ]
    tables["fig3_junction_gains"] = _table({
        "junction_center": np.arange(n - 1) + 1.5,
        "selective_gain": sel.junction_gains, "standard_gain": std.junction_gains})
    report["power_flows"] = {"selective": _plain(sel), "standard": _plain(std)}
    return ScenarioResult("fig3", assertions, tables, report)


def scenario_fig4(cfg: ScenarioConfig, tol: Tolerances,
                  calibration: dict) -> ScenarioResult:
    """Zero-energy degeneracy structure for zeroed scaling entries."""
    s = calibration["s"]
    t = 1.0
    assertions = []
    report: dict[str, Any] = {"s": s, "cases": {}}

    def product_with_zeros(n, zeroed):
        spec = LatticeSpec(n=n, t=t, scaling="geometric", s=s,
                           zeroed_sites=tuple(zeroed))
        return construct_product(build_h0(spec), build_scaling(spec), tol)

    # zeroed interior even site: threefold zero, one 2-block plus one 1-block
    h = product_with_zeros(9, [4])
    rep = ep_analyze(h, 0.0, tol)
    report["cases"]["a4_zero_n9"] = _plain(rep)
    assertions += [
        _assert_true("fig4.a4.algebraic_3", rep.algebraic_multiplicity == 3,
                     rep.algebraic_multiplicity),
        _assert_true("fig4.a4.geometric_2", rep.geometric_multiplicity == 2,
                     rep.geometric_multiplicity),
        _assert_true("fig4.a4.orders_2_1", rep.ep_orders == [2, 1], rep.ep_orders),
        _assert_le("fig4.a4.chain_residual", rep.chain_residuals, tol.zero_mode_rel),
    ]
    e4 = np.eye(9)[3]
    two_block = next(c for c, size in zip(rep.jordan_chains, rep.ep_orders) if size == 2)
    assertions.append(_assert_le(
        "fig4.a4.ep2_vector_is_e4",
        collinearity_residual(two_block[0], e4), tol.zero_mode_rel))
    # the analytic chain vector solves H J = t e4 up to kernel admixture
    j_vec = np.zeros(9)
    j_vec[0], j_vec[2] = -1.0, s ** -2
    assertions.append(_assert_le(
        "fig4.a4.analytic_chain_vector",
        collinearity_residual(h @ j_vec, e4), tol.zero_mode_rel))
    # the computed generalized vector lies in span{J} + ker(H)
    _, sv, vh = np.linalg.svd(h)
    kernel = vh[sv <= tol.nullity_rel * sv[0]].conj().T
    basis = np.column_stack([j_vec.astype(complex), kernel])
    coeffs, *_ = np.linalg.lstsq(basis, two_block[1], rcond=None)
    misfit = np.linalg.norm(basis @ coeffs - two_block[1])
    assertions.append(_assert_le("fig4.a4.generalized_vector_span",
                                 float(misfit / np.linalg.norm(two_block[1])),
                                 tol.zero_mode_rel))

    # zeroed first site: a simple zero for odd n, a second-order EP for even n
    for n, order, name in ((9, 1, "simple_zero"), (8, 2, "ep2")):
        rep = ep_analyze(product_with_zeros(n, [1]), 0.0, tol)
        report["cases"][f"a1_zero_n{n}"] = _plain(rep)
        structure = [rep.algebraic_multiplicity, rep.geometric_multiplicity, rep.ep_orders]
        assertions += [
            _assert_true(f"fig4.a1n{n}.{name}", structure == [order, 1, [order]], structure),
            _assert_le(f"fig4.a1n{n}.vector_is_e1",
                       collinearity_residual(rep.jordan_chains[0][0], np.eye(n)[0]),
                       tol.zero_mode_rel),
        ]
    assertions.append(_assert_le("fig4.a1n8.chain_residual", rep.chain_residuals,
                                 tol.zero_mode_rel))
    return ScenarioResult("fig4", assertions, {}, report)


def scenario_fig5(cfg: ScenarioConfig, tol: Tolerances,
                  calibration: dict) -> ScenarioResult:
    """First-order pump response of the zero mode vs exact threshold modes."""
    s = calibration["s"]
    n, t = cfg.n, 1.0
    pump = cfg.pump or PumpSpec(kappa0=0.02 * t, pumped_sites=(1,))
    kappa0 = pump.kappa0
    h, hpp = _product_pair(n, s, t, tol)

    assertions = []
    report: dict[str, Any] = {"s": s, "kappa0": kappa0, "systems": {}}
    overlay: dict[str, np.ndarray] = {"site": np.arange(1, n + 1)}

    for label, matrix in (("selective", h), ("standard", hpp)):
        hp = pumped_hamiltonian(matrix, pump, gamma=0.0)
        es = eig_full(hp, tol)
        zi = find_zero_mode(es, tol)
        thr = find_threshold(matrix, pump, tol)
        d = thr.threshold

        h_zz = matrix_elements(es, pump.pumped_sites, zi)[zi]
        # derivative of the tracked zero mode at gamma = 0, central difference
        h_fd = 1e-3 * kappa0
        tr = track_mode(matrix, pump, np.array([0.0, h_fd, 2 * h_fd]), tol)
        zmode = tr.zero_mode_index
        if zmode is None:
            raise NoZeroModeError("no frequency-pinned mode along the pump sweep")
        dwdg = (tr.eigenvalues[2, zmode] - tr.eigenvalues[0, zmode]) / (2 * h_fd)
        fd_gap = abs(dwdg - 1j * h_zz)
        assertions.append(_assert_le(f"fig5.{label}.dw_dgamma_match",
                                     fd_gap, 1e-6 * kappa0))

        resids = []
        gammas = [d / 4, d / 2, d]
        for g1 in gammas:
            pred = first_order(es, pump.pumped_sites, g1, zi, tol)
            odd_rel = (np.abs(pred.state_correction[0::2]).max()
                       / max(np.linalg.norm(pred.state_correction), 1e-300))
            if g1 == d:
                assertions.append(_assert_le(f"fig5.{label}.odd_site_correction",
                                             odd_rel, 1e-10))
            pumped = eig_full(pumped_hamiltonian(matrix, pump, g1), tol)
            exact = pumped.right(find_zero_mode(pumped, tol))
            exact = exact / (es.left(zi) @ exact)
            predicted = es.right(zi) + pred.state_correction
            resids.append(float(np.linalg.norm(exact - predicted)))
            if g1 == d:
                overlay[f"{label}_exact_abs"] = np.abs(exact / exact[0])
                overlay[f"{label}_predicted_abs"] = np.abs(predicted / predicted[0])
        slope = np.polyfit(np.log(gammas), np.log(resids), 1)[0]
        assertions.append(Assertion(
            name=f"fig5.{label}.quadratic_residual_scaling",
            passed=bool(slope >= 1.7), measured=float(slope), expected=">= 1.7"))
        report["systems"][label] = {
            "threshold": d, "gammas": gammas, "residuals": resids,
            "scaling_exponent": float(slope),
            "energy_slope": _plain(1j * h_zz),
        }

    tables = {"fig5_overlay": _table(overlay)}
    return ScenarioResult("fig5", assertions, tables, report)


def scenario_oscillators(cfg: ScenarioConfig, tol: Tolerances) -> ScenarioResult:
    """Mass-spring realization: spectra, analytic 2-mass case, time-domain oracle."""
    assertions = []
    # analytic two-mass case
    chain2 = OscillatorChain(n=2, masses=(1.0, 2.0), spring_k=1.0)
    lam = np.sort(np.linalg.eigvals(dynamical_matrix(chain2)).real)
    target = np.sort([(-3 - np.sqrt(3)) / 2, (-3 + np.sqrt(3)) / 2])
    assertions.append(_assert_le("oscillators.two_mass_eigenvalues",
                                 float(np.abs(lam - target).max()), 1e-10))
    freqs2 = eigenfrequencies(dynamical_matrix(chain2), tol)
    assertions.append(_assert_le(
        "oscillators.two_mass_frequencies",
        float(np.abs(freqs2 - np.sqrt(-target[::-1])).max()), 1e-10))

    # seeded random chain: reality + integration oracle
    rng = np.random.default_rng(cfg.seed)
    n = 8
    chain = OscillatorChain(n=n, masses=tuple(rng.uniform(0.3, 4.0, n)), spring_k=1.0)
    m = dynamical_matrix(chain)
    freqs = eigenfrequencies(m, tol)
    lam_all = np.linalg.eigvals(m)
    assertions.append(_assert_le("oscillators.spectrum_imag",
                                 float(np.abs(lam_all.imag).max()),
                                 tol.mech_spectrum_rel * spectral_norm(m)))

    # single-mode purity and frequency
    lam_r, vecs = np.linalg.eig(m)
    mid = int(np.argsort(np.sqrt(-lam_r.real))[n // 2])
    x0 = np.real(vecs[:, mid])
    x0 = x0 / np.abs(x0).max()
    w_target = float(np.sqrt(-lam_r.real[mid]))
    dt = 0.05 / freqs.max()
    steps = int(np.ceil(100 * 2 * np.pi / w_target / dt))
    traj = integrate(chain, x0, np.zeros(n), dt, steps, tol)
    measured = spectral_peaks(traj.positions[:, int(np.argmax(np.abs(x0)))], dt,
                              rel_floor=0.5)
    freq_err = float(np.abs(measured - w_target).min() / w_target) if len(measured) \
        else 1.0
    assertions.append(_assert_le("oscillators.single_mode_frequency", freq_err, 1e-3))

    # energy conservation at a finer step
    dt_e = 0.002 / freqs.max()
    x0r = rng.uniform(-1, 1, n)
    v0r = rng.uniform(-1, 1, n)
    traj_e = integrate(chain, x0r, v0r, dt_e, 20000, tol)
    energies = np.array([total_energy(chain, traj_e.positions[k], traj_e.velocities[k])
                         for k in range(0, len(traj_e.times), 100)])
    drift = float((energies.max() - energies.min()) / energies.mean())
    assertions.append(_assert_le("oscillators.energy_conservation", drift, 1e-6))

    # multi-mode recovery: every strong spectral peak sits on an eigenfrequency
    traj_m = integrate(chain, x0r, np.zeros(n), dt, 1 << 15, tol)
    peaks = spectral_peaks(traj_m.positions[:, 0], dt, rel_floor=3e-2)
    resolution = 2 * np.pi / (len(traj_m.times) * dt)
    worst = max((float(np.abs(freqs - pk).min()) for pk in peaks), default=0.0)
    assertions.append(_assert_le("oscillators.fourier_peaks_on_spectrum", worst,
                                 max(1e-3 * freqs.max(), 2 * resolution)))

    tables = {"oscillators_trajectory": _table({
        "time": traj.times[::50], **{f"x{i + 1}": traj.positions[::50, i] for i in range(n)}})}
    report = {
        "two_mass_eigenvalues": _plain(lam),
        "chain_masses": list(chain.masses),
        "eigenfrequencies": _plain(freqs),
        "measured_frequency": float(measured[np.argmin(np.abs(measured - w_target))])
        if len(measured) else None,
        "energy_drift": drift,
    }
    return ScenarioResult("oscillators", assertions, tables, report)


def scenario_properties(cfg: ScenarioConfig, tol: Tolerances) -> ScenarioResult:
    suite = run_properties(cfg.trials, cfg.seed, tol)
    assertions = [
        _assert_true(f"properties.{name}", suite.passes.get(name, 0) == cfg.trials,
                     f"{suite.passes.get(name, 0)}/{cfg.trials}")
        for name in SUITE_NAMES
    ]
    return ScenarioResult("properties", assertions, {},
                          {**_plain(suite), "all_passed": suite.all_passed})


def scenario_calibrate(cfg: ScenarioConfig, tol: Tolerances) -> ScenarioResult:
    record = calibrate_s(anchor=cfg.anchor, n=cfg.n, tol=tol)
    assertions = [
        _assert_le("calibrate.anchor_gap", abs(record["achieved"] - record["anchor"]),
                   1e-3),
        _assert_true("calibrate.thresholds_within_1pct",
                     all(c["within_1pct"] for c in record["threshold_checks"].values()),
                     record["threshold_checks"]),
    ]
    return ScenarioResult("calibrate_s", assertions, {}, record)


def scenario_custom(cfg: ScenarioConfig, tol: Tolerances) -> ScenarioResult:
    """User-supplied lattice: build, certify, and profile everything."""
    if cfg.lattice is None:
        raise ValueError("custom scenario requires a lattice spec")
    spec = cfg.lattice
    h0 = build_h0(spec)
    a = build_scaling(spec, allow_indefinite=True)
    h = construct_product(h0, a, tol)
    es = eig_full(h, tol)
    cert = certify(h, h0, es, tol)

    psd = bool(np.diagonal(a).real.min() >= 0)
    assertions = [
        _assert_le("custom.eigenpair_residuals", float(es.residuals.max()),
                   tol.residual_rel * es.matrix_norm),
    ]
    if psd:
        assertions.append(_assert_true("custom.spectrum_real", cert.is_real,
                                       cert.max_imag))
    else:
        assertions.append(_assert_le("custom.conjugation_closure",
                                     max(cert.pair_residuals),
                                     tol.reality_rel * es.matrix_norm))

    s_for_class = spec.s if spec.scaling == "geometric" else 1.0
    reports = mode_reports(es, s_for_class, tol)
    tables = {
        "custom_spectrum": _table({"index": np.arange(es.dim), "omega": es.eigenvalues}),
        "custom_modes": _mode_table(reports),
    }
    report = {
        "lattice": spec.to_dict(),
        "certificate": _plain(cert),
        # vectors mode by mode: the rows of the transposed matrices
        "eigensystem": _plain(replace(es, right_vectors=es.right_vectors.T,
                                      left_vectors=es.left_vectors.T)),
    }
    return ScenarioResult("custom", assertions, tables, report)


# ---------------------------------------------------------------------------
# dispatch and output writing

def _plain(obj: Any) -> Any:
    """The one output format: a dataclass becomes the dict of its fields, an
    array or tuple a list, a complex number [re, im], a numpy scalar its
    Python value."""
    if is_dataclass(obj):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_plain(x) for x in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    return [obj.real, obj.imag] if isinstance(obj, complex) else obj


def _table(columns: dict[str, Any]) -> tuple[list[str], list[list]]:
    """The one table format: ordered columns of equal length become a header
    and rows, a complex column the pair ``<name>_re``, ``<name>_im``, every
    cell a Python scalar."""
    header, cells = [], []
    for name, col in columns.items():
        col = np.asarray(col)
        if np.iscomplexobj(col):
            header += [f"{name}_re", f"{name}_im"]
            cells += [col.real.tolist(), col.imag.tolist()]
        else:
            header.append(name)
            cells.append(col.tolist())
    return header, [list(row) for row in zip(*cells)]


_MODE_COLUMNS = (("index", "mode_index"), ("omega", "eigenvalue"), ("ipr", "ipr"),
                 ("com", "com"), ("decay_rate", "decay_rate"), ("class", "classification"))


def _mode_table(reports: list[ModeReport]) -> tuple[list[str], list[list]]:
    """The mode table: one row per ``ModeReport``."""
    return _table({col: [getattr(r, attr) for r in reports] for col, attr in _MODE_COLUMNS})


def _json_text(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def run(cfg: ScenarioConfig) -> ScenarioResult:
    """Execute a scenario and write its outputs under cfg.out_dir."""
    tol = cfg.tol()
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    calibrated = {"fig2": scenario_fig2, "fig3": scenario_fig3, "fig4": scenario_fig4,
                  "fig5": scenario_fig5}
    if cfg.scenario in calibrated:
        result = calibrated[cfg.scenario](cfg, tol, load_or_calibrate(out_dir, tol))
    else:
        result = {"fig1": scenario_fig1, "oscillators": scenario_oscillators,
                  "properties": scenario_properties, "calibrate_s": scenario_calibrate,
                  "custom": scenario_custom}[cfg.scenario](cfg, tol)
    if cfg.scenario == "calibrate_s":
        (out_dir / "calibration.json").write_text(_json_text(result.report))
        result.files.append(str(out_dir / "calibration.json"))

    payload = {
        "scenario": result.scenario,
        "assertions": _plain(result.assertions),
        "passed": result.passed,
        "report": result.report,
    }
    if cfg.format == "csv":
        for name, (header, rows) in result.tables.items():
            path = out_dir / f"{name}.csv"
            path.write_text(_csv_text(header, rows))
            result.files.append(str(path))
    else:
        payload["tables"] = {name: {"header": header, "rows": rows}
                             for name, (header, rows) in result.tables.items()}
    report_path = out_dir / f"{result.scenario}_report.json"
    report_path.write_text(_json_text(payload))
    result.files.append(str(report_path))

    with (out_dir / "run.log").open("a") as log:
        log.write(f"{time.strftime('%Y-%m-%dT%H:%M:%S')} scenario={result.scenario} "
                  f"passed={result.passed}\n")
    return result
