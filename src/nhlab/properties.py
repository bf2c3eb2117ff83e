"""Randomized property suites over the spectral theorems.

Each suite runs ``trials`` independent instances drawn from a deterministic
RNG keyed by (seed, suite, trial), so any failure serializes to a small
record that replays the identical instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Tolerances
from .eig import SELF_ORTHOGONAL, eig_full
from .mech import OscillatorChain, dynamical_matrix, eigenfrequencies, stiffness_matrix
from .model import (LatticeSpec, build_h0, build_scaling, construct_gauge,
                    construct_product, spectral_norm)
from .spectra import conjugate_pairs

SUITE_NAMES = (
    "reality_psd",
    "pseudo_hermiticity",
    "conjugate_closure_indefinite",
    "no_ep_psd_invertible",
    "ep_location_psd_singular",
    "gauge_similarity",
    "coupling_ratio_geometric",
    "chiral_pairing",
    "mech_reality",
    "mech_hermitian_equivalent",
)


def _rng(seed: int, suite: str, trial: int) -> np.random.Generator:
    if suite not in SUITE_NAMES:
        raise ValueError(f"unknown suite {suite!r}; known: {SUITE_NAMES}")
    return np.random.default_rng([seed, SUITE_NAMES.index(suite), trial])


def _random_hermitian(rng, n: int) -> np.ndarray:
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (g + g.conj().T) / 2


def _random_psd(rng, n: int, rank_deficiency: int = 0) -> np.ndarray:
    b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if rank_deficiency:
        u, sv, vh = np.linalg.svd(b)
        sv[n - rank_deficiency:] = 0.0
        b = (u * sv) @ vh
    a = b.conj().T @ b
    return (a + a.conj().T) / 2


@dataclass
class TrialFailure:
    suite: str
    trial: int
    seed: int
    detail: str


@dataclass
class SuiteReport:
    seed: int
    trials: int
    passes: dict[str, int] = field(default_factory=dict)
    failures: list[TrialFailure] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return not self.failures


def run_trial(suite: str, seed: int, trial: int, tol: Tolerances = DEFAULT) -> str | None:
    """Run one instance; return None on pass, a failure detail on violation."""
    rng = _rng(seed, suite, trial)

    if suite == "reality_psd":
        n = int(rng.integers(2, 31))
        h = construct_product(_random_hermitian(rng, n), _random_psd(rng, n), tol)
        w = np.linalg.eigvals(h)
        lim = tol.reality_rel * spectral_norm(h)
        if np.abs(w.imag).max() > lim:
            return f"max|Im w| = {np.abs(w.imag).max():.3e} > {lim:.3e} (n={n})"
        return None

    if suite == "pseudo_hermiticity":
        n = int(rng.integers(2, 31))
        h0 = _random_hermitian(rng, n)
        sv = np.linalg.svd(h0, compute_uv=False)
        if sv[-1] <= tol.invertible_rel * sv[0]:
            return None  # singular metric: vacuously skipped
        h = construct_product(h0, _random_psd(rng, n), tol)
        resid = spectral_norm(np.linalg.solve(h0, h @ h0) - h.conj().T)
        lim = tol.metric_rel * spectral_norm(h)
        if resid > lim:
            return f"metric residual {resid:.3e} > {lim:.3e} (n={n})"
        return None

    if suite == "conjugate_closure_indefinite":
        n = int(rng.integers(2, 31))
        h = construct_product(_random_hermitian(rng, n), _random_hermitian(rng, n), tol)
        _, resid = conjugate_pairs(np.linalg.eigvals(h))
        lim = tol.reality_rel * spectral_norm(h)
        if max(resid) > lim:
            return f"conjugation-closure residual {max(resid):.3e} > {lim:.3e} (n={n})"
        return None

    if suite == "no_ep_psd_invertible":
        n = int(rng.integers(2, 21))
        h = construct_product(_random_hermitian(rng, n), _random_psd(rng, n), tol)
        es = eig_full(h, tol)
        if not es.all_biorthonormal:
            return f"statuses {es.norm_status} for invertible PSD scaling (n={n})"
        return None

    if suite == "ep_location_psd_singular":
        n = int(rng.integers(3, 21))
        defect = int(rng.integers(1, max(2, n // 2)))
        a = _random_psd(rng, n, rank_deficiency=defect)
        h = construct_product(_random_hermitian(rng, n), a, tol)
        es = eig_full(h, tol)
        for mu, status in enumerate(es.norm_status):
            if status != SELF_ORTHOGONAL:
                continue
            if abs(es.eigenvalues[mu]) > tol.cluster_rel * es.matrix_norm:
                return (f"self-orthogonal mode at w = {es.eigenvalues[mu]:.3e}, "
                        f"away from zero (n={n})")
            v = es.right(mu)
            if np.linalg.norm(a @ v) > tol.nullity_rel * np.linalg.norm(v):
                return f"self-orthogonal mode with A psi != 0 (n={n})"
        return None

    if suite == "gauge_similarity":
        n = int(rng.integers(2, 31))
        h0 = _random_hermitian(rng, n)
        a = np.diag(rng.uniform(0.2, 3.0, n)).astype(complex)
        hpp = construct_gauge(h0, a, tol)
        w0 = np.sort(np.linalg.eigvalsh(h0))
        w = np.sort(np.linalg.eigvals(hpp).real)
        lim = tol.spectra_match_rel * max(spectral_norm(h0), 1e-300)
        gap = np.abs(w - w0).max()
        if gap > lim:
            return f"gauge spectrum gap {gap:.3e} > {lim:.3e} (n={n})"
        return None

    if suite == "coupling_ratio_geometric":
        n = int(rng.integers(3, 21))
        s = float(rng.uniform(1.05, 3.0))
        spec = LatticeSpec(n=n, t=1.0, scaling="geometric", s=s)
        h = construct_product(build_h0(spec), build_scaling(spec), tol)
        for j in range(n - 1):
            ratio = (h[j, j + 1] / h[j + 1, j]).real
            if abs(ratio - s) > 1e-13 * s:
                return f"coupling ratio {ratio!r} != s = {s!r} at bond {j + 1}"
        return None

    if suite == "chiral_pairing":
        n = int(rng.integers(2, 8)) * 2 + 1   # odd
        s = float(rng.uniform(1.1, 2.2))
        spec = LatticeSpec(n=n, t=1.0, scaling="geometric", s=s)
        es = eig_full(construct_product(build_h0(spec), build_scaling(spec), tol), tol)
        w = es.eigenvalues
        pairs, resid = conjugate_pairs(1j * w)
        for (mu, nu), r in zip(pairs, resid):
            if mu == nu and abs(w[mu]) <= tol.zero_mode_rel * es.matrix_norm:
                continue
            if r > tol.reality_rel * es.matrix_norm:
                return f"no chiral partner for w = {w[mu].real:.6g} (n={n}, s={s:.3f})"
            p = np.abs(es.right(mu)) / np.linalg.norm(es.right(mu))
            q = np.abs(es.right(nu)) / np.linalg.norm(es.right(nu))
            if np.abs(p - q).max() > 1e-8:
                return f"chiral partners differ in |psi| (n={n}, s={s:.3f})"
        return None

    if suite == "mech_reality":
        n = int(rng.integers(1, 41))
        chain = OscillatorChain(n=n, masses=tuple(rng.uniform(0.2, 5.0, n)),
                                spring_k=float(rng.uniform(0.5, 2.0)))
        try:
            eigenfrequencies(dynamical_matrix(chain), tol)
        except ValueError as exc:
            return f"{exc} (n={n})"
        return None

    if suite == "mech_hermitian_equivalent":
        n = int(rng.integers(1, 41))
        chain = OscillatorChain(n=n, masses=tuple(rng.uniform(0.2, 5.0, n)),
                                spring_k=float(rng.uniform(0.5, 2.0)))
        m = dynamical_matrix(chain)
        root = np.diag(1.0 / np.sqrt(np.array(chain.masses)))
        equiv = root @ stiffness_matrix(chain) @ root
        w = np.sort(np.linalg.eigvals(m).real)
        we = np.sort(np.linalg.eigvalsh(equiv))
        gap = np.abs(w - we).max()
        lim = tol.spectra_match_rel * max(spectral_norm(m), 1e-300)
        if gap > lim:
            return f"mass-graded equivalent spectrum gap {gap:.3e} > {lim:.3e} (n={n})"
        return None


def run_properties(trials: int, seed: int, tol: Tolerances = DEFAULT) -> SuiteReport:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    report = SuiteReport(seed=seed, trials=trials)
    for suite in SUITE_NAMES:
        passed = 0
        for trial in range(trials):
            detail = run_trial(suite, seed, trial, tol)
            if detail is None:
                passed += 1
            else:
                report.failures.append(TrialFailure(suite=suite, trial=trial,
                                                    seed=seed, detail=detail))
        report.passes[suite] = passed
    return report


def replay_instance(record: dict, tol: Tolerances = DEFAULT) -> str | None:
    """Re-run one serialized failing instance; returns the same outcome."""
    return run_trial(record["suite"], int(record["seed"]), int(record["trial"]), tol)
