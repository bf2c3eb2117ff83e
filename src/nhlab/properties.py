"""Randomized property suites over the spectral theorems.

A suite is a size law and a check of one size group.  One driver runs any
list of trial indices: every instance is drawn from its own deterministic RNG
keyed by (seed, suite, trial), the instances are grouped by size, and each
group is checked with one stacked call per kernel (``eig_full`` included).
One trial is the same code on a list of one, so any failure serializes to a
small record that replays the identical instance.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Tolerances, _integer
from .eig import SELF_ORTHOGONAL, EigenSystem, eig_full
from .mech import OscillatorChain, dynamical_matrix, eigenfrequencies, stiffness_matrix
from .model import (LatticeSpec, _adjoint, build_h0, build_scaling, construct_gauge,
                    construct_product, norm_scale, residual_norm)
from .spectra import conjugate_pairs


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


def _stack(draws: list[tuple[np.ndarray, ...]]) -> tuple[np.ndarray, ...]:
    """Per-instance tuples of arrays as one stacked array per field."""
    return tuple(np.stack(column) for column in zip(*draws))


def _random_chain(rng, n: int) -> OscillatorChain:
    return OscillatorChain(n=n, masses=tuple(rng.uniform(0.2, 5.0, n)),
                           spring_k=float(rng.uniform(0.5, 2.0)))


def _exceeding(what: str, values: np.ndarray, limits: np.ndarray,
               n: int) -> list[tuple[int, str]]:
    """(index, detail) of each instance whose value exceeds its limit."""
    return [(k, f"{what} {values[k]:.3e} > {limits[k]:.3e} (n={n})")
            for k in np.flatnonzero(values > limits)]


def _reality_psd(n, rngs, tol):
    h = construct_product(*_stack([(_random_hermitian(r, n), _random_psd(r, n))
                                   for r in rngs]), tol)
    imag, rel = np.abs(np.linalg.eigvals(h).imag).max(axis=-1), tol.reality_rel
    return _exceeding("max|Im w| =", imag, rel * norm_scale(h, imag, rel), n)


def _pseudo_hermiticity(n, rngs, tol):
    h0 = np.stack([_random_hermitian(r, n) for r in rngs])
    sv = np.linalg.svd(h0, compute_uv=False)
    # a singular metric is vacuously skipped, before its A is drawn
    keep = np.flatnonzero(sv[:, -1] > tol.invertible_rel * sv[:, 0])
    if not keep.size:
        return []
    h0 = h0[keep]
    h = construct_product(h0, np.stack([_random_psd(rngs[k], n) for k in keep]), tol)
    resid, limit = residual_norm(np.linalg.solve(h0, h @ h0) - _adjoint(h), h, tol.metric_rel)
    return [(keep[k], detail) for k, detail in _exceeding("metric residual", resid, limit, n)]


def _conjugate_closure_indefinite(n, rngs, tol):
    h = construct_product(*_stack([(_random_hermitian(r, n), _random_hermitian(r, n))
                                   for r in rngs]), tol)
    resid = np.array([max(conjugate_pairs(w)[1]) for w in np.linalg.eigvals(h)])
    return _exceeding("conjugation-closure residual", resid,
                      tol.reality_rel * norm_scale(h, resid, tol.reality_rel), n)


def _no_ep_psd_invertible(n, rngs, tol):
    h = construct_product(*_stack([(_random_hermitian(r, n), _random_psd(r, n))
                                   for r in rngs]), tol)
    return [(k, f"statuses {es.norm_status} for invertible PSD scaling (n={n})")
            for k, es in enumerate(eig_full(h, tol)) if not es.all_biorthonormal]


def _ep_location_detail(es: EigenSystem, a: np.ndarray, n: int, tol: Tolerances) -> str | None:
    """The first self-orthogonal mode away from w = 0 or outside ker A."""
    for mu in np.flatnonzero(np.array(es.norm_status) == SELF_ORTHOGONAL):
        if abs(es.eigenvalues[mu]) > tol.cluster_rel * es.matrix_norm:
            return (f"self-orthogonal mode at w = {es.eigenvalues[mu]:.3e}, "
                    f"away from zero (n={n})")
        v = es.right(mu)
        if np.linalg.norm(a @ v) > tol.nullity_rel * np.linalg.norm(v):
            return f"self-orthogonal mode with A psi != 0 (n={n})"
    return None


def _ep_location_psd_singular(n, rngs, tol):
    # each instance draws A before H0
    a = np.stack([_random_psd(r, n, rank_deficiency=int(r.integers(1, max(2, n // 2))))
                  for r in rngs])
    h = construct_product(np.stack([_random_hermitian(r, n) for r in rngs]), a, tol)
    return [(k, _ep_location_detail(es, ak, n, tol))
            for k, (es, ak) in enumerate(zip(eig_full(h, tol), a))]


def _gauge_similarity(n, rngs, tol):
    h0 = np.stack([_random_hermitian(r, n) for r in rngs])
    hpp = np.stack([construct_gauge(h, np.diag(r.uniform(0.2, 3.0, n)).astype(complex), tol)
                    for h, r in zip(h0, rngs)])
    w0 = np.sort(np.linalg.eigvalsh(h0), axis=-1)
    w = np.sort(np.linalg.eigvals(hpp).real, axis=-1)
    gap, rel = np.abs(w - w0).max(axis=-1), tol.spectra_match_rel
    return _exceeding("gauge spectrum gap", gap,
                      rel * np.maximum(norm_scale(h0, gap, rel), 1e-300), n)


def _geometric_products(ratios: list[float], n: int, tol: Tolerances) -> np.ndarray:
    """The stack of products H0 A of unit-coupling geometric chains, one per ratio."""
    specs = [LatticeSpec(n=n, t=1.0, scaling="geometric", s=s) for s in ratios]
    return construct_product(np.stack([build_h0(spec) for spec in specs]),
                             np.stack([build_scaling(spec) for spec in specs]), tol)


def _coupling_ratio_geometric(n, rngs, tol):
    ratios = [float(r.uniform(1.05, 3.0)) for r in rngs]
    h = _geometric_products(ratios, n, tol)
    s = np.array(ratios)[:, None]
    ratio = (np.diagonal(h, 1, -2, -1) / np.diagonal(h, -1, -2, -1)).real
    off = np.abs(ratio - s) > 1e-13 * s
    bond = np.argmax(off, axis=1)
    return [(k, f"coupling ratio {ratio[k, bond[k]]!r} != s = {ratios[k]!r} "
                f"at bond {bond[k] + 1}") for k in np.flatnonzero(off.any(axis=1))]


def _chiral_detail(es: EigenSystem, n: int, s: float, tol: Tolerances) -> str | None:
    """The first mode without a partner at -w of the same |psi| profile."""
    w = es.eigenvalues
    pairs, resid = conjugate_pairs(1j * w)
    mu, nu = np.array(pairs).T
    checked = (mu != nu) | (np.abs(w[mu]) > tol.zero_mode_rel * es.matrix_norm)
    unpaired = checked & (np.array(resid) > tol.reality_rel * es.matrix_norm)
    profile = np.abs(es.right_vectors) / np.linalg.norm(es.right_vectors, axis=0)
    differ = checked & (np.abs(profile[:, mu] - profile[:, nu]).max(axis=0) > 1e-8)
    bad = np.flatnonzero(unpaired | differ)
    if not bad.size:
        return None
    if unpaired[bad[0]]:
        return f"no chiral partner for w = {w[mu[bad[0]]].real:.6g} (n={n}, s={s:.3f})"
    return f"chiral partners differ in |psi| (n={n}, s={s:.3f})"


def _chiral_pairing(n, rngs, tol):
    ratios = [float(r.uniform(1.1, 2.2)) for r in rngs]
    return [(k, _chiral_detail(es, n, s, tol)) for k, (s, es) in
            enumerate(zip(ratios, eig_full(_geometric_products(ratios, n, tol), tol)))]


def _mech_reality(n, rngs, tol):
    for k, r in enumerate(rngs):
        try:
            eigenfrequencies(dynamical_matrix(_random_chain(r, n)), tol)
        except ValueError as exc:
            yield k, f"{exc} (n={n})"


def _mech_hermitian_equivalent(n, rngs, tol):
    chains = [_random_chain(r, n) for r in rngs]
    m, root, k0 = _stack([(dynamical_matrix(c), np.diag(1.0 / np.sqrt(np.array(c.masses))),
                           stiffness_matrix(c)) for c in chains])
    w = np.sort(np.linalg.eigvals(m.real).real, axis=-1)
    we = np.sort(np.linalg.eigvalsh(root @ k0 @ root), axis=-1)
    gap, rel = np.abs(w - we).max(axis=-1), tol.spectra_match_rel
    return _exceeding("mass-graded equivalent spectrum gap", gap,
                      rel * np.maximum(norm_scale(m, gap, rel), 1e-300), n)


def _between(lo: int, hi: int) -> Callable[[np.random.Generator], int]:
    return lambda rng: int(rng.integers(lo, hi))


# suite name -> (size law: a trial's first draw, its n; check of one size group:
# (n, rngs, tol) -> (index in the group, failure detail or None) pairs).  The
# order of the names keys every trial's RNG.
_SUITES: dict[str, tuple[Callable[[np.random.Generator], int],
                         Callable[[int, Sequence[np.random.Generator], Tolerances],
                                  Iterable[tuple[int, str | None]]]]] = {
    "reality_psd": (_between(2, 31), _reality_psd),
    "pseudo_hermiticity": (_between(2, 31), _pseudo_hermiticity),
    "conjugate_closure_indefinite": (_between(2, 31), _conjugate_closure_indefinite),
    "no_ep_psd_invertible": (_between(2, 21), _no_ep_psd_invertible),
    "ep_location_psd_singular": (_between(3, 21), _ep_location_psd_singular),
    "gauge_similarity": (_between(2, 31), _gauge_similarity),
    "coupling_ratio_geometric": (_between(3, 21), _coupling_ratio_geometric),
    "chiral_pairing": (lambda rng: int(rng.integers(2, 8)) * 2 + 1, _chiral_pairing),  # odd
    "mech_reality": (_between(1, 41), _mech_reality),
    "mech_hermitian_equivalent": (_between(1, 41), _mech_hermitian_equivalent),
}
SUITE_NAMES = tuple(_SUITES)


def _details(suite: str, seed: int, trials: Sequence[int], tol: Tolerances) -> list[str | None]:
    """One entry per trial: None on a pass, the failure detail otherwise.

    Each trial's RNG, keyed by (seed, suite, trial), first draws the size;
    the trials of one size are checked together, each drawing the rest of its
    instance from its own RNG in the order a lone trial draws it, so grouping
    never changes an instance.
    """
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; known: {SUITE_NAMES}")
    size, check = _SUITES[suite]
    groups: dict[int, list[tuple[int, np.random.Generator]]] = {}
    for pos, trial in enumerate(trials):
        rng = np.random.default_rng([seed, SUITE_NAMES.index(suite), trial])
        groups.setdefault(size(rng), []).append((pos, rng))
    details: list[str | None] = [None] * len(trials)
    for n, members in groups.items():
        positions, rngs = zip(*members)
        for k, detail in check(n, rngs, tol):
            details[positions[k]] = detail
    return details


def run_trial(suite: str, seed: int, trial: int, tol: Tolerances = DEFAULT) -> str | None:
    """Run one instance; return None on pass, a failure detail on violation."""
    return _details(suite, _integer(seed, "seed", 0), [_integer(trial, "trial", 0)], tol)[0]


def run_properties(trials: int, seed: int, tol: Tolerances = DEFAULT) -> SuiteReport:
    trials, seed = _integer(trials, "trials", 1), _integer(seed, "seed", 0)
    report = SuiteReport(seed=seed, trials=trials)
    for suite in SUITE_NAMES:
        details = _details(suite, seed, range(trials), tol)
        report.passes[suite] = details.count(None)
        report.failures += [TrialFailure(suite=suite, trial=trial, seed=seed, detail=detail)
                            for trial, detail in enumerate(details) if detail is not None]
    return report


def replay_instance(record: dict, tol: Tolerances = DEFAULT) -> str | None:
    """Re-run one serialized failing instance; returns the same outcome."""
    return run_trial(record["suite"], record["seed"], record["trial"], tol)
