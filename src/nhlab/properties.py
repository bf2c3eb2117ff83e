"""Randomized property suites over the spectral theorems.

A suite is a size law and a check of one size group.  One driver runs any
list of trial indices: every instance is drawn from its own deterministic RNG
keyed by (seed, suite, trial), the instances are grouped by size, and each
group is checked with one stacked call per kernel (``eig_full`` included).
One trial is the same code on a list of one, so any failure serializes to a
small record that replays the identical instance.  Instances are drawn and
built as arrays: the validated records (``LatticeSpec``, ``OscillatorChain``)
are for user and file input, not for the package's own draws.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT, Tolerances, _integer
from .eig import SELF_ORTHOGONAL, EigenSystem, eig_full
from .mech import OscillatorChain, eigenfrequencies, stiffness_matrix
from .model import (_adjoint, _geometric_products, construct_gauge, construct_product,
                    norm_scale, residual_norm)
from .spectra import _conjugate_matching


def _gaussians(rngs: Sequence[np.random.Generator], n: int, count: int = 1) -> np.ndarray:
    """Each RNG's next ``count`` complex Gaussian n x n matrices, stacked (k, count, n, n):
    one draw per RNG, each matrix's real part before its imaginary part."""
    x = np.stack([r.normal(size=(count, 2, n, n)) for r in rngs])
    return x[:, :, 0] + 1j * x[:, :, 1]


def _hermitian(g: np.ndarray) -> np.ndarray:
    return (g + _adjoint(g)) / 2


def _psd(b: np.ndarray, rank_deficiency: np.ndarray | None = None) -> np.ndarray:
    """B^dag B of each B, after zeroing its ``rank_deficiency`` smallest singular values."""
    if rank_deficiency is not None:
        u, sv, vh = np.linalg.svd(b)
        sv[np.arange(b.shape[-1]) >= b.shape[-1] - rank_deficiency[..., None]] = 0.0
        b = (u * sv[..., None, :]) @ vh
    return _hermitian(_adjoint(b) @ b)


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


def _chain_matrices(n: int, rngs: Sequence[np.random.Generator]) -> tuple[np.ndarray, ...]:
    """Each RNG's random chain, its n masses drawn uniform in [0.2, 5) and then its spring
    constant uniform in [0.5, 2), as stacked (M, M0, diag(1 / sqrt m)), with M and M0 those
    of ``dynamical_matrix`` and ``stiffness_matrix``."""
    draws = [(r.uniform(0.2, 5.0, n), r.uniform(0.5, 2.0)) for r in rngs]
    masses = np.array([m for m, _ in draws])
    k0 = np.array([k for _, k in draws])[:, None, None] * stiffness_matrix(
        OscillatorChain(n=n, masses=np.ones(n)))
    root = np.zeros_like(k0)
    root[:, range(n), range(n)] = 1.0 / np.sqrt(masses)
    return ((1.0 / masses)[:, :, None] * k0).astype(complex), k0, root


def _exceeding(what: str, values: np.ndarray, limits: np.ndarray,
               n: int) -> list[tuple[int, str]]:
    """(index, detail) of each instance whose value exceeds its limit."""
    return [(k, f"{what} {values[k]:.3e} > {limits[k]:.3e} (n={n})")
            for k in np.flatnonzero(values > limits)]


def _reality_psd(n, rngs, tol):
    g = _gaussians(rngs, n, 2)
    h = construct_product(_hermitian(g[:, 0]), _psd(g[:, 1]), tol)
    imag, rel = np.abs(np.linalg.eigvals(h).imag).max(axis=-1), tol.reality_rel
    return _exceeding("max|Im w| =", imag, rel * norm_scale(h, imag, rel), n)


def _pseudo_hermiticity(n, rngs, tol):
    g = _gaussians(rngs, n, 2)
    h0 = _hermitian(g[:, 0])
    sv = np.linalg.svd(h0, compute_uv=False)
    # a singular metric is vacuously skipped
    keep = np.flatnonzero(sv[:, -1] > tol.invertible_rel * sv[:, 0])
    if not keep.size:
        return []
    h0 = h0[keep]
    h = construct_product(h0, _psd(g[keep, 1]), tol)
    resid, limit = residual_norm(np.linalg.solve(h0, h @ h0) - _adjoint(h), h, tol.metric_rel)
    return [(keep[k], detail) for k, detail in _exceeding("metric residual", resid, limit, n)]


def _conjugate_closure_indefinite(n, rngs, tol):
    g = _gaussians(rngs, n, 2)
    h = construct_product(_hermitian(g[:, 0]), _hermitian(g[:, 1]), tol)
    resid = _conjugate_matching(np.linalg.eigvals(h))[1].max(axis=-1)
    return _exceeding("conjugation-closure residual", resid,
                      tol.reality_rel * norm_scale(h, resid, tol.reality_rel), n)


def _no_ep_psd_invertible(n, rngs, tol):
    g = _gaussians(rngs, n, 2)
    h = construct_product(_hermitian(g[:, 0]), _psd(g[:, 1]), tol)
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
    # each instance draws its rank deficiency, then A, then H0
    deficiency = np.array([r.integers(1, max(2, n // 2)) for r in rngs])
    g = _gaussians(rngs, n, 2)
    a = _psd(g[:, 0], deficiency)
    h = construct_product(_hermitian(g[:, 1]), a, tol)
    return [(k, _ep_location_detail(es, ak, n, tol))
            for k, (es, ak) in enumerate(zip(eig_full(h, tol), a))]


def _gauge_similarity(n, rngs, tol):
    h0 = _hermitian(_gaussians(rngs, n)[:, 0])
    a = np.zeros_like(h0)
    a[:, range(n), range(n)] = [r.uniform(0.2, 3.0, n) for r in rngs]
    hpp = construct_gauge(h0, a, tol)
    w0 = np.sort(np.linalg.eigvalsh(h0), axis=-1)
    w = np.sort(np.linalg.eigvals(hpp).real, axis=-1)
    gap, rel = np.abs(w - w0).max(axis=-1), tol.spectra_match_rel
    return _exceeding("gauge spectrum gap", gap,
                      rel * np.maximum(norm_scale(h0, gap, rel), 1e-300), n)


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
    partner, resid = _conjugate_matching(1j * w)
    mu = np.flatnonzero(partner >= np.arange(len(w)))    # each pair once, by its first mode
    nu = partner[mu]
    checked = (mu != nu) | (np.abs(w[mu]) > tol.zero_mode_rel * es.matrix_norm)
    unpaired = checked & (resid[mu] > tol.reality_rel * es.matrix_norm)
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
    m = _chain_matrices(n, rngs)[0]
    try:
        eigenfrequencies(m, tol)
    except ValueError:
        for k, mk in enumerate(m):      # each failure detail is its lone trial's
            try:
                eigenfrequencies(mk, tol)
            except ValueError as exc:
                yield k, f"{exc} (n={n})"


def _mech_hermitian_equivalent(n, rngs, tol):
    m, k0, root = _chain_matrices(n, rngs)
    w = np.sort(np.linalg.eigvals(m.real).real, axis=-1)
    we = np.sort(np.linalg.eigvalsh(root @ k0 @ root), axis=-1)
    gap, rel = np.abs(w - we).max(axis=-1), tol.spectra_match_rel
    return _exceeding("mass-graded equivalent spectrum gap", gap,
                      rel * np.maximum(norm_scale(m, gap, rel), 1e-300), n)


class _Seeded(np.random.bit_generator.ISeedSequence):
    """Known PCG64 seed words, as ``SeedSequence.generate_state(4, np.uint64)`` gives them."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _hash(v: np.ndarray, init: int, mult: int, j: int) -> np.ndarray:
    """numpy ``SeedSequence``'s j-th hashmix of uint32 words v (constants init * mult^j)."""
    v = (v ^ np.uint32(init * pow(mult, j, 1 << 32) & 0xFFFFFFFF)) * np.uint32(
        init * pow(mult, j + 1, 1 << 32) & 0xFFFFFFFF)
    return v ^ v >> 16


def _trial_rngs(seed: int, suite: int, trials: Sequence[int]) -> list[np.random.Generator]:
    """``np.random.default_rng([seed, suite, trial])`` of each trial, bit for bit: numpy's
    ``SeedSequence`` hash (its constants, a pool of four 32-bit words) of every key of at
    most four words at once, in uint32 array arithmetic; a longer key takes numpy's own."""
    words = [x >> s & 0xFFFFFFFF for x in (seed, suite) for s in range(0, x.bit_length() or 1, 32)]
    if len(words) > 3 or any(t >> 32 for t in trials):
        return [np.random.default_rng([seed, suite, t]) for t in trials]
    key = np.zeros((4, len(trials)), dtype=np.uint32)
    key[:len(words)], key[len(words)] = np.array(words, dtype=np.uint32)[:, None], trials
    pool = [_hash(v, 0x43b0d7e5, 0x931e8875, j) for j, v in enumerate(key)]
    for j, (src, dst) in enumerate(itertools.permutations(range(4), 2), 4):
        v = np.uint32(0xca01f9dd) * pool[dst] - np.uint32(0x4973f715) * _hash(
            pool[src], 0x43b0d7e5, 0x931e8875, j)
        pool[dst] = v ^ v >> 16
    state = np.stack([_hash(v, 0x8b51f9dd, 0x58f38ded, j) for j, v in enumerate(pool * 2)], -1)
    return [np.random.Generator(np.random.PCG64(_Seeded(s)))
            for s in state.astype("<u4").view("<u8").astype(np.uint64)]


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
    for pos, rng in enumerate(_trial_rngs(seed, SUITE_NAMES.index(suite), trials)):
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
