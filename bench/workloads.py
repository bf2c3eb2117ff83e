"""The four benchmark workloads and their independent oracles.

A workload has a ``setup(seed, small)`` that makes its inputs (the program
receives only these generated specs and matrices) and a ``run_pass(inputs,
rec)`` that drives nhlab's public API once.  Every nhlab call goes through
``rec.call`` so it is timed and counted as one operation; ``rec.check`` and
``rec.within`` then judge its output.  nhlab functions are looked up on their
module at call time, so the tracer's wrappers are seen when installed.

The host's speed drifts by up to 1.5x within a second (a fixed loop of
interpreter and BLAS work swings between about 1.2 and 1.9 ms), so the
host's speed is probed before and after each call and, while the interpreter
runs, every ``SAMPLE_INTERVAL_S`` during it.  The call's time is also given
scaled to the reference speed: ``seconds * REFERENCE_PROBE_S / mean(probes)``.

An operation fails when it raises, when its own certificate or verdict is
false, or when an oracle disagrees with it.  Oracles are computed here with
scipy routines nhlab does not use, on matrices built here, never by nhlab.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import signal
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy.linalg

import nhlab.cli
import nhlab.config
import nhlab.eig
import nhlab.laser
import nhlab.model
import nhlab.perturb
import nhlab.skin
import nhlab.spectra

TOL = nhlab.config.DEFAULT
WORK_DIR = Path(__file__).resolve().parent / ".work"

# speed_probe's time on an Intel Xeon KVM guest at 2.1 GHz in its fast spells
REFERENCE_PROBE_S = 1.25e-3
SAMPLE_INTERVAL_S = 0.2     # a probe costs ~2.5 ms, so sampling takes ~1 % of a call
_PROBE_MATRIX = np.random.default_rng(0).normal(size=(48, 48))
_probe_eigvals = np.linalg.eigvals    # bound before the tracer can wrap it


def speed_probe() -> float:
    """Best of two timings of a fixed mix of interpreter and LAPACK work."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        acc = 0
        for i in range(15000):
            acc += i * i
        _probe_eigvals(_PROBE_MATRIX)
        best = min(best, perf_counter() - start)
    return best


@contextlib.contextmanager
def speed_samples(probes: list[float], spent: list[tuple[float, float]]):
    """Append a probe to ``probes`` every SAMPLE_INTERVAL_S and its (start,
    duration) to ``spent``.  The handler runs only between bytecodes, so a long
    LAPACK call gets its sample when it returns."""
    def handler(signum, frame):
        start = perf_counter()
        probes.append(speed_probe())
        spent.append((start, perf_counter() - start))

    previous = signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Op:
    name: str
    seconds: float
    error: str = ""
    scaled_s: float = 0.0    # seconds at the reference speed


@dataclass
class PassRecord:
    """Operations, failures and accuracy ratios of one pass."""

    ops: list[Op] = field(default_factory=list)
    oracle_failures: list[str] = field(default_factory=list)
    margins: list[tuple[str, float]] = field(default_factory=list)
    output_bytes: int = 0
    probe_s: float = 0.0     # the latest speed probe, shared by neighbouring calls
    sampling: bool = True    # off in traced passes, whose spans would hold the probes

    @property
    def program_s(self) -> float:
        return sum(op.seconds for op in self.ops)

    @property
    def scaled_s(self) -> float:
        return sum(op.scaled_s for op in self.ops)

    @property
    def failed(self) -> list[Op]:
        return [op for op in self.ops if op.error]

    def call(self, name: str, fn, *args, **kwargs):
        """Time one program call; None stands for an input that failed upstream."""
        op = Op(name, 0.0)
        self.ops.append(op)
        if any(a is None for a in args):
            op.error = "input unavailable: an earlier operation failed"
            return None
        probes, spent = [self.probe_s or speed_probe()], []
        with speed_samples(probes, spent) if self.sampling else contextlib.nullcontext():
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:   # every failure mode is an outcome to count
                op.error = f"{type(exc).__name__}: {exc}"
                out = None
            end = perf_counter()
        op.seconds = end - start - sum(d for t, d in spent if t < end)
        self.probe_s = speed_probe()
        probes.append(self.probe_s)
        op.scaled_s = op.seconds * REFERENCE_PROBE_S / statistics.fmean(probes)
        return out

    def check(self, ok: bool, what: str, oracle: bool = False) -> bool:
        """Judge the latest operation; a failed oracle also marks the pass incorrect."""
        op = self.ops[-1]
        if not ok:
            if not op.error:
                op.error = what
            if oracle:
                self.oracle_failures.append(f"{op.name}: {what}")
        return ok

    def within(self, what: str, residual: float, limit: float, oracle: bool = False) -> bool:
        """Residual against its tolerance; the ratio feeds accuracy_margin."""
        self.margins.append((f"{self.ops[-1].name}: {what}", residual / limit))
        return self.check(residual <= limit, f"{what} {residual:.3e} > {limit:.3e}", oracle)


# ---------------------------------------------------------------------------
# inputs built here, independent of nhlab's builders

def chain_h0(n: int, t: float = 1.0) -> np.ndarray:
    return t * (np.eye(n, k=1) + np.eye(n, k=-1))


def geometric_ratio(n: int, total: float = 1e4) -> float:
    """s with s^(n-1) = total, so the skin ratio is fixed across the sweep."""
    return total ** (1.0 / (n - 1))


def random_unitary(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def from_spectrum(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    m = (u * w) @ u.conj().T
    return (m + m.conj().T) / 2


def random_hermitian(rng, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Random eigenvectors; eigenvalues of random sign with |w| in [0.5, 2]."""
    return random_unitary(rng, n), rng.uniform(0.5, 2.0, n) * rng.choice((-1.0, 1.0), n)


def random_psd(rng, n: int, rank_deficiency: int) -> tuple[np.ndarray, np.ndarray]:
    """Random eigenvectors; eigenvalues in [0.5, 2], the last ``rank_deficiency`` zero."""
    w = rng.uniform(0.5, 2.0, n)
    w[n - rank_deficiency:] = 0.0
    return random_unitary(rng, n), w


def spectrum_gap(eigenvalues: np.ndarray, reference: np.ndarray) -> float:
    return float(np.abs(np.sort(eigenvalues.real) - np.sort(reference)).max()
                 + np.abs(eigenvalues.imag).max())


# ---------------------------------------------------------------------------
# paper: the CLI scenarios at the paper's size

PAPER_COMMANDS = ("calibrate_s", "fig1", "fig2", "fig3", "fig4", "fig5", "oscillators",
                  "properties")
ACCURACY_ASSERTIONS = ("reality_max_imag", "chain_residual", "balance_", "eigenpair_residuals")


PAPER_SEED_STRIDE = 1_000_000   # the CLI seeds of one run: seed, seed + stride, ...


@dataclass
class PaperInputs:
    """The CLI seeds of a pass.  The ``oscillators`` step count and the property
    trials' sizes depend on the seed, so a pass averages over three of them."""

    seeds: tuple[int, ...]
    trials: int
    reference: dict[tuple[int, str], str] = field(default_factory=dict)  # -> sha256
    passes: int = 0


def paper_setup(seed: int, small: bool) -> PaperInputs:
    return PaperInputs(seeds=tuple(seed + j * PAPER_SEED_STRIDE for j in range(3)),
                       trials=4 if small else 200)


def _owner(filename: str) -> str:
    if filename == "calibration.json":
        return "calibrate_s"
    return next(c for c in PAPER_COMMANDS if filename.startswith(c))


def paper_pass(inp: PaperInputs, rec: PassRecord) -> None:
    for seed in inp.seeds:
        out = WORK_DIR / f"{os.getpid()}-pass{inp.passes}-seed{seed}"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        try:
            _paper_seed(inp, seed, out, rec)
        finally:
            shutil.rmtree(out, ignore_errors=True)
    inp.passes += 1


def _paper_seed(inp: PaperInputs, seed: int, out: Path, rec: PassRecord) -> None:
    """Every scenario for one CLI seed into ``out``, then the byte-identity oracle."""
    for command in PAPER_COMMANDS:
        argv = [command, "--out", str(out), "--seed", str(seed)]
        if command == "properties":
            argv += ["--trials", str(inp.trials)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = rec.call(f"{command} seed={seed}", nhlab.cli.main, argv)
        if not rec.check(code == 0, f"exit status {code}"):
            continue
        report = json.loads((out / f"{command}_report.json").read_text())
        failed = [a["name"] for a in report["assertions"] if not a["passed"]]
        rec.check(not failed, f"assertions failed: {failed}")
        for a in report["assertions"]:
            if (a["expected"].startswith("<= ") and a["expected"] != "<= 0"
                    and any(k in a["name"] for k in ACCURACY_ASSERTIONS)):
                rec.margins.append((a["name"], a["measured"] / float(a["expected"][3:])))
    digests = {}
    for path in sorted(out.iterdir()):
        if path.name != "run.log":
            data = path.read_bytes()
            rec.output_bytes += len(data)
            digests[seed, path.name] = hashlib.sha256(data).hexdigest()
    first = {k: v for k, v in inp.reference.items() if k[0] == seed}
    if not first:
        inp.reference.update(digests)
        first = digests
    for key in sorted(set(digests) | set(first)):
        if digests.get(key) != first.get(key):
            owner = f"{_owner(key[1])} seed={seed}"
            for op in rec.ops:
                if op.name == owner and not op.error:
                    op.error = f"{key[1]} differs from the first pass"
            rec.oracle_failures.append(f"{owner}: {key[1]} is not byte-identical")


# ---------------------------------------------------------------------------
# skin_sweep: structured chains at large n, eig and spectra layers

@dataclass
class Chain:
    n: int
    s: float
    spec: nhlab.model.LatticeSpec
    b_diag: np.ndarray     # sqrt(a_j), for the oracle


def skin_setup(seed: int, small: bool) -> list[Chain]:
    chains = []
    for n in ((11, 21) if small else (101, 201, 401)):
        s = geometric_ratio(n)
        spec = nhlab.model.LatticeSpec(n=n, t=1.0, scaling="geometric", s=s)
        chains.append(Chain(n, s, spec, s ** (np.arange(n) / 2.0)))
    return chains


def skin_pass(chains: list[Chain], rec: PassRecord) -> None:
    model, eig, spectra, skin = nhlab.model, nhlab.eig, nhlab.spectra, nhlab.skin
    for c in chains:
        tag = f"n={c.n}"
        h0 = rec.call(f"build_h0 {tag}", model.build_h0, c.spec)
        a = rec.call(f"build_scaling {tag}", model.build_scaling, c.spec)
        h = rec.call(f"construct_product {tag}", model.construct_product, h0, a)
        hpp = rec.call(f"construct_gauge {tag}", model.construct_gauge, h0, a)
        b = rec.call(f"factor_psd {tag}", model.factor_psd, a)

        es_h = rec.call(f"eig_full H {tag}", eig.eig_full, h)
        if es_h is not None:
            # B H0 B is real-symmetric tridiagonal with off-diagonals t sqrt(a_j a_j+1)
            ref = scipy.linalg.eigh_tridiagonal(np.zeros(c.n), c.b_diag[:-1] * c.b_diag[1:],
                                                eigvals_only=True)
            rec.within("spectrum vs eigh_tridiagonal(B H0 B)",
                       spectrum_gap(es_h.eigenvalues, ref),
                       TOL.spectra_match_rel * es_h.matrix_norm, oracle=True)
            rec.within("eigenpair residual", es_h.residuals.max(),
                       TOL.residual_rel * es_h.matrix_norm)
        es_hpp = rec.call(f"eig_full H'' {tag}", eig.eig_full, hpp)
        if es_hpp is not None:
            rec.within("eigenpair residual", es_hpp.residuals.max(),
                       TOL.residual_rel * es_hpp.matrix_norm)
        es_h0 = rec.call(f"eig_full H0 {tag}", eig.eig_full, h0)
        if es_h0 is not None:
            rec.within("eigenpair residual", es_h0.residuals.max(),
                       TOL.residual_rel * es_h0.matrix_norm)

        _chain_spectra(rec, tag, h, h0, a, b, es_h)
        sel = rec.call(f"verify_selective_skin {tag}", skin.verify_selective_skin,
                       es_h, es_h0, c.s)
        if sel is not None:
            rec.check(sel.passed, "verdict passed=False")
        std = rec.call(f"verify_standard_skin {tag}", skin.verify_standard_skin,
                       es_hpp, es_h0, c.s)
        if std is not None:
            rec.check(std.passed, "verdict passed=False "
                      f"(max envelope residual {max(std.envelope_residuals):.1e})")
        zme = rec.call(f"zero_mode_equality {tag}", skin.zero_mode_equality, es_h, es_hpp)
        if zme is not None:
            rec.within("zero-mode residual", zme, TOL.zero_mode_rel)
        bmap = rec.call(f"bmap_correspondence {tag}", spectra.bmap_correspondence, h0, b)
        if bmap is not None:
            rec.within("B-map spectral gap", bmap.spectral_gap,
                       TOL.spectra_match_rel * es_h.matrix_norm if es_h else np.inf)
        ep = rec.call(f"ep_analyze {tag}", spectra.ep_analyze, h, 0.0)
        if ep is not None:
            rec.check(ep.algebraic_multiplicity == 1 and ep.ep_orders == [1],
                      f"odd chain should have a simple zero, got orders {ep.ep_orders}")
            rec.within("chain residual", ep.chain_residuals, TOL.zero_mode_rel)


def _chain_spectra(rec, tag, h, h0, a, b, es_h) -> None:
    """Metric pairing, certificate and inner-product audit of H = H0 A."""
    eig, spectra = nhlab.eig, nhlab.spectra
    pairing = rec.call(f"apply_metric_pairing {tag}", eig.apply_metric_pairing, es_h, a)
    if pairing is not None:
        rec.check(pairing.all_diagonal, "metric pairing is not diagonal")
    cert = rec.call(f"certify {tag}", spectra.certify, h, h0, es_h)
    if cert is not None:
        rec.within("max |Im w|", cert.max_imag, TOL.reality_rel * cert.matrix_norm)
    audit = rec.call(f"inner_product_audit {tag}", spectra.inner_product_audit, es_h, b)
    if audit is not None:
        rec.check(len(audit) == es_h.dim, "audit does not cover every mode")


# ---------------------------------------------------------------------------
# threshold_sweep: pumped lossy chains, laser layer

KAPPAS = (0.02, 1.0)


@dataclass
class LaserChain:
    n: int
    matrices: dict[str, np.ndarray]    # "H0 A" and "A^-1 H0 A"


def threshold_setup(seed: int, small: bool) -> list[LaserChain]:
    chains = []
    for n in ((11, 21) if small else (41, 101)):
        a = geometric_ratio(n) ** np.arange(n)
        h0 = chain_h0(n)
        chains.append(LaserChain(n, {"H0 A": (h0 * a[None, :]).astype(complex),
                                     "A^-1 H0 A": (h0 * a[None, :] / a[:, None]).astype(complex)}))
    return chains


def _pumped(h: np.ndarray, kappa0: float, gamma: float) -> np.ndarray:
    """H - i kappa0 + i gamma on site 1, built here for the oracles."""
    m = h - 1j * kappa0 * np.eye(len(h))
    m[0, 0] += 1j * gamma
    return m


def threshold_pass(chains: list[LaserChain], rec: PassRecord) -> None:
    laser = nhlab.laser
    for c in chains:
        for kappa0 in KAPPAS:
            pump = nhlab.laser.PumpSpec(kappa0=kappa0, pumped_sites=(1,))
            found = {}
            for label, m in c.matrices.items():
                tag = f"{label} n={c.n} kappa0={kappa0:g}"
                res = rec.call(f"find_threshold {tag}", laser.find_threshold, m, pump)
                if res is None:
                    continue
                found[label] = res.threshold
                lo = scipy.linalg.eigvals(_pumped(m, kappa0, res.bracket[0])).imag.max()
                at = scipy.linalg.eigvals(_pumped(m, kappa0, res.threshold)).imag.max()
                rec.check(lo < 0, f"max Im w = {lo:.3e} >= 0 at the bracket's low end",
                          oracle=True)
                rec.within("|max Im w| at threshold", abs(at), TOL.threshold_imag * kappa0,
                           oracle=True)
                flows = rec.call(f"power_flows {tag}", laser.power_flows, res.threshold_mode,
                                 _pumped(m, kappa0, res.threshold), pump, gamma=res.threshold)
                if flows is not None:
                    rec.within("power balance", flows.balance_residual,
                               TOL.balance_rel * flows.max_term)
            grid = np.linspace(0.0, max(found.values(), default=2 * kappa0), 41)
            for label, m in c.matrices.items():
                tr = rec.call(f"track_mode {label} n={c.n} kappa0={kappa0:g}",
                              laser.track_mode, m, pump, grid)
                if tr is not None:
                    rec.check(tr.zero_mode_index is not None, "no frequency-pinned mode")
            if kappa0 == KAPPAS[0] and "H0 A" in found:
                _first_order(rec, c, pump, found["H0 A"] / 2)


def _first_order(rec, c: LaserChain, pump, gamma1: float) -> None:
    """First-order zero-mode shift of the lossy H0 A against a finite difference."""
    m = c.matrices["H0 A"]
    tag = f"H0 A n={c.n}"
    lossy = rec.call(f"pumped_hamiltonian {tag}", nhlab.laser.pumped_hamiltonian, m, pump, 0.0)
    es = rec.call(f"eig_full lossy {tag}", nhlab.eig.eig_full, lossy)
    if es is None:
        return
    zi = int(np.argmin(np.abs(es.eigenvalues.real)))
    pred = rec.call(f"first_order {tag}", nhlab.perturb.first_order, es, (1,), gamma1, zi)
    if pred is None:
        return
    step = 1e-3 * pump.kappa0

    def zero_mode(gamma):
        w = scipy.linalg.eigvals(_pumped(m, pump.kappa0, gamma))
        return w[np.argmin(np.abs(w - es.eigenvalues[zi]))]

    slope = (zero_mode(step) - zero_mode(-step)) / (2 * step)
    rec.within("dw/dgamma vs finite difference", abs(pred.energy_correction / gamma1 - slope),
               1e-6, oracle=True)


# ---------------------------------------------------------------------------
# generic_dense: random Hermitian H0 times random non-diagonal PSD A

@dataclass
class DenseCase:
    n: int
    rank_deficiency: int
    h0: np.ndarray
    a: np.ndarray
    b_ref: np.ndarray      # A = B^dag B, for the oracle


def dense_setup(seed: int, small: bool) -> list[DenseCase]:
    """Spectra are drawn away from 0, so H has exactly ``rank_deficiency`` zero
    eigenvalues and every other one is far outside nhlab's cluster tolerance."""
    cases = []
    for n in ((12, 24) if small else (100, 200)):
        for rd in (0, max(1, n // 40)):
            rng = np.random.default_rng([seed, n, rd])
            h0 = from_spectrum(*random_hermitian(rng, n))
            u, w = random_psd(rng, n, rd)
            b_ref = np.sqrt(w)[:, None] * u.conj().T
            cases.append(DenseCase(n, rd, h0, from_spectrum(u, w), b_ref))
    return cases


def dense_pass(cases: list[DenseCase], rec: PassRecord) -> None:
    model, eig, spectra = nhlab.model, nhlab.eig, nhlab.spectra
    for c in cases:
        tag = f"n={c.n} rank_deficiency={c.rank_deficiency}"
        h = rec.call(f"construct_product {tag}", model.construct_product, c.h0, c.a)
        es = rec.call(f"eig_full {tag}", eig.eig_full, h)
        if es is not None:
            he = c.b_ref @ c.h0 @ c.b_ref.conj().T
            ref = scipy.linalg.eigvalsh((he + he.conj().T) / 2)
            rec.within("spectrum vs eigvalsh(B H0 B^dag)", spectrum_gap(es.eigenvalues, ref),
                       TOL.spectra_match_rel * es.matrix_norm, oracle=True)
            rec.within("eigenpair residual", es.residuals.max(),
                       TOL.residual_rel * es.matrix_norm)
        b = rec.call(f"factor_psd {tag}", model.factor_psd, c.a)
        _chain_spectra(rec, tag, h, c.h0, c.a, b, es)
        bmap = rec.call(f"bmap_correspondence {tag}", spectra.bmap_correspondence, c.h0, b)
        if bmap is not None:
            rec.within("B-map spectral gap", bmap.spectral_gap,
                       TOL.spectra_match_rel * es.matrix_norm if es else np.inf)
        ep = rec.call(f"ep_analyze {tag}", spectra.ep_analyze, h, 0.0)
        if ep is not None:
            rd = c.rank_deficiency
            rec.check(ep.algebraic_multiplicity == ep.geometric_multiplicity == rd,
                      f"zero cluster should be semisimple of size {rd}, got "
                      f"{ep.algebraic_multiplicity}/{ep.geometric_multiplicity}")
            rec.within("chain residual", ep.chain_residuals, TOL.zero_mode_rel)


@dataclass(frozen=True)
class Workload:
    setup: object       # (seed, small) -> inputs
    run_pass: object    # (inputs, PassRecord) -> None


WORKLOADS = {
    "paper": Workload(paper_setup, paper_pass),
    "skin_sweep": Workload(skin_setup, skin_pass),
    "threshold_sweep": Workload(threshold_setup, threshold_pass),
    "generic_dense": Workload(dense_setup, dense_pass),
}
