"""Lasing thresholds of lossy coupled-cavity chains under localized pumping.

Each site is a cavity with uniform loss kappa0 (a -i*kappa0 on the diagonal);
pumping adds +i*gamma on the pumped sites.  The threshold is the least gamma
at which an eigenvalue reaches the real axis: for a chain pumped at one site
p, the least 1/Im G_pp over the real roots w of Re G_pp(w + i*kappa0), G the
Green's function of its real symmetric T0, from an interval search in T0's
eigenbasis and O(n) continued fractions; otherwise Illinois regula falsi on M's
dense ``eigvals``.
A chain's modes are continued by Newton's method on the secular equation of the rank-r pump in
T0's eigenbasis (r x r moments, no vector formed) from a cubic Hermite prediction, each done once
a Newton-Kantorovich bound proves it within the stop; a step that misses its certificate or its
order takes a dense solve of T, matched by eigenvector overlap as other inputs are at every point.
Junction power flows quantify the exchange that sets the threshold scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .config import DEFAULT, Tolerances, _positive, _real, _record
from .eig import ChainForm, _tridiagonal_product, chain_form
from .model import _matrix, _sites, spectral_norm


class NoThresholdError(RuntimeError):
    """No eigenvalue crossed the real axis below gamma_max."""


class TrackingAmbiguityError(RuntimeError):
    """Eigenvector overlaps too close to call in ``track_mode``; a finer gamma
    grid is needed."""


@dataclass(frozen=True)
class PumpSpec:
    """Uniform cavity loss plus a pump on selected sites (1-based); the pump
    strength gamma is an argument of each function that applies it."""

    kappa0: float
    pumped_sites: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "kappa0", _positive(self.kappa0, "kappa0"))
        object.__setattr__(self, "pumped_sites", _sites(self.pumped_sites, "pumped_sites"))
        if not self.pumped_sites:
            raise ValueError("pumped_sites must be nonempty")

    @classmethod
    def from_dict(cls, d: dict) -> "PumpSpec":
        return _record(cls, d, "pump", ("kappa0", "pumped_sites"))


def pump_indicator(pumped_sites: tuple[int, ...], n: int) -> np.ndarray:
    """0/1 site vector of the pumped sites (``_sites``' rule, in 1..n)."""
    p = np.zeros(n)
    p[[j - 1 for j in _sites(pumped_sites, "pumped_sites", n)]] = 1.0
    return p


def pumped_hamiltonian(h: np.ndarray, pump: PumpSpec, gamma: float) -> np.ndarray:
    """H - i*kappa0*I + i*gamma*P (loss and pump are purely diagonal)."""
    m = _matrix(h, "h").copy()
    np.fill_diagonal(m, m.diagonal() - 1j * pump.kappa0
                     + 1j * _real(gamma, "gamma") * pump_indicator(pump.pumped_sites, len(m)))
    return m


_EPS = np.finfo(float).eps
_SECULAR_STEPS = 4      # Newton steps of a secular step, which evaluates once more
_POLISH_STEPS = 16      # Newton steps polishing a root of Re G_pp


class _PumpedChain:
    """The pumped matrices of one (h, pump): only the diagonal moves with gamma.

    ``top`` takes M(gamma)'s dense ``eigvals``.  With a ``ChainForm`` the rest
    acts on T(gamma) = D M(gamma) D^-1 = T0 - i*kappa0 + i*gamma*P, with M's
    eigenvalues but not its non-normality: ``basis`` diagonalizes T0 for an
    exact ``solve(0)`` and the secular ``step``; other solves are dense.
    """

    def __init__(self, h: np.ndarray, pump: PumpSpec, tol: Tolerances):
        self.h = _matrix(h, "h")
        self.n = self.h.shape[0]
        self.form = chain_form(self.h)
        self.pump, self.tol = pump, tol
        self.base = self.h.diagonal() - 1j * pump.kappa0
        self.p = pump_indicator(pump.pumped_sites, self.n)

    def diagonal(self, gamma: float) -> np.ndarray:
        return self.base + 1j * gamma * self.p

    def top(self, gamma: float) -> complex:
        """The eigenvalue of largest Im w of M(gamma), from a dense ``eigvals``."""
        w = np.linalg.eigvals(pumped_hamiltonian(self.h, self.pump, gamma))
        return complex(w[w.imag.argmax()])

    @cached_property
    def basis(self) -> tuple | None:
        """(lam, U, up, uu, ends, gap, scale): T0 = U diag(lam) U^T by ``eigh_tridiagonal``, up its
        pumped rows, uu their r^2 products, ends rows 1 and lam, gap to each pole's nearest; scale,
        T(gamma)'s largest squared column norms (unpumped; pumped, less (gamma - kappa0)^2) and
        trace T0.  None without a ``ChainForm`` or if a residual exceeds ``residual_rel`` * c."""
        if self.form is None:
            return None
        off, diag = self.form.off, self.form.diag
        try:
            lam, u = scipy.linalg.eigh_tridiagonal(diag, off, check_finite=False)
        except np.linalg.LinAlgError:
            return None
        res = np.linalg.norm(_tridiagonal_product(off, diag, off, u) - lam * u, axis=0)
        ok = np.all(res <= self.tol.residual_rel * _column_norm(off, self.diagonal(0.0)))
        up, gap = u[self.p > 0], np.diff(lam, prepend=-np.inf, append=np.inf)
        uu, ends = (up[:, None] * up).reshape(-1, self.n), np.array([np.ones(self.n), lam])
        col, k0 = np.square(diag) + np.r_[0.0, off * off] + np.r_[off * off, 0.0], self.pump.kappa0
        scale = col[self.p == 0].max(initial=-np.inf) + k0 * k0, col[self.p > 0].max(), diag.sum()
        return (lam, u, up, uu, ends, np.fmin(gap[:-1], gap[1:]), scale) if ok else None

    def solve(self, gamma: float) -> tuple[np.ndarray, np.ndarray]:
        """Exact spectrum and unit vectors: of T(gamma) for a chain, else of M."""
        if self.form is None:
            a = pumped_hamiltonian(self.h, self.pump, gamma)
        elif gamma == 0 and self.basis is not None:
            return self.basis[0] - 1j * self.pump.kappa0, self.basis[1].astype(complex)
        else:
            off = self.form.off
            a = np.diag(self.diagonal(gamma)) + np.diag(off, 1) + np.diag(off, -1)
        w, v = np.linalg.eig(a)
        return w, v / np.linalg.norm(v, axis=0)

    def seed(self, w: np.ndarray, v: np.ndarray) -> tuple | None:
        """The secular state (mu, dw/dgamma) of exact modes (w, v): the pole mu
        nearest w + i*kappa0, and i (v o v)^T p / v^T v; None without a basis."""
        if self.basis is None:
            return None
        sq = v * v
        return (np.abs(self.basis[0] - (w + 1j * self.pump.kappa0)[:, None]).argmin(axis=1),
                1j * (self.p @ sq) / sq.sum(axis=0))

    def step(self, w: np.ndarray, mu: np.ndarray, slope: np.ndarray, gamma0: float,
             gamma: float, prev: tuple | None = None) -> tuple | None:
        """Modes w at gamma0 (poles mu, dw/dgamma ``slope``) continued to gamma as (w, (mu, slope))
        by Newton's method on ``_secular`` from the cubic Hermite prediction through (w, slope)
        and ``prev`` = (w, slope, gamma) of the point before (else the first-order one).  A mode
        is stepped and done once its Newton-Kantorovich err is within stop = 64 eps c (c:
        T(gamma)'s largest column norm), its residual then res, in at most ``_SECULAR_STEPS`` + 1
        evaluations.  None unless every mode is done, all residuals and |sum w - trace T| are
        within ``residual_rel * c``, the eigenvalues are pairwise more than ``cluster_rel * c``
        apart and each prediction is nearest its own root (``_separated``)."""
        bound, n, dg, k0 = self.tol.residual_rel, len(w), gamma - gamma0, self.pump.kappa0
        (lam, _, up, *_, (cu, cp, tr)), basis = self.basis, self.basis
        c, trace = np.sqrt(max(cu, cp + (gamma - k0) ** 2)), complex(tr, gamma * len(up) - k0 * n)
        t, (pw, sp, _) = (0.0, (w, slope, 0)) if prev is None else (dg / (gamma0 - prev[2]), prev)
        guess = w + dg * (1 + t) * ((1 + t) * slope + t * sp) - t * t * (3 + 2 * t) * (w - pw)
        res, slope, stop, pole = np.empty(n), np.empty(n, complex), 64 * _EPS * c, lam[mu] - 1j * k0
        delta, todo, at = guess - pole, np.arange(n), slice(None)
        with np.errstate(all="ignore"):          # a non-finite value fails the certificate
            for _ in range(_SECULAR_STEPS + 1):
                f, df, _, slope[at], err, res[at], *_ = _secular(basis, mu[at], delta[at], gamma)
                delta[at] -= f / df
                todo = at = todo[~(err <= stop)]    # at: a slice at the first evaluation
                if not todo.size:
                    break
            w = pole + delta
            if (not todo.size and res.max() <= bound * c and abs(w.sum() - trace) <= bound * c
                    and _separated(w, guess, self.tol.cluster_rel * c)):
                return w, (mu, slope)
        return None

    def vectors(self, w: np.ndarray, mu: np.ndarray, gamma: float) -> np.ndarray:
        """Unit vectors U y^T of modes w (poles mu) at gamma, ``_secular``'s y (rows, y_mu = 1)."""
        lam, u, up = self.basis[:3]
        x = lam - (z := w + 1j * self.pump.kappa0)[:, None]
        x[np.arange(len(mu)), mu] = np.inf                        # y_mu = 1
        q = _secular(self.basis, mu, z - lam[mu], gamma)[-1].reshape(len(mu), -1)
        v = u @ np.where(np.isinf(x), 1.0, -(q @ up) * (1j * gamma / x)).T
        return v / np.linalg.norm(v, axis=0)


def _separated(w: np.ndarray, guess: np.ndarray, limit: float) -> bool:
    """Every |w_i - w_j| > limit and each guess_i nearest w_i.  The least gap g of the sorted
    Re w is at most every |w_i - w_j|, so g > limit and each |guess_i - w_i| < g / 2 (less
    4 eps relative, for round-off) decide it; only where they do not, n x n distances do."""
    re, n = np.sort(w.real), len(w)
    g = np.minimum.reduce(re[1:] - re[:-1], initial=np.inf)
    return bool(g > limit and np.abs(guess - w).max() < (0.5 - 2 * _EPS) * g or (
        np.abs(w[:, None] - w)[~np.eye(n, dtype=bool)].min(initial=np.inf) > limit
        and np.array_equal(np.abs(guess[:, None] - w).argmin(axis=1), np.arange(n))))


def _column_norm(off: np.ndarray, diag: np.ndarray) -> float:
    """Largest column 2-norm of a symmetric tridiagonal T, a lower bound on its norm."""
    col, sq = np.abs(diag) ** 2, np.abs(off) ** 2
    col[:-1] += sq
    col[1:] += sq
    return float(np.sqrt(col.max()))


def _secular(basis: tuple, mu: np.ndarray, delta: np.ndarray, gamma: float) -> tuple:
    """(F, F', unit residual, dz/dgamma, err, res, B, rho, q) of each mode at z = lam_mu + delta.

    w is an eigenvalue of T(gamma) iff z = w + i*kappa0 is a root of det(I + i gamma up (lam -
    z)^-1 up^T); without the pole mu, F = -delta + i gamma u_mu^T q, q = K^-1 u_mu, K = I + i
    gamma S_1.  y_mu = 1, y_nu = -i gamma wgt_nu u_nu^T q leave T's residual F e_mu: |F| / |y| is
    the unit residual, F' = -y^T y = -1 + gamma^2 q^T S_2 q, |y|^2 = 1 + gamma^2 q^H S_a q and
    dz/dgamma = i q^T q / y^T y, for S_1, S_2, S_a the r x r moments sum_nu c_nu u_nu u_nu^T of c =
    wgt = 1 / (lam - z) (0 at mu), wgt^2, |wgt|^2 = g: sums of g, h = Re wgt, h^2 and g h over
    blocks of at most ``_BLOCK`` (modes x poles), scalars for r = 1.  Newton's step is eta = (|F| +
    e) / |F'|, e = 4 eps (|F| + 2 |delta| + r gamma ||K^-1|| ||K|| ||q|| for r > 1, the r x r
    solve's backward error).  Other poles are d0 = |(gap - |Re delta|)+ + i Im delta| or more away.
    On |delta' - delta| <= rho = 2 eta, if 64 rho <= d0 and 64 gamma ||K0^-1|| rho <= d0^2, K^-1,
    |y|^2 - 1 <= N (its terms' moduli) and S_a grow at most 63/62-, (64/63 + 1/62)^2- and
    (64/63)^2-fold, so F'' = 2 gamma^2 q^T S_3 q - 2 i gamma^3 (S_2 q)^T K^-1 S_2 q is at most
    B = 2.25 N (1 / d0 + gamma ||K0^-1|| ||S_a||) (Frobenius).  If h = B eta / |F'| <= 0.4, a root
    is within err = h eta + e / |F'| (else inf) of the step, its residual res = B eta^2 / 2 + 2e."""
    lam, _, up, uu, ends, gap, _ = basis
    (m, n), r, z = (len(mu), len(lam)), len(up), lam[mu] + delta
    size, sums, x = max(1, _BLOCK // n), np.empty((4, m, len(uu))), np.ones((m, 2))
    x[:, 0] = -z.real                # x @ ends = lam - Re z, each rounded once, as subtracted
    for j in range(0, m, size):
        p, t = mu[j:j + size], np.empty((4, min(size, m - j), n))     # g, h, h^2, g h
        g, h = t[0], np.matmul(x[j:j + size], ends, out=t[1])     # no broadcast: a faster loop
        np.add(np.square(h, out=g), z.imag[j:j + size, None] ** 2, out=g)
        g[np.arange(len(p)), p] = np.inf                               # the pole taken out
        h *= np.reciprocal(g, out=g)
        np.multiply(t[1::-1], h, out=t[2:])
        for i, c in enumerate(uu):       # matrix-vector products: no sum depends on the blocks
            sums[:, j:j + size, i] = (t.reshape(-1, n) @ c).reshape(4, -1)
    zi, (g, h, hh, gh) = (z.imag, sums[..., 0]) if r == 1 else (z.imag[:, None], sums)
    k, sa = 1j * gamma * h - gamma * zi * g, gamma * gamma * g           # K - I, gamma^2 S_a
    s2 = gamma * gamma * (g - 2 * hh) - 2j * gamma * gamma * (zi * gh)   # -gamma^2 S_2
    if r == 1:
        um, kn, san, slack = up[0, mu], 1 / np.abs(k := k + 1), sa, 2 * np.abs(delta)
        q, n0 = um / k, sa * np.square(um * kn)
        f, yy, sq = 1j * gamma * (um * q) - delta, 1 + s2 * (qq := q * q), n0
    else:           # solve, not inv(k) @ u_mu, whose error the slack's last term does not bound
        k, um, norm = k.reshape(m, r, r) + np.eye(r), up.T[mu], np.linalg.norm
        q, kn = np.linalg.solve(k, um[..., None])[..., 0], norm(np.linalg.inv(k), axis=(1, 2))
        f, qq = 1j * gamma * np.add.reduce(um * q, 1) - delta, np.add.reduce(q * q, 1)
        yy = np.add.reduce(s2 * (q[:, :, None] * q[:, None]).reshape(m, -1), 1, initial=1)
        terms = sa * (q.conj()[:, :, None] * q[:, None]).reshape(m, -1).real     # |y|^2 - 1
        sq, n0, san = np.add.reduce(terms, 1), np.add.reduce(abs(terms), 1), norm(sa, axis=1)
        slack = 2 * np.abs(delta) + r * gamma * kn * norm(k, axis=(1, 2)) * norm(q, axis=1)
    a, e = np.abs(yy), 4 * _EPS * ((af := np.abs(f)) + slack)
    eta, d0 = (af + e) / a, np.hypot(np.fmax(gap[mu] - np.abs(delta.real), 0.0), delta.imag)
    b = n0 * (2.25 / d0 + kn * san * (2.25 / gamma))
    ok = ((bh := b * eta) <= 0.4 * a) & (128 * eta * np.fmax(d0, gamma * kn) <= d0 * d0)
    return (f, -yy, af / np.sqrt(1 + sq), 1j * qq / yy, np.where(ok, ((be := bh * eta) + e) / a,
            np.inf), be / 2 + 2 * e, b, 2 * eta, q)


@dataclass
class Trajectory:
    """Eigenvalues followed along a pump-strength grid: ``eigenvalues[k, mu]``
    is mode mu at gammas[k], in the (Re, Im)-sorted order of the first point,
    which a secular step keeps and a dense solve matches by eigenvector
    overlap.  ``zero_mode_index``: the mode whose Re(w) stays at zero, if one."""

    gammas: np.ndarray
    eigenvalues: np.ndarray          # shape (len(gammas), n)
    zero_mode_index: int | None


def _match_modes(overlaps: np.ndarray, margin: float, gamma: float) -> np.ndarray:
    """Greedy maximal-overlap permutation, ``overlaps[prev, new] >= 0``: rows
    in order each take their largest unused column, and a row whose best and
    second-best unused overlaps differ by less than ``margin * best`` raises
    TrackingAmbiguityError."""
    n = overlaps.shape[0]
    perm, used = np.full(n, -1), np.zeros(n, dtype=bool)
    for prev in range(n):
        row = overlaps[prev].copy()
        row[used] = -1.0
        b = int(np.argmax(row))
        second = np.delete(row, b).max(initial=-1.0)
        if second > 0 and (row[b] - second) < margin * row[b]:
            raise TrackingAmbiguityError(
                f"overlap tie at gamma={gamma:.6g} "
                f"({row[b]:.4f} vs {second:.4f}); refine the grid")
        perm[prev] = b
        used[b] = True
    return perm


def track_mode(h: np.ndarray, pump: PumpSpec, gamma_grid: np.ndarray,
               tol: Tolerances = DEFAULT) -> Trajectory:
    """Follow every eigenvalue of the pumped Hamiltonian along the grid: a chain by certified
    secular steps (``_PumpedChain.step``), any other point by a dense solve matched by overlap."""
    try:
        grid = np.asarray(gamma_grid, dtype=float)
    except (TypeError, ValueError):
        raise ValueError(f"gamma_grid {gamma_grid!r} is not an array of real numbers") from None
    failed = (f"must be 1-D, got shape {grid.shape}" if grid.ndim != 1
              else f"must have at least 2 points, got {len(grid)}" if len(grid) < 2
              else "must be finite" if not np.all(np.isfinite(grid))
              else "must be strictly ascending" if np.any(np.diff(grid) <= 0)
              else f"must start at >= 0, got {float(grid[0])!r}" if grid[0] < 0 else None)
    if failed:
        raise ValueError(f"gamma_grid {failed}")
    for g in gamma_grid:              # no strings or bools that float() would take
        _real(g, "gamma_grid entry")
    chain = _PumpedChain(h, pump, tol)
    traj = np.zeros((len(grid), chain.n), dtype=complex)
    w, v = chain.solve(grid[0])
    order = np.lexsort((w.imag, w.real))
    w, v = w[order], v[:, order]
    traj[0] = w
    state, prev = chain.seed(w, v), None   # state None: a dense solve at every point

    for k in range(1, len(grid)):
        moved = None if state is None else chain.step(w, *state, grid[k - 1], grid[k], prev)
        if moved is None:                  # a dense solve, matched by overlap
            if v is None:                  # the previous point was a secular step
                v = chain.vectors(w, state[0], grid[k - 1])
            wn, vn = chain.solve(grid[k])
            perm = _match_modes(np.abs(v.conj().T @ vn), tol.track_margin, grid[k])
            w, v = wn[perm], vn[:, perm]
            state, prev = chain.seed(w, v), None
        else:                              # prev: the point the Hermite prediction extends
            (w, state), v, prev = moved, None, (w, state[1], grid[k - 1])
        traj[k] = w

    norm = max(spectral_norm(chain.h), 1e-300)
    pinned = np.flatnonzero(np.abs(traj.real).max(axis=0) <= tol.zero_mode_rel * norm)
    zero_idx = int(pinned[0]) if len(pinned) == 1 else None
    return Trajectory(gammas=grid, eigenvalues=traj, zero_mode_index=zero_idx)


@dataclass
class ThresholdResult:
    """First real-axis crossing of the pumped spectrum (``track_mode`` gives its path)."""

    threshold: float                  # pump strength at the crossing
    threshold_mode: np.ndarray        # eigenvector, 1 at the pumped site of largest |psi|
    bracket: tuple[float, float]      # (lo, hi), hi the threshold's end; see find_threshold


def _green(c: np.ndarray, b: np.ndarray, p: int, z: np.ndarray) -> tuple:
    """(R_p, phi, s) at each z, T0 = tridiag(b, c, b): R_p = 1/G_pp by r_k =
    c_k - z - b_k (b_k / r_{k+1}) from each end to p (no b_k^2 to overflow),
    phi = G e_p / G_pp by phi_{k+1} = -(b_k / r_{k+1}) phi_k, s = sum |terms|."""
    r, s, sides = c[p] - z, np.abs(c[p] - z), []
    for cs, bs in ((c[p + 1:], b[p:]), (c[:p][::-1], b[:p][::-1])):   # right, then left
        ratio, tail = np.empty((len(cs),) + z.shape, dtype=complex), 0.0
        for k in range(len(cs) - 1, -1, -1):
            ratio[k] = bs[k] / (cs[k] - z - tail)
            tail = bs[k] * ratio[k]
        r, s = r - tail, s + np.abs(tail)
        sides.append(np.cumprod(-ratio, axis=0))
    return r, np.concatenate((sides[1][::-1], np.ones((1,) + z.shape), sides[0])), s


_BLOCK = 2 ** 14        # elements of the largest (cells x n) array of the crossing search


def _terms(lam: np.ndarray, c: np.ndarray, k0: float, w: np.ndarray) -> tuple:
    """(F, F', G), a row of per-pole terms at each point w: for G_pp(z) = sum c / (lam - z),
    Re G_pp(w + i*k0) = sum F, its w-derivative sum F' and Im G_pp = k0 sum G."""
    x = lam - w[:, None]
    q = 1.0 / (x * x + k0 * k0)
    g = c * q
    return x * g, g - 2 * k0 * k0 * g * q, g


def _enclose(lam: np.ndarray, c: np.ndarray, k0: float, tn: float, a: np.ndarray,
             b: np.ndarray) -> tuple:
    """(f(a), f(b), (lo, hi) of f, f' and g / k0) on cells [a, b] in [-tn, tn], tn >= |lam|,
    on which every term is monotone: sums of the terms' lesser and greater end values (Moore,
    *Interval Analysis*), widened with e = (n + 24) eps and h = hi of g / k0 by 4 e tn h for
    f = Re G_pp and by e (1 + 4 tn / k0) h for f', which bound rounding and a shift of each
    pole by e tn, and for g = Im G_pp by a factor 1 -+ rho, rho = sqrt(eps) + e (1 + tn / k0).
    Touching cells, b_i = a_i+1 (a first-level block), share the terms of their common ends."""
    e, touch = (len(lam) + 24) * _EPS, np.array_equal(a[1:], b[:-1])
    t = _terms(lam, c, k0, np.r_[a, b[-1:] if touch else b])
    ta, tb = [x[:len(a)] for x in t], [x[-len(b):] for x in t]
    lo, hi = ([op(u, v).sum(axis=1) for u, v in zip(ta, tb)] for op in (np.minimum, np.maximum))
    sf, sd, rho = 4 * e * tn * hi[2], e * (1 + 4 * tn / k0) * hi[2], _EPS**0.5 + e * (1 + tn / k0)
    return (ta[0].sum(axis=1), tb[0].sum(axis=1), (lo[0] - sf, hi[0] + sf),
            (lo[1] - sd, hi[1] + sd), ((1 - rho) * lo[2], (1 + rho) * hi[2]))


def _crossings(lam: np.ndarray, c: np.ndarray, k0: float,
               tn: float) -> tuple[np.ndarray, np.ndarray]:
    """(w, isolated): candidate real roots of f = Re G_pp(w + i*k0), G_pp(z) = sum c / (lam -
    z), lam ascending, c >= 0, |lam| <= tn, and which hold one root for sure.

    Left of every pole f > 0, right of every pole f < 0.  Cells of [lam_1, lam_n], cut at the
    poles, their midpoints and lam +- k0, lam +- sqrt(3) k0, where a term of f or f' turns, are
    taken ``_BLOCK`` / n at a time and bounded by ``_enclose``.  A cell whose f-bounds exclude
    0 holds no root; one whose f'-bounds do holds one iff f(a), f(b) differ in sign (a shared
    end decides two cells alike), found by Newton's method from the secant point, bisecting
    where a step leaves the bracket.  The greatest lower g-bound of such cells drops every cell
    whose upper g-bound is below it: none holds the least gamma = 1 / g, or one within 4 eps.
    Other cells are bisected down to a width of 4 eps (tn + k0) + cbrt(eps) k0, about where a
    triple root is resolved (k0 is the width of each term), as finer cells around a multiple
    root multiply like one over the root of their width; each run of touching undecided cells
    may hold a multiple root or a close pair, and its ends and midpoint are candidates."""
    if lam[0] == lam[-1]:            # the poles, and so the roots, coincide in floating point
        return lam[:1], np.array([True])
    eps, step = _EPS, max(1, _BLOCK // len(lam))
    floor = 4 * eps * (tn + k0)
    coarse = floor + np.cbrt(eps) * k0
    cuts = np.concatenate([lam, (lam[1:] + lam[:-1]) / 2]
                          + [lam + s * k0 for s in (-3 ** 0.5, -1.0, 1.0, 3 ** 0.5)])
    cuts = np.unique(cuts[(lam[0] <= cuts) & (cuts <= lam[-1])])
    cells, top, roots, loose = np.array([cuts[:-1], cuts[1:]]), 0.0, [], []
    while cells.shape[1]:
        (a, b), cells = cells[:, :step], cells[:, step:]
        fa, fb, (flo, fhi), (dlo, dhi), (glo, ghi) = _enclose(lam, c, k0, tn, a, b)
        live, mono = (flo <= 0) & (fhi >= 0), (dlo > 0) | (dhi < 0)
        one = live & mono & ((fa > 0) != (fb > 0))
        top = max(top, glo[one].max(initial=0.0))
        roots.append(np.array([a, b, fa, fb, ghi])[:, one])
        live &= ~mono & (ghi >= top)
        loose.append(np.array([a, b])[:, live & (b - a <= coarse)])
        live &= b - a > coarse
        mid = (a[live] + b[live]) / 2
        cells = np.hstack((cells, [a[live], mid], [mid, b[live]]))     # the halves
    roots = np.hstack(roots)
    roots, w = roots[:4, roots[4] >= top], []
    for i in range(0, roots.shape[1], step):
        a, b, fa, fb = roots[:, i:i + step]
        x = np.clip(a - fa * (b - a) / (fb - fa), a, b)   # the secant point
        for _ in range(64):                     # bisection alone reaches floor in 52
            f, df, _ = (t.sum(axis=1) for t in _terms(lam, c, k0, x))
            right = (f > 0) == (fa > 0)                      # the root lies right of x
            a, b = np.where(right, x, a), np.where(right, b, x)
            x0, x = x, x - f / df
            x = np.where((a <= x) & (x <= b), x, (a + b) / 2)
            if np.all((np.abs(x - x0) <= floor) | (b - a <= floor)):
                break
        w.append(x)
    loose = np.hstack(loose)
    a, b = loose[:, loose[0].argsort()]
    a, b = a[a > np.r_[-np.inf, b[:-1]]], b[b < np.r_[a[1:], np.inf]]   # runs of touching cells
    w = np.concatenate(w + [a, (a + b) / 2, b])
    return w, np.arange(len(w)) < roots.shape[1]


def _one_site_threshold(form: ChainForm, p: int, kappa0: float,
                        tol: Tolerances) -> tuple[float, np.ndarray]:
    """(gamma*, phi): the least pump at which T(gamma) = T0 - i*kappa0 +
    i*gamma*e_p e_p^T (p 0-based) has a real eigenvalue w, and its vector
    (phi_p = 1).  det(T(gamma) - w) = det(T0 - z) (1 + i gamma G_pp(z)), z =
    w + i*kappa0, so w is one iff Re G_pp = 0, and then gamma = -Im R_p > 0.

    One ``eigh_tridiagonal`` gives G_pp = sum_k U[p, k]^2 / (lam_k - z), and
    ``_crossings`` the candidate w.  Newton on Re R_p (dR_p/dz = -phi^T phi)
    polishes each on O(n) continued fractions (``_green``), keeping its iterate
    of least |Re R_p| / s, until every |Re R_p| <= 4 eps (s + |w phi^T phi|) or
    for ``_POLISH_STEPS`` steps; it certifies where that least is <=
    residual_rel (Re R_p is row p's residual of (T(gamma) - w) phi = 0).  An
    isolated root that fails raises; an undecided one counts only where it
    certifies.  Of the w whose gamma is within 4 eps gamma of the least, the
    least w is taken, not the one round-off picks among a chiral chain's +-w.
    Once 6 eps ||Q_p||_1 >= kappa0 the search raises (Q_p: [[T0, -kappa0],
    [kappa0, T0]] without row and column p, whose real spectrum is the roots).
    """
    n, eps = len(form.diag), _EPS
    col = np.abs(form.diag) + np.convolve(np.abs(form.off), [1.0, 1.0])   # T0's column sums
    qn = (col + kappa0 * (np.arange(n) != p)).max()
    if 6 * eps * qn >= kappa0:
        raise NoThresholdError(f"n = {n}: noise floor eps*||Q_p|| = {eps * qn:.3e} >= kappa0 / 6")
    lam, u = scipy.linalg.eigh_tridiagonal(form.diag, form.off, check_finite=False)
    w, real = _crossings(lam, u[p] ** 2, kappa0, col.max())
    best, least = w, np.inf                    # each candidate's iterate of least |Re R_p| / s
    with np.errstate(all="ignore"):            # a non-finite root fails the certificate
        for k in range(_POLISH_STEPS + 1):
            r, phi, s = _green(form.diag, form.off, p, w + 1j * kappa0)
            rel = np.abs(r.real) / s
            best, least = np.where(rel < least, w, best), np.fmin(rel, least)
            phi2 = np.einsum("ij,ij->j", phi, phi).real       # -d Re R_p / dw
            if k == _POLISH_STEPS or np.all(np.abs(r.real) <= 4 * eps * (s + np.abs(w * phi2))):
                break
            w = w + r.real / phi2
    ok = least <= tol.residual_rel
    if not (np.all(ok[real]) and ok.any()):
        raise NoThresholdError(f"n = {n}: a root of Re G_pp misses |Re R_p| <= residual_rel * s")
    r, phi, _ = _green(form.diag, form.off, p, best[ok] + 1j * kappa0)
    tie = np.flatnonzero(r.imag >= (1 + 4 * eps) * r.imag.max())   # gamma = -Im R_p
    k = tie[best[ok][tie].argmin()]
    return float(-r.imag[k]), phi[:, k]


def _regula_falsi(chain: _PumpedChain) -> tuple[float, np.ndarray | None, float, float]:
    """(gamma*, its ``solve`` vector, lo, hi) by Illinois regula falsi on f = max
    Im w of M's dense ``eigvals`` from [0, kappa0], whose top end doubles to f >
    0 ((inf, None) past the ceiling); a chain's f(0) = -kappa0 takes no solve."""
    n, tol, k0 = chain.n, chain.tol, chain.pump.kappa0
    ftol = tol.threshold_imag * k0

    def floor() -> str:
        return f"eps*||H|| = {_EPS * spectral_norm(chain.h):.3e}"

    lo, f_lo = 0.0, -k0 if chain.form is not None else chain.top(0.0).imag
    if f_lo >= -ftol:
        raise NoThresholdError(f"n = {n}: max Im w = {f_lo:.3e} at gamma = 0, so the "
                               f"lossy chain is not below threshold ({floor()})")
    hi, top = k0, chain.top(k0)
    while top.imag < 0 and abs(top.imag) > ftol:
        lo, f_lo, hi = hi, top.imag, 2 * hi
        if hi > tol.gamma_max_factor * k0:
            return np.inf, None, lo, hi
        top = chain.top(hi)

    f_hi = top.imag
    gstar, w_star, f_star = hi, top, f_hi
    closest, side = min(-f_lo, abs(f_hi)), 0      # side: which end the last step moved
    while abs(f_star) > ftol:
        g = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        if not lo < g < hi:
            g = 0.5 * (lo + hi)
        if not lo < g < hi:
            raise NoThresholdError(
                f"threshold search stalled at n = {n}: bracket [{lo!r}, {hi!r}] "
                f"cannot shrink; closest |max Im w| = {closest:.3e}, tolerance "
                f"{ftol:.3e}, {floor()}")
        gstar, w_star = g, chain.top(g)
        f_star = w_star.imag
        closest = min(closest, abs(f_star))
        if f_star < 0:
            if side < 0:
                f_hi *= 0.5
            lo, f_lo, side = g, f_star, -1
        else:
            if side > 0:
                f_lo *= 0.5
            hi, f_hi, side = g, f_star, 1
    lam, v = chain.solve(gstar)
    return gstar, v[:, np.abs(lam - w_star).argmin()], lo, hi


def find_threshold(h: np.ndarray, pump: PumpSpec,
                   tol: Tolerances = DEFAULT) -> ThresholdResult:
    """Smallest gamma at which an eigenvalue of M(gamma) reaches the real axis.

    A chain pumped at one site takes ``_one_site_threshold`` (no dense solve),
    psi = phi / d and the bracket (max(0, gamma* - threshold_imag * kappa0
    / slope), gamma*), slope = Re(phi^T P phi / phi^T phi) = d Im w / d gamma
    (Hellmann-Feynman): max Im w ~ -threshold_imag * kappa0 at lo in exact
    arithmetic, which M's dense eigvals resolves only above its round-off.  Any
    other input takes ``_regula_falsi`` and its dense vector (of T for a chain,
    psi = phi / d).  psi = 1 at the pumped site of largest |psi|, never 0:
    P psi = 0 makes w real at gamma = 0, which the search refuses (a chain's
    gamma* sum_P |phi_p|^2 = kappa0 ||phi||^2).  Past ``gamma_max_factor *
    kappa0`` it raises.
    """
    chain = _PumpedChain(h, pump, tol)
    if chain.form is not None and len(pump.pumped_sites) == 1:
        gstar, vec = _one_site_threshold(chain.form, pump.pumped_sites[0] - 1, pump.kappa0, tol)
        slope, hi = (1.0 / (vec @ vec)).real, gstar
        lo = max(0.0, gstar - tol.threshold_imag * pump.kappa0 / slope) if slope > 0 else 0.0
    else:
        gstar, vec, lo, hi = _regula_falsi(chain)
    if gstar > tol.gamma_max_factor * pump.kappa0:
        raise NoThresholdError(f"no real-axis crossing below {tol.gamma_max_factor:g} * kappa0")
    vec = vec if chain.form is None else vec / chain.form.d
    j = np.argmax(np.abs(vec) * chain.p)      # the pumped site of largest |psi|
    vec = vec / vec[j]
    vec[j] = 1.0                      # z / z need not round to exactly 1
    return ThresholdResult(float(gstar), vec, (float(lo), float(hi)))


@dataclass
class PowerFlowReport:
    """Steady-state power bookkeeping of one mode at threshold.

    ``junction_gains[j]`` is the net exchange with the environment at the
    coupling between sites j+1 and j+2 (1-based; centered at j + 3/2), zero
    for symmetric couplings.  ``balance_residual`` is |sum of all site terms
    and junction gains|, which vanishes at threshold.
    """

    junction_gains: np.ndarray
    site_terms: np.ndarray
    flows_forward: np.ndarray        # P_{j,j+1}: power into site j from j+1
    flows_backward: np.ndarray       # P_{j+1,j}: power into site j+1 from j
    balance_residual: float
    max_term: float


def power_flows(mode: np.ndarray, h_a: np.ndarray, pump: PumpSpec,
                gamma: float) -> PowerFlowReport:
    """Junction gains and site gain/loss terms for a threshold mode, from the
    off-diagonal couplings of ``h_a`` (loss and pump touch only its diagonal);
    the mode is normalized to psi_1 = 1, the junction-gain convention."""
    h_a = _matrix(h_a, "h_a")
    v = _matrix(mode, "mode", h_a.shape[:1])
    if abs(v[0]) == 0:
        raise ValueError("mode vanishes at site 1; cannot normalize psi_1 = 1")
    v = v / v[0]
    gammas = _real(gamma, "gamma") * pump_indicator(pump.pumped_sites, len(v))
    site_terms = 2.0 * (gammas - pump.kappa0) * np.abs(v) ** 2

    t_fwd, t_bwd = np.diagonal(h_a, 1), np.diagonal(h_a, -1)    # t_{j,j+1}, t_{j+1,j}
    fwd = 2.0 * np.real(1j * np.conj(t_fwd) * np.conj(v[1:]) * v[:-1])
    bwd = 2.0 * np.real(1j * np.conj(t_bwd) * np.conj(v[:-1]) * v[1:])
    gains = fwd + bwd

    residual = abs(site_terms.sum() + gains.sum())
    max_term = float(max(np.abs(site_terms).max(initial=0.0),
                         np.abs(gains).max(initial=0.0), 1e-300))
    return PowerFlowReport(junction_gains=gains, site_terms=site_terms,
                           flows_forward=fwd, flows_backward=bwd,
                           balance_residual=float(residual), max_term=max_term)
