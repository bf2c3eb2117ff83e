"""The Newton-Kantorovich stop of the secular step against direct evaluation:
wherever ``_secular``'s bound finishes a mode, |F''| stays within its bound B at
sampled points of the disk (F'' from its closed form, itself checked against
a difference quotient of F'), the stepped point's |F| is within the residual
bound, and the stepped eigenvalue is within err of one of np.linalg.eig's
eigenvalues of T(gamma), up to that solve's own floor."""

import itertools
from unittest import mock

import numpy as np
import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from nhlab import laser
from nhlab.config import DEFAULT
from nhlab.laser import NoThresholdError, PumpSpec, TrackingAmbiguityError, find_threshold

EPS = np.finfo(float).eps


@st.composite
def kantorovich_cases(draw):
    """(h, pump, grid): a real symmetric chain, n = 2-40, uniform, mirror-symmetric
    with a weak central bond or dimerized with a weak bond (the last two with
    near-degenerate poles), 1-3 pumped sites, kappa0 in [1e-3, 5] and a grid
    from 0 up to a fraction of the threshold."""
    n = draw(st.integers(2, 40))
    kind = draw(st.sampled_from(["uniform", "mirror", "dimer"]))
    weak = 10.0 ** -draw(st.integers(0, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "uniform":
        b, c = np.ones(n - 1), np.zeros(n)
    elif kind == "mirror":
        b, c = rng.uniform(0.5, 2.0, n - 1), rng.uniform(-1.0, 1.0, n)
        b, c = (b + b[::-1]) / 2, (c + c[::-1]) / 2
        b[(n - 2) // 2] *= weak
    else:
        b, c = np.where(np.arange(n - 1) % 2, weak, 1.0), np.zeros(n)
    sites = draw(st.lists(st.integers(1, n), min_size=1, max_size=3, unique=True))
    pump = PumpSpec(kappa0=float(10 ** draw(st.floats(-3.0, np.log10(5.0)))),
                    pumped_sites=tuple(sites))
    h = np.diag(c) + np.diag(b, 1) + np.diag(b, -1)
    try:
        top = find_threshold(h, pump).threshold
    except NoThresholdError:
        top = 2 * pump.kappa0
    top *= draw(st.sampled_from([0.25, 0.6, 1.0]))
    return h, pump, np.linspace(0.0, top, draw(st.sampled_from([5, 9, 17])))


def inverse(k):
    """k^-1 of a stack of r x r matrices, r <= 3, by cofactors, in k's own precision
    (numpy.linalg takes no long double)."""
    r = k.shape[-1]
    if r == 1:
        return 1 / k
    if r == 2:
        adj = np.stack([np.stack([k[..., 1, 1], -k[..., 0, 1]], -1),
                        np.stack([-k[..., 1, 0], k[..., 0, 0]], -1)], -2)
        return adj / (k[..., 0, 0] * k[..., 1, 1] - k[..., 0, 1] * k[..., 1, 0])[..., None, None]
    rows = [k[..., i, :] for i in range(3)]
    adj = np.stack([np.cross(rows[(i + 1) % 3], rows[(i + 2) % 3]) for i in range(3)], -1)
    return adj / np.einsum("...i,...i->...", rows[0], adj[..., :, 0])[..., None, None]


def moments(basis, mu, delta, gamma):
    """(F, F', F'') of the secular function of this basis at each z = lam_mu + delta
    (arrays of one shape), in long double from its closed forms: F = -delta + i gamma
    u_mu^T q, F' = -1 + gamma^2 q^T S_2 q and F'' = 2 gamma^2 q^T S_3 q - 2 i gamma^3
    (S_2 q)^T K^-1 S_2 q, the moments S_k summed term by term."""
    lam, _, up = (np.asarray(x, dtype=np.longdouble) for x in basis[:3])
    mu, delta = np.broadcast_arrays(mu, np.asarray(delta, dtype=np.clongdouble))
    x = (lam - lam[mu][..., None]) - delta[..., None]      # no rounding of lam_mu + delta
    np.put_along_axis(x, mu[..., None], np.inf, axis=-1)  # the pole taken out
    c = 1 / x
    s1, s2, s3 = (np.einsum("...n,rn,sn->...rs", c ** k, up, up) for k in (1, 2, 3))
    ki = inverse(np.eye(len(up)) + 1j * gamma * s1)
    um = up.T[mu][..., None]
    q = ki @ um
    s2q = s2 @ q
    qt = np.swapaxes(q, -1, -2)
    return ((1j * gamma * (np.swapaxes(um, -1, -2) @ q))[..., 0, 0] - delta,
            (gamma ** 2 * (qt @ s2q))[..., 0, 0] - 1,
            (2 * gamma ** 2 * (qt @ s3 @ q) - 2j * gamma ** 3 * (np.swapaxes(s2q, -1, -2)
                                                                 @ ki @ s2q))[..., 0, 0])


def secular_mp(basis, m, delta, gamma):
    """(F, F') of the secular function of this basis at z = lam_m + delta for one mode, with
    40 digits (mpmath), free of the round-off of the double and long double forms."""
    lam, _, up = basis[:3]
    with mpmath.workdps(40):
        d, g = mpmath.mpc(complex(delta)), mpmath.mpf(float(gamma))
        c = [0 if j == m else 1 / (mpmath.mpf(float(lam[j] - lam[m])) - d) for j in range(len(lam))]
        s1, s2 = ([[sum(ck ** k * float(up[a, j]) * float(up[b, j]) for j, ck in enumerate(c))
                    for b in range(len(up))] for a in range(len(up))] for k in (1, 2))
        q = mpmath.inverse(mpmath.eye(len(up)) + 1j * g * mpmath.matrix(s1)) * mpmath.matrix(
            [float(x) for x in up[:, m]])
        f = 1j * g * sum(float(up[a, m]) * q[a] for a in range(len(up))) - d
        df = g ** 2 * (q.T * mpmath.matrix(s2) * q)[0] - 1
        return complex(f), complex(df)


def fired_steps(h, pump, grid):
    """(chain, gamma, mu, delta, f, df, err, res, b, rho) of every secular
    evaluation of ``track_mode`` at which the Kantorovich stop finishes a mode,
    restricted to those modes."""
    chain = laser._PumpedChain(h, pump, DEFAULT)
    evaluations, secular = [], laser._secular

    def recorded(basis, mu, delta, gamma):
        out = secular(basis, mu, delta, gamma)
        evaluations.append([gamma, mu.copy(), delta.copy(), *out[:2], *out[4:8]])
        return out

    with (mock.patch.object(laser, "_secular", recorded),
          mock.patch.object(laser, "_PumpedChain", lambda *args: chain)):
        try:
            laser.track_mode(h, pump, grid)
        except TrackingAmbiguityError:
            pass
    for gamma, mu, delta, f, df, err, res, b, rho in evaluations:
        stop = 64 * EPS * laser._column_norm(chain.form.off, chain.diagonal(gamma))
        fired = err <= stop
        if fired.any():
            yield (chain, gamma, *(x[fired] for x in (mu, delta, f, df, err, res, b, rho)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=kantorovich_cases())
def test_kantorovich_stop_is_sound_where_it_fires(case):
    h, pump, grid = case
    for chain, gamma, mu, delta, f, df, err, res, b, rho in fired_steps(h, pump, grid):
        basis, lam = chain.basis, chain.basis[0]
        # |F''| <= B on the disk |delta' - delta| <= rho: centre, half radius and rim, up to
        # the long double round-off of the moments (F'' = 0 in exact arithmetic for a mode
        # that the pump leaves alone, or when r = n)
        dist = np.abs(lam - (lam[mu] + delta)[:, None])
        dist[np.arange(len(mu)), mu] = np.inf
        dist = dist.min(axis=1)                  # to the nearest other pole
        disk = delta[:, None] + rho[:, None] * np.r_[0.0, 0.5 * np.exp(
            2j * np.pi * np.arange(8) / 8), np.exp(2j * np.pi * np.arange(16) / 16)]
        d2 = np.abs(moments(basis, mu[:, None], disk, gamma)[2]).astype(float)
        noise = (1e3 * len(lam) * np.finfo(np.longdouble).eps * gamma ** 2 * (1 + gamma)
                 * (1 / dist ** 3 + 1 / dist ** 4)).astype(float)
        assert np.all(d2 <= b[:, None] * (1 + 1e-9) + noise[:, None]), (d2.max(axis=1), b)
        # the stepped eigenvalue within err of np.linalg.eig's, up to that solve's floor
        stepped = delta - f / df
        off = chain.form.off
        t = np.diag(chain.diagonal(gamma)) + np.diag(off, 1) + np.diag(off, -1)
        dense, x = np.linalg.eig(t)
        w = lam[mu] + stepped - 1j * pump.kappa0
        near = np.abs(w[:, None] - dense).argmin(axis=1)
        x = x[:, near]
        cond = np.linalg.norm(x, axis=0) ** 2 / np.abs(np.einsum("ij,ij->j", x, x))
        floor = 16 * len(t) * EPS * np.linalg.norm(t, 2) * cond
        assert np.all(np.abs(w - dense[near]) <= err + floor)
        # for the mode whose |F''| comes closest to B: the closed form of F'' against a
        # Richardson-extrapolated central difference of F' (steps of 1e-5 and 5e-6 of the
        # distance to the nearest other pole, long double), and Taylor's theorem at the
        # stepped point with 40 digits, |F(stepped)| <= B eta^2 / 2 plus what the double
        # evaluation's error in F, F' and the step's rounding leave of the linear term
        i = int(np.argmax(d2[:, 0] / np.where(b > 0, b, np.inf)))
        exact = moments(basis, mu[i], delta[i], gamma)[2]
        fd = [(ahead - behind) / (2 * h) for h in 1e-5 * dist[i] * np.array([1.0, 0.5])
              for ahead, behind in [[moments(basis, mu[i], delta[i] + s, gamma)[1]
                                     for s in (h, -h)]]]
        if abs(fd[0] - fd[1]) <= 1e-3 * abs(fd[1]):    # both steps in the Taylor regime
            richardson = (4 * fd[1] - fd[0]) / 3
            assert abs(richardson - exact) <= abs(fd[0] - fd[1]) + 1e-6 * abs(exact) + 1e-9
        (f0, df0), (f1, _) = (secular_mp(basis, mu[i], x, gamma) for x in (delta[i], stepped[i]))
        linear = abs(f0 - f[i]) + abs(f[i]) * abs(1 - df0 / df[i])
        rounding = 4 * EPS * (abs(stepped[i] * df0) + abs(f[i]))
        assert abs(f1) <= b[i] * rho[i] ** 2 / 8 + linear + rounding


def test_slack_covers_the_solve_when_q_comes_from_an_explicit_inverse():
    # both sites of a weakly bonded dimer pumped (r = n = 2): K = I + i gamma S_1 is near
    # singular, and q = inv(K) @ u_mu, which is not backward stable, leaves F off by up to 90
    # times 4 eps (|F| + 2 |delta|).  The slack's term 4 r eps gamma ||K^-1|| ||K|| ||q|| keeps the
    # stop from firing on such an F: wherever it fires, F is within that slack of a 40-digit F
    # and the stepped eigenvalue within err of np.linalg.eig's, up to that solve's floor
    h = np.array([[-0.689239762, 1.45544253e-4], [1.45544253e-4, -0.689239762]])
    pump = PumpSpec(kappa0=1.0, pumped_sites=(1, 2))
    top, fired = find_threshold(h, pump).threshold, 0
    with mock.patch.object(np.linalg, "solve", lambda a, b: np.linalg.inv(a) @ b):
        for frac, points in itertools.product((0.25, 0.6, 1.0), (5, 9, 17)):
            grid = np.linspace(0.0, frac * top, points)
            for chain, gamma, mu, delta, f, df, err, _, _, _ in fired_steps(h, pump, grid):
                lam, _, up = chain.basis[:3]
                for i, m in enumerate(mu):
                    x = lam - (lam[m] + delta[i])
                    x[m] = np.inf
                    k = np.eye(2) + 1j * gamma * (up / x) @ up.T
                    q = np.linalg.inv(k) @ up[:, m]
                    slack = 4 * EPS * (abs(f[i]) + 2 * abs(delta[i]) + 2 * gamma * np.linalg.norm(
                        np.linalg.inv(k)) * np.linalg.norm(k) * np.linalg.norm(q))
                    assert abs(secular_mp(chain.basis, m, delta[i], gamma)[0] - f[i]) <= slack
                off = chain.form.off
                t = np.diag(chain.diagonal(gamma)) + np.diag(off, 1) + np.diag(off, -1)
                dense, x = np.linalg.eig(t)
                w = lam[mu] + delta - f / df - 1j * pump.kappa0
                near = np.abs(w[:, None] - dense).argmin(axis=1)
                cond = (np.linalg.norm(x[:, near], axis=0) ** 2
                        / np.abs(np.einsum("ij,ij->j", x[:, near], x[:, near])))
                floor = 16 * len(t) * EPS * np.linalg.norm(t, 2) * cond
                assert np.all(np.abs(w - dense[near]) <= err + floor)
                fired += len(mu)
    assert fired                # the stop still fires here, so the checks above ran


def test_a_mode_its_bound_never_proves_takes_the_dense_solve(chain9):
    # pole 4's mode reports err = inf at every evaluation, F and F' unchanged: Newton still
    # converges it, but no step-size test may finish it, so each point after the first is
    # refused, solved densely on T(gamma) and matched by overlap, on the same trajectory
    _, _, _, h, _ = chain9
    pump, grid = PumpSpec(kappa0=0.02, pumped_sites=(1,)), np.linspace(0.0, 0.03, 9)
    secular = laser._secular

    def unproven(basis, mu, delta, gamma):
        out = list(secular(basis, mu, delta, gamma))
        out[4] = np.where(mu == 4, np.inf, out[4])
        return tuple(out)

    ref = laser.track_mode(h, pump, grid).eigenvalues
    with (mock.patch.object(laser, "_secular", unproven),
          mock.patch.object(np.linalg, "eig", wraps=np.linalg.eig) as eig):
        got = laser.track_mode(h, pump, grid).eigenvalues
    assert eig.call_count == len(grid) - 1
    assert np.abs(got - ref).max() <= 1e-12
