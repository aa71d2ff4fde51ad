"""Theta functions, the Dedekind eta function, and discrete Gaussians.

Conventions: the nome is q = exp(pi i tau), characteristics (r, s) take
values in {0, 1}, and

    theta_rs(nu | tau) = sum_{j in Z + r/2} exp(pi i tau j^2 + 2 pi i j (nu + s/2)).

For (r, s) = (1, 1) this includes the customary factor i (-1)^(j-1/2)
automatically, since exp(pi i j) = i (-1)^(j-1/2) for half-integer j.

The ratio statistic used throughout the finite-size analysis is

    xi(zeta, xi | tau) = | theta(phi tau - psi | tau) exp(pi i tau phi^2) | / | eta(tau) |

with zeta = -exp(2 pi i phi), xi = -exp(2 pi i psi); it is computed from a
rescaled series so that it stays finite in floating point even when theta
and eta individually underflow.
"""

import cmath
import math

import numpy as np

TAU_IM_FLOOR = 1e-3
_TRUNC = 1e-16
_XI_WINDOW = np.arange(-5, 6)  # the terms j that log_xi sums
_GAUSSIAN_TAIL = 1e-12  # discrete_gaussian leaves out less than this share of the mass
# cells of discrete_gaussian's box, 64 MiB per int64 grid: the unit hexagonal
# quotient diag(1, 4750) grows its box to 4826809 cells (winding peaks at
# 345 MB of RSS), and diag(1, 4900) would grow it to 11202409
GAUSSIAN_CELL_LIMIT = 2 ** 23


def _check_tau(tau):
    tau = complex(tau)
    if tau.imag < TAU_IM_FLOOR:
        raise ValueError(
            "Im tau = %g below the %g floor; use reduce_tau first" % (tau.imag, TAU_IM_FLOOR)
        )
    return tau


def theta(r, s, nu, tau):
    """Jacobi theta with characteristics r, s in {0, 1}; nome exp(pi i tau)."""
    tau = _check_tau(tau)
    nu = complex(nu)
    r, s = int(r) % 2, int(s) % 2
    j0 = r / 2.0
    total = 0j
    small_streak = 0
    for n in range(0, 4000):
        shell = 0j
        for j in ((j0 + n,) if (n == 0 and r == 0) else (j0 + n, j0 - n - r)):
            # for r=0 the shells are {0}, {1,-1}, {2,-2}, ...;
            # for r=1 they are {1/2,-1/2}, {3/2,-3/2}, ...
            shell += cmath.exp(1j * math.pi * tau * j * j + 2j * math.pi * j * (nu + s / 2.0))
        total += shell
        if abs(shell) < _TRUNC * max(abs(total), 1e-300):
            small_streak += 1
            if small_streak >= 3:
                break
        else:
            small_streak = 0
    return total


def theta_product(r, s, nu, tau):
    """Product form of the same theta functions (independent cross-check)."""
    tau = _check_tau(tau)
    nu = complex(nu)
    q = cmath.exp(1j * math.pi * tau)
    u = cmath.exp(2j * math.pi * nu)
    nmax = max(8, int(40.0 / tau.imag) + 4)
    G = 1.0 + 0j
    for j in range(1, nmax + 1):
        G *= 1 - q ** (2 * j)
    r, s = int(r) % 2, int(s) % 2
    prod = 1.0 + 0j
    if (r, s) == (0, 0):
        for j in range(1, nmax + 1):
            prod *= (1 + q ** (2 * j - 1) * u) * (1 + q ** (2 * j - 1) / u)
        return G * prod
    if (r, s) == (0, 1):
        for j in range(1, nmax + 1):
            prod *= (1 - q ** (2 * j - 1) * u) * (1 - q ** (2 * j - 1) / u)
        return G * prod
    if (r, s) == (1, 0):
        for j in range(1, nmax + 1):
            prod *= (1 + q ** (2 * j) * u) * (1 + q ** (2 * j) / u)
        return G * prod * q ** 0.25 * (u ** 0.5 + u ** -0.5)
    for j in range(1, nmax + 1):
        prod *= (1 - q ** (2 * j) * u) * (1 - q ** (2 * j) / u)
    return G * prod * 1j * q ** 0.25 * (u ** 0.5 - u ** -0.5)


def log_abs_eta(tau):
    tau = _check_tau(tau)
    out = -math.pi * tau.imag / 12.0
    q2 = cmath.exp(2j * math.pi * tau)
    qp = 1.0 + 0j
    for _ in range(2_000_000):
        qp *= q2
        if abs(qp) < 1e-18:
            break
        out += math.log(abs(1 - qp))
    return out


def _half_turns(t):
    """Turns t reduced to (-1/2, 1/2], elementwise."""
    t = t - np.round(t)
    return np.where(t <= -0.5, t + 1.0, t)


def log_xi(zeta, xi_, tau):
    """log of xi(zeta, xi | tau); -inf at the odd characteristic.

    zeta, xi_ and tau broadcast together: scalars give a float, arrays an
    array of their broadcast shape.  reduce_tau and log_abs_eta run once per
    distinct tau and cmath.phase once per given phase, the turns of the
    entries that share a sequence of modular moves go through it together
    (_move_turns), and the series is summed at every entry at once over the
    fixed window |j| <= 5.  At the reduced tau Im tau >= sqrt(3)/2, where
    term j of the rescaled series is at most exp(-pi (sqrt(3)/2) (j^2 -
    |j|)) of the largest: the first one left out is below 4e-36 of it.  The
    odd characteristic, where theta vanishes, gives -inf exactly.  An
    entry's value does not depend on the other entries of the call, so one
    call over many taus gives each the bits of its own call.
    """
    taus, tau_of = np.unique(np.ravel(np.asarray(tau, dtype=complex)), return_inverse=True)
    # turns of each given phase, broadcast only afterwards
    tz, tx = [np.reshape([cmath.phase(v) / (2 * math.pi) for v in np.ravel(a).tolist()],
                         np.shape(a)) for a in (zeta, xi_)]
    tz, tx, tau_of = [a.flatten() for a in np.broadcast_arrays(tz, tx, tau_of.reshape(np.shape(tau)))]
    shape = np.broadcast_shapes(np.shape(zeta), np.shape(xi_), np.shape(tau))
    moved = [reduce_tau(t) for t in taus.tolist()]
    reduced = np.array([t for t, _ops in moved])
    log_eta = np.array([log_abs_eta(t) for t, _ops in moved])
    r, s = np.zeros(tau_of.shape, dtype=int), np.zeros(tau_of.shape, dtype=int)
    by_ops = {}  # the taus of each sequence of modular moves
    for u, (_t, ops) in enumerate(moved):
        by_ops.setdefault(tuple(ops), []).append(u)
    for ops, us in by_ops.items():
        if ops:
            pick = np.isin(tau_of, us)
            r[pick], s[pick], tz[pick], tx[pick] = _move_turns(r[pick], s[pick], tz[pick],
                                                               tx[pick], ops)
    phi, psi = _half_turns(tz + (r + 1) / 2), _half_turns(tx + (s + 1) / 2)
    t = reduced[tau_of]
    odd = (phi == 0.5) & (psi == 0.5)
    rates = np.where(odd, 0j, 2j * math.pi * (t * phi - psi))
    shifts = np.where(odd, -math.inf, -math.pi * t.imag * phi * phi - log_eta[tau_of])
    # term j is exp(pi i tau j^2 + j rate), of modulus exp(-pi Im tau (j^2 + 2 j phi)):
    # at most 1, the j = 0 term, since |phi| <= 1/2
    j = _XI_WINDOW
    squares = np.array([(1j * math.pi * t) * (j * j) for t, _ops in moved]).reshape(-1, len(j))
    expo = np.multiply.outer(rates, j)
    expo += squares[tau_of]
    out = (np.log(np.abs(np.exp(expo, out=expo).sum(axis=-1))) + shifts).reshape(shape)
    return out if out.ndim else float(out)


def reduce_tau(tau):
    """Bring tau into |Re tau| <= 1/2, |tau| >= 1 by T/S moves.

    Returns (tau_reduced, ops) where ops is a list of ('T', n) entries
    (tau -> tau + n) and 'S' entries (tau -> -1/tau), in the order applied.
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("tau must lie in the upper half-plane")
    ops = []
    for _ in range(10_000):
        n = -int(round(tau.real))
        if n != 0:
            tau += n
            ops.append(("T", n))
        if abs(tau) < 1.0 - 1e-15:
            tau = -1.0 / tau
            ops.append("S")
        else:
            break
    return tau, ops


def _move_turns(r, s, tz, tx, ops):
    """Push characteristics r, s and the float turns tz, tx of (zeta, xi) through ops.

    When reduce_tau(tau) gave ops, Xi((-1)^r zeta, (-1)^s xi | tau) equals
    the same ratio of the moved arguments at the reduced tau.  S swaps the characteristics and sends (zeta, xi) to (conj xi, zeta); T n
    sends s to s + n r and xi to zeta^n xi, with n tz mod 1 taken exactly
    as n u mod d / d on the float turns u / d of zeta, so that a power near
    1e8 loses nothing.  Numbers or equal-shape arrays, elementwise.
    """
    for op in ops:
        if op == "S":
            r, s, tz, tx = s, r, -tx, tz
        else:
            n = op[1]
            power = [n * u % d / d for u, d in map(float.as_integer_ratio, np.ravel(tz).tolist())]
            s, tx = (s + n * r) % 2, tx + np.reshape(power, np.shape(tz))
    return r, s, tz, tx


def g_tau(tau, e1, e2):
    """The real quadratic form (e1^2 + 2 Re(tau) e1 e2 + |tau|^2 e2^2) / Im tau."""
    tau = complex(tau)
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    val = (e1 * e1 + 2 * tau.real * e1 * e2 + abs(tau) ** 2 * e2 * e2) / tau.imag
    return val if val.shape else float(val)


def discrete_gaussian(mu, sigma):
    """Probability table on Z^2 with weights exp(-pi/2 (e-mu)^T Sigma^-1 (e-mu)).

    Returns a dict {(n1, n2): probability} normalized over all of Z^2: the
    truncation radius is grown until the neglected tail is below
    _GAUSSIAN_TAIL of the total, and cells below 1e-300 are left out.  A box
    of more than GAUSSIAN_CELL_LIMIT cells raises ValueError before it is built.
    """
    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    sigma_inv = np.linalg.inv(sigma)
    evals = np.linalg.eigvalsh(sigma_inv)
    if np.min(evals) <= 0:
        raise ValueError("covariance must be positive definite")
    rad = math.sqrt(2 * (-math.log(_GAUSSIAN_TAIL) + 40.0) / (math.pi * np.min(evals))) + 2.0
    for _ in range(60):
        r = int(math.ceil(rad))
        if (2 * r + 1) ** 2 > GAUSSIAN_CELL_LIMIT:
            raise ValueError("the discrete Gaussian needs %d cells, more than the %d its box "
                             "may hold" % ((2 * r + 1) ** 2, GAUSSIAN_CELL_LIMIT))
        n1 = np.arange(math.floor(mu[0]) - r, math.floor(mu[0]) + r + 1)
        n2 = np.arange(math.floor(mu[1]) - r, math.floor(mu[1]) + r + 1)
        g1, g2 = np.meshgrid(n1, n2, indexing="ij")
        d1 = g1 - mu[0]
        d2 = g2 - mu[1]
        quad = (
            sigma_inv[0, 0] * d1 * d1
            + 2 * sigma_inv[0, 1] * d1 * d2
            + sigma_inv[1, 1] * d2 * d2
        )
        mass = np.exp(-0.5 * math.pi * quad)
        total = float(mass.sum())
        border = float(mass[0, :].sum() + mass[-1, :].sum() + mass[:, 0].sum() + mass[:, -1].sum())
        if border < _GAUSSIAN_TAIL * total / 10.0:
            break
        rad *= 1.5
    else:
        raise ValueError("tail target unattainable")
    probs = mass / total
    a, b = np.nonzero(probs >= 1e-300)  # row-major: the cells in (n1, n2) order
    return dict(zip(zip(n1[a].tolist(), n2[b].tolist()), probs[a, b].tolist()))
