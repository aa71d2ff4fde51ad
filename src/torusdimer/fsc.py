"""Universal finite-size corrections of toric dimer partition functions.

For a critical domain with nodes (z_j, w_j) the four Pfaffians of the
E-quotient obey, as E grows,

    -Pf(1,1), +Pf(1,-1), +Pf(-1,1), +Pf(-1,-1)  >=  0,

and the slot at boundary phases ((-1)^a, (-1)^b) has magnitude

    exp(det E * f0) * prod_j Xi((-1)^a zeta_j, (-1)^b xi_j | tau_j) ^ m_j,

with per-node data from conformal_data and m_j = 2 for a real root of Q
(whose P-zero has order four).  Everything here -- sector laws, the
fsc1/fsc2/fsc3 correction functions, winding laws, the square-lattice
parity table, and the Ising specialization -- is bookkeeping on top of
that rule.
"""

import cmath
import math
from collections import namedtuple

import numpy as np

from . import charpoly as _charpoly
from . import kasteleyn as _kasteleyn
from . import lattice as _lattice
from .specialfn import log_xi, g_tau, log_abs_eta, discrete_gaussian

LOG2 = math.log(2.0)

FscResult = namedtuple(
    "FscResult",
    ["kind", "value", "per_sector", "tau", "zeta", "xi", "r", "s", "f0",
     "log_Z", "nodes"],
)

WindingLaw = namedtuple("WindingLaw", ["mu", "sigma", "color_swapped", "ell"])


class FscError(ValueError):
    pass


def _logsumexp(vals):
    top = max(vals)
    if top == -math.inf:
        return -math.inf
    return top + math.log(sum(math.exp(v - top) for v in vals))


# -- the three universal correction functions ----------------------------------


def fsc1(tau):
    """log of (1/2) sum over sign pairs of Xi(z, w | tau)."""
    return _logsumexp([log_xi(z, w, tau) for z in (1, -1) for w in (1, -1)]) - LOG2


def fsc1_sector(a, b, tau):
    """log of the (a, b) sector share of fsc1 (can be -inf)."""
    tot = 0.0
    for rp in (0, 1):
        for sp in (0, 1):
            sgn = (-1) ** ((b + rp) * (a + sp))
            tot += sgn * math.exp(log_xi((-1) ** (rp + 1), (-1) ** (sp + 1), tau))
    tot *= 0.25
    return math.log(tot) if tot > 0 else -math.inf


def fsc2(zeta, xi_, tau):
    """log of (1/2) sum over sign pairs of Xi(z zeta, w xi | tau)^2."""
    return _logsumexp(
        [2 * log_xi(z * zeta, w * xi_, tau) for z in (1, -1) for w in (1, -1)]
    ) - LOG2


def fsc2_sector(r, s, zeta, xi_, tau):
    tot = 0.0
    for rp in (0, 1):
        for sp in (0, 1):
            sgn = (-1) ** ((r + sp) * (s + rp))
            tot += sgn * math.exp(
                2 * log_xi((-1) ** rp * -zeta, (-1) ** sp * -xi_, tau)
            )
    tot *= 0.25
    return math.log(tot) if tot > 0 else -math.inf


def fsc2_gaussian(r, s, tau, tail=1e-16):
    """fsc2(e^{i pi r}, e^{i pi s} | tau) as a lattice Gaussian sum."""
    tau = complex(tau)
    rad = 3
    prev = None
    for _ in range(40):
        n = np.arange(-rad, rad + 1)
        e1, e2 = np.meshgrid(n - float(s), n + float(r), indexing="ij")
        tot = float(np.exp(-0.5 * math.pi * g_tau(tau, e1, e2)).sum())
        if prev is not None and abs(tot - prev) <= tail * tot:
            break
        prev = tot
        rad += 2
    return (
        math.log(tot)
        - 2 * log_abs_eta(tau)
        - 0.5 * math.log(2 * tau.imag)
    )


def fsc3(zeta, xi_, tau):
    """log of (1/2) sum over sign pairs of Xi(z, w) Xi(z zeta, w xi); phases +-1."""
    if zeta not in (1, -1) or xi_ not in (1, -1):
        raise FscError("fsc3 is defined for sign phases only")
    return _logsumexp(
        [log_xi(z, w, tau) + log_xi(z * zeta, w * xi_, tau)
         for z in (1, -1) for w in (1, -1)]
    ) - LOG2


# -- per-node conformal data ----------------------------------------------------

ConformalData = namedtuple("ConformalData", ["tau", "zeta", "xi", "r", "s"])


def conformal_data(E, node):
    """Shape parameter and boundary phases of one node on the E-quotient.

    tau is Im-positive for any orientation of E; the phases are
    zeta = z0^E11 w0^E12 = e^{i pi r} and xi = z0^E21 w0^E22 = e^{i pi s},
    computed in angle space with r, s wrapped into (-1, 1].
    """
    E = np.asarray(E, dtype=int)
    M = np.linalg.inv(E.T.astype(float)) @ node.hessian @ np.linalg.inv(E.astype(float))
    tau = _charpoly.tau_of_hessian(M)
    r0, s0 = node.arguments
    r = _charpoly._wrap_half_turns(E[0, 0] * r0 + E[0, 1] * s0)
    s = _charpoly._wrap_half_turns(E[1, 0] * r0 + E[1, 1] * s0)
    return ConformalData(tau, cmath.exp(1j * math.pi * r),
                         cmath.exp(1j * math.pi * s), r, s)


def _node_multiplicity(node):
    return 2 if node.kind == "real-root-of-Q-node" else 1


def _predicted_table(E, cp):
    """(sector table, per-node (ConformalData, multiplicity)) from the node data."""
    rep = cp.nodes
    if rep.kind == _charpoly.CLASS_NON_VANISHING:
        raise FscError("non-vanishing spectral curve: no nodes, no universal correction")
    det = abs(_lattice.int_det(E))
    data = [(conformal_data(E, n), _node_multiplicity(n)) for n in rep.nodes]
    logs = []
    for (za, wa) in _kasteleyn.SLOTS:
        tot = det * cp.f0
        for cd, mult in data:
            tot += mult * log_xi(za * cd.zeta, wa * cd.xi, cd.tau)
        logs.append(tot)
    return _kasteleyn.SectorTable(E, [-1, 1, 1, 1], logs, "fsc-" + rep.kind), data


def predict_sector_table(dom, E, cp=None):
    """Asymptotic sector table of the E-quotient from the node data alone."""
    if cp is None:
        cp = _charpoly.build_charpoly(dom)
    return _predicted_table(np.asarray(E, dtype=int), cp)[0]


def predict(dom, E, cp=None):
    """FscResult for the E-quotient: correction value, sector shares, shape data.

    On a non-vanishing (gaseous) curve every |Pf| is exp(|det E| f0) up to
    exponentially small terms, so the value is log((-s1 + s2 + s3 + s4) / 2)
    from the exact slot signs (kasteleyn.real_point_factors), with no
    sector refinement.
    """
    E = np.asarray(E, dtype=int)
    if cp is None:
        cp = _charpoly.build_charpoly(dom)
    rep = cp.nodes
    f0 = cp.f0
    det = abs(_lattice.int_det(E))
    if rep.kind == _charpoly.CLASS_NON_VANISHING:
        s1, s2, s3, s4 = signs = [sg for sg, _lg in _kasteleyn.real_point_factors(dom, E)]
        if -s1 + s2 + s3 + s4 <= 0:
            raise FscError("gaseous slot signs %r cancel: no leading term" % (signs,))
        value = math.log(0.5 * (-s1 + s2 + s3 + s4))
        return FscResult(rep.kind, value, None, None, None, None, None, None,
                         f0, det * f0 + value, [])
    table, nodes = _predicted_table(E, cp)
    value = table.log_Z - det * f0
    per_sector = {
        rs: table.log_sector(*rs) - det * f0 for rs in _kasteleyn.SECTOR_ORDER
    }
    cd0 = nodes[0][0]
    if rep.kind == _charpoly.CLASS_TWO_REAL:
        # the effective phase is the product over the two real nodes
        zeta = cd0.zeta * nodes[1][0].zeta
        xi_ = cd0.xi * nodes[1][0].xi
        r = _charpoly._wrap_half_turns(cd0.r + nodes[1][0].r)
        s = _charpoly._wrap_half_turns(cd0.s + nodes[1][0].s)
    else:
        zeta, xi_, r, s = cd0.zeta, cd0.xi, cd0.r, cd0.s
    return FscResult(rep.kind, value, per_sector, cd0.tau, zeta, xi_, r, s,
                     f0, table.log_Z, nodes)


SQUARE_F0 = 0.9159655941772190 / math.pi  # Catalan / pi, per site


def predict_logZ(dom, E, cp=None):
    """Predicted log Z_E = detE * f0 + fsc, dispatching on criticality class.

    The unit square lattice (odd cell) is dispatched through the parity
    table of its row vectors; a coverless parity returns -inf.
    """
    E = np.asarray(E, dtype=int)
    if dom.k % 2:
        if dom.name != "square-1x1":
            raise FscError("odd fundamental domains other than the unit square "
                           "must be doubled first")
        if abs(dom.weights["a"] - dom.weights["b"]) > 1e-12:
            raise FscError("parity-table dispatch covers the isotropic square "
                           "lattice; double the domain for anisotropic weights")
        (a, b), (c, d) = E[0], E[1]
        value = square_fsc(a, b, c, d)
        if value == -math.inf:
            return -math.inf
        det = abs(a * d - b * c)
        scale = 0.5 * math.log(dom.weights["a"])  # one dimer covers two sites
        return det * (SQUARE_F0 + scale) + value
    return predict(dom, E, cp=cp).log_Z


def sector_table_auto(dom, E, cp=None):
    """kasteleyn.sector_table with the method label that the CLI prints.

    "dense" up to 4096 vertices (640 for a non-bipartite domain), else
    "magnitude+" and the class of cp.nodes (cp built here when None).
    """
    table = _kasteleyn.sector_table(dom, E)
    if dom.k * abs(_lattice.int_det(E)) <= (4096 if dom.bipartite else 640):
        table.method = "dense"
    else:
        table.method = "magnitude+" + (cp or _charpoly.build_charpoly(dom)).nodes.kind
    return table


# -- winding statistics ----------------------------------------------------------


def normalized_node_data(cp):
    """Distinguished node in the color convention with increasing spectral flow.

    Returns ((r0, s0), color_swapped): the stored black/white convention is
    "swapped" when its vertical slice winding at z = +1 exceeds the one at
    z = -1 by one; the normalized node is then read off the reciprocal
    polynomial.
    """
    if cp.Q is None:
        raise FscError("node normalization needs a 2-colored domain")
    rep = cp.nodes
    if rep.kind != _charpoly.CLASS_CONJUGATE:
        raise FscError("node normalization applies to conjugate-node curves")
    counts = _charpoly.root_counts(cp.Q, rep.nodes)
    swapped = counts[("v", 1)] == counts[("v", -1)] + 1
    if not swapped:
        return rep.nodes[0].arguments, False
    q2 = cp.Q.reciprocal_vars()
    locs = [n.location for n in rep.nodes]
    dec = [_charpoly.decreasing_member(q2, loc) for loc in locs]
    if sum(dec) != 1:
        raise FscError("reciprocal polynomial lost its distinguished member")
    node = rep.nodes[dec.index(True)]
    return node.arguments, True


def winding_law(dom, E, cp=None):
    """Discrete-Gaussian law (mu, Sigma) of the height winding on the E-quotient.

    Conventions follow the stored 2-coloring: windings count black-to-white
    cell offsets of the matching against the reference m0, and mu is built
    from the stored distinguished node and the -1-arc slice windings
    (completed continuously when the node sits at z = -1 or w = -1).
    """
    E = np.asarray(E, dtype=int)
    if cp is None:
        cp = _charpoly.build_charpoly(dom)
    rep = cp.nodes
    if rep.kind != _charpoly.CLASS_CONJUGATE:
        raise FscError("winding law needs a distinct-conjugate-node curve")
    node = rep.nodes[0]
    z0, w0 = node.location
    counts = _charpoly.root_counts(cp.Q, rep.nodes)
    swapped = counts[("v", 1)] == counts[("v", -1)] + 1

    if abs(z0 + 1) < 1e-9:
        argz = math.pi
        lv = counts[("v", 1)] - 1
    else:
        argz = cmath.phase(z0)
        lv = counts[("v", -1)]
    if abs(w0 + 1) < 1e-9:
        argw = math.pi
        lh = counts[("h", 1)] - 1
    else:
        argw = cmath.phase(w0)
        lh = counts[("h", -1)]

    (u, v), (x, y) = E[0], E[1]
    ell = np.array([lh, lv], dtype=float)
    jump = np.array([[y, -x], [-v, u]], dtype=float)  # = det(E) (E^T)^-1
    mu = (1.0 / math.pi) * np.array([x * argz + y * argw, -u * argz - v * argw])
    mu = mu - jump @ ell
    H = node.hessian
    det = abs(_lattice.int_det(E))
    Einv = np.linalg.inv(E.astype(float))
    sigma = Einv.T @ H @ Einv * det / math.sqrt(np.linalg.det(H))
    return WindingLaw((float(mu[0]), float(mu[1])), sigma, swapped,
                      (int(ell[0]), int(ell[1])))


def winding_distribution_gaussian(dom, E, cp=None, tail=1e-12):
    law = winding_law(dom, E, cp=cp)
    return discrete_gaussian(law.mu, law.sigma, tail=tail)


# -- square-lattice parity table --------------------------------------------------

SQUARE_CURVES = (
    ("fsc2(1,1)", lambda tau: fsc2(1, 1, tau)),
    ("fsc2(i,1)", lambda tau: fsc2(1j, 1, tau)),
    ("fsc2(1,i)", lambda tau: fsc2(1, 1j, tau)),
    ("fsc2(i,i)", lambda tau: fsc2(1j, 1j, tau)),
    ("fsc3(1,-1)", lambda tau: fsc3(1, -1, tau)),
    ("fsc3(-1,1)", lambda tau: fsc3(-1, 1, tau)),
    ("fsc3(-1,-1)", lambda tau: fsc3(-1, -1, tau)),
)

_SQUARE_TABLE = {
    (0, 0): {(0, 0): "fsc2(1,1)", (0, 1): "fsc3(1,-1)",
             (1, 0): "fsc3(1,-1)", (1, 1): "fsc2(1,i)"},
    (0, 1): {(0, 0): "fsc3(-1,1)", (0, 1): "fsc3(-1,-1)"},
    (1, 0): {(0, 0): "fsc3(-1,1)", (1, 0): "fsc3(-1,-1)"},
    (1, 1): {(0, 0): "fsc2(i,1)", (1, 1): "fsc2(i,i)"},
}


def square_tau(a, b, c, d):
    tau = complex(c, d) / complex(a, b)
    if tau.imag < 0:
        raise FscError("torus rows (a,b), (c,d) must be positively oriented")
    return tau


def square_fsc(a, b, c, d):
    """Finite-size correction of the square-lattice torus on rows (a,b),(c,d).

    Returns -inf when the vertex count a d - b c is odd (no dimer covers).
    """
    if (a * d - b * c) % 2:
        return -math.inf
    curve = _SQUARE_TABLE[(a % 2, b % 2)][(c % 2, d % 2)]
    tau = square_tau(a, b, c, d)
    return dict(SQUARE_CURVES)[curve](tau)


def square_curve_values(logrho):
    """The seven parity-class correction curves at tau = i exp(logrho)."""
    tau = 1j * math.exp(logrho)
    return [(name, fun(tau)) for name, fun in SQUARE_CURVES]


def square_quotient(a, b, c, d):
    """(oriented domain, E') with the same torus as the 1x1 square rows.

    Picks a cell doubling compatible with the row parities: the diagonal
    doubling when both row sums are even, else the horizontal or vertical
    one.  Returns None when a d - b c is odd.
    """
    E = np.array([[a, b], [c, d]], dtype=int)
    if _lattice.int_det(E) % 2:
        return None
    base = _lattice.builtin("square-1x1")
    if (a + b) % 2 == 0 and (c + d) % 2 == 0:
        mode = "diagonal"
    elif a % 2 == 0 and c % 2 == 0:
        mode = "horizontal"
    elif b % 2 == 0 and d % 2 == 0:
        mode = "vertical"
    else:  # pragma: no cover - excluded by the parity check above
        return None
    F = _lattice.DOUBLE_MODES[mode]
    dom = _lattice.double_domain(base, mode)
    return dom, _lattice.lattice_coords(E, F)


# -- Fisher lattice / Ising specialization ----------------------------------------


def kappa(a, b, c):
    """Criticality indicators of the decorated-triangle spectral curve."""
    return (a + b + c - a * b * c,
            -a + b + c + a * b * c,
            a - b + c + a * b * c,
            a + b - c + a * b * c)


def ising_weights(beta_a, beta_b, beta_c):
    return math.exp(2 * beta_a), math.exp(2 * beta_b), math.exp(2 * beta_c)


def ising_log_Z_from_dimers(E, beta_a, beta_b, beta_c):
    """log of the triangular-lattice Ising partition function via dimers.

    One spin per cell, couplings beta_a / beta_b / beta_c on the e1 / e2 /
    diagonal bonds; the partition function is twice the (0,0) dimer sector
    of the decorated lattice at weights e^{2 beta}, deflated by e^{beta}
    per coupling bond.
    """
    a, b, c = ising_weights(beta_a, beta_b, beta_c)
    dom = _lattice.builtin("fisher", a=a, b=b, c=c)
    E = np.asarray(E, dtype=int)
    det = abs(_lattice.int_det(E))
    table = _kasteleyn.sector_table(dom, E)
    log_z00 = table.log_sector(0, 0)
    return LOG2 + log_z00 - det * (beta_a + beta_b + beta_c)


IsingReport = namedtuple(
    "IsingReport",
    ["kappa", "vanishing", "critical_line", "node_location", "pattern_checks",
     "log_Z_ising"],
)

_KAPPA_LINES = (
    ("kappa_0", "ferromagnetic critical line a+b+c = abc"),
    ("kappa_a", "antiferromagnetic critical line -a+b+c+abc = 0"),
    ("kappa_b", "antiferromagnetic critical line a-b+c+abc = 0"),
    ("kappa_c", "antiferromagnetic critical line a+b-c+abc = 0"),
)

_KAPPA_POINTS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def ising_critical_check(beta_a, beta_b, beta_c, sizes=(2, 4), tol=1e-9):
    """Criticality report for the triangular Ising model at given couplings.

    Reports which kappa indicator vanishes (if any), the corresponding
    critical line, and -- when the spectral node sits at a sign point whose
    quotient phases are (+-1, +-1) -- verifies the exact doubled-sector
    pattern Z = 2 Z^{rs} on the m x m tori in `sizes`, alongside the Ising
    partition function computed through the dimer correspondence.
    """
    a, b, c = ising_weights(beta_a, beta_b, beta_c)
    kap = kappa(a, b, c)
    scale = max(abs(k) for k in kap)
    vanishing = [name for (name, _), k in zip(_KAPPA_LINES, kap)
                 if abs(k) <= tol * scale]
    lines = [line for (name, line), k in zip(_KAPPA_LINES, kap)
             if abs(k) <= tol * scale]
    node_loc = None
    if vanishing:
        node_loc = _KAPPA_POINTS[
            [name for name, _ in _KAPPA_LINES].index(vanishing[0])]
    dom = _lattice.builtin("fisher", a=a, b=b, c=c)
    checks = []
    logz = {}
    for m in sizes:
        E = np.array([[m, 0], [0, m]], dtype=int)
        table = _kasteleyn.sector_table(dom, E)
        logz[m] = (LOG2 + table.log_sector(0, 0)
                   - m * m * (beta_a + beta_b + beta_c))
        if node_loc is None:
            continue
        z0, w0 = node_loc
        zeta = z0 ** E[0, 0] * w0 ** E[0, 1]
        xi_ = z0 ** E[1, 0] * w0 ** E[1, 1]
        rE, sE = (0 if zeta == 1 else 1), (0 if xi_ == 1 else 1)
        twice = 2.0 * table.sectors_scaled[_kasteleyn.SECTOR_ORDER.index((sE, rE))]
        checks.append((m, (sE, rE), abs(table.Z_scaled - twice) <= 1e-10 * abs(table.Z_scaled)))
    return IsingReport(kap, vanishing, lines, node_loc, checks, logz)


def ising_log_Z_transfer(m, n, beta_a, beta_b, beta_c):
    """log Ising partition function on the m x n triangular torus by transfer.

    Spins sigma(i, j) with i mod m, j mod n; bonds sigma(i,j)-sigma(i+1,j)
    with beta_a, sigma(i,j)-sigma(i,j+1) with beta_b, and the diagonal
    sigma(i,j)-sigma(i+1,j+1) with beta_c.
    """
    states = 1 << m

    def spin(bits, idx):
        return 1.0 if (bits >> (idx % m)) & 1 else -1.0

    T = np.zeros((states, states))
    for cur in range(states):
        intra = sum(
            beta_a * spin(cur, i) * spin(cur, i + 1) for i in range(m)
        )
        for prev in range(states):
            inter = sum(
                beta_b * spin(prev, i) * spin(cur, i)
                + beta_c * spin(prev, i) * spin(cur, i + 1)
                for i in range(m)
            )
            T[cur, prev] = math.exp(intra + inter)
    total = np.trace(np.linalg.matrix_power(T, n))
    return math.log(total)
