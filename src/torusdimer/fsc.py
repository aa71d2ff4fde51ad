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

predict, winding_law and winding_distribution_gaussian take the spectral
curve (cp, E) and read its domain as cp.dom; predict_logZ
(which also serves the curveless unit square) and sector_table_auto take
(dom, E).  A singular or non-2x2 E, or one past the range of
kasteleyn._as_E, raises kasteleyn.QuotientError.
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
SIGMA_COND_LIMIT = 1e8  # beyond it the Gaussian model is taken in a reduced basis


class FscError(ValueError):
    pass


# A correction sweep takes log_xi in blocks of CURVE_BLOCK taus and holds at
# most CURVE_POINT_LIMIT points.  Measured through the CLI (Python 3.11, numpy
# 2.x, x86-64 Linux), the seven square-1x1 curves at the limit of 10^5 points
# peak at 274 MB of RSS as CSV and 428 MB as JSON (hexagonal: 176 and 264 MB);
# 2 x 10^5 points reach 496 and 815 MB.  One log_xi call over 10^5 square-1x1
# points takes 1.29 GB, and over 3 x 10^6 hexagonal ones more than 3 GB.
CURVE_BLOCK = 4096
CURVE_POINT_LIMIT = 100000


class CurveRangeError(ValueError):
    """A correction curve asked at a log aspect where it leaves double precision."""


def _logsumexp(vals):
    """log sum exp over the last axis: a float for 1-D vals, else an array.

    Each row is shifted by its own maximum and its sum's log taken by
    math.log, so a row's value does not depend on the rows beside it.
    """
    top = np.max(vals, axis=-1)
    sums = np.exp(vals - np.where(top == -math.inf, 0.0, top)[..., None]).sum(axis=-1)
    out = np.array([-math.inf if t == -math.inf else t + math.log(s)
                    for t, s in zip(top.ravel().tolist(), sums.ravel().tolist())])
    return out.reshape(top.shape) if top.ndim else float(out[0])


# -- the three universal correction functions ----------------------------------


def _slot_logs(products, tau):
    """log prod Xi(z zeta, w xi | tau) over each product's phase pairs (zeta, xi) at
    each slot (z, w) of kasteleyn.SLOTS, shaped tau.shape + (len(products), 4).

    The products are equal-length tuples, a squared factor given twice (added
    as lx + lx); one log_xi call takes the distinct pairs at every tau.
    """
    factors = list(dict.fromkeys(f for product in products for f in product))
    z, w = np.array(_kasteleyn.SLOTS, dtype=float).T
    lx = log_xi(np.array([z * a for a, _b in factors]), np.array([w * b for _a, b in factors]),
                np.expand_dims(tau, (-2, -1)))
    return lx[..., [[factors.index(f) for f in product] for product in products], :].sum(axis=-2)


def _corrections(products, tau):
    """log of (1/2) sum over the slots of each product's slot values (_slot_logs)."""
    return _logsumexp(_slot_logs(products, tau)) - LOG2


def _correction(product, tau):
    value = _corrections([product], tau)[..., 0]
    return value if value.ndim else float(value)


def _sector_share(product, r, s, tau):
    """log of the (r, s) sector of kasteleyn.slot_sectors at one product's slot
    values, signed by kasteleyn.SLOT_SIGNS (-inf when not positive)."""
    pf = _kasteleyn.SLOT_SIGNS * np.exp(_slot_logs([product], tau)[0])
    share = float(_kasteleyn.slot_sectors(pf)[_kasteleyn.SECTOR_ORDER.index((r % 2, s % 2))])
    return math.log(share) if share > 0 else -math.inf


def fsc1(tau):
    """log of (1/2) sum over sign pairs of Xi(z, w | tau); tau a number or an array."""
    return _correction(((1, 1),), tau)


def fsc1_sector(a, b, tau):
    """log of the (a, b) sector share of fsc1 (can be -inf)."""
    return _sector_share(((1, 1),), a, b, tau)


def fsc2(zeta, xi_, tau):
    """log of (1/2) sum over sign pairs of Xi(z zeta, w xi | tau)^2; tau a number or an array."""
    return _correction(((zeta, xi_), (zeta, xi_)), tau)


def fsc2_sector(r, s, zeta, xi_, tau):
    """log of the (r, s) sector share of fsc2 (can be -inf)."""
    return _sector_share(((zeta, xi_), (zeta, xi_)), r, s, tau)


def fsc2_gaussian(r, s, tau):
    """fsc2(e^{i pi r}, e^{i pi s} | tau) as a lattice Gaussian sum."""
    tau = complex(tau)
    rad = 3
    prev = None
    for _ in range(40):
        n = np.arange(-rad, rad + 1)
        e1, e2 = np.meshgrid(n - float(s), n + float(r), indexing="ij")
        tot = float(np.exp(-0.5 * math.pi * g_tau(tau, e1, e2)).sum())
        if prev is not None and abs(tot - prev) <= 1e-16 * tot:  # the box no longer adds
            break
        prev = tot
        rad += 2
    return (
        math.log(tot)
        - 2 * log_abs_eta(tau)
        - 0.5 * math.log(2 * tau.imag)
    )


def fsc3(zeta, xi_, tau):
    """log of (1/2) sum over sign pairs of Xi(z, w) Xi(z zeta, w xi); phases +-1.

    tau is a number or an array.
    """
    if zeta not in (1, -1) or xi_ not in (1, -1):
        raise FscError("fsc3 is defined for sign phases only")
    return _correction(((1, 1), (zeta, xi_)), tau)


# -- per-node conformal data ----------------------------------------------------

ConformalData = namedtuple("ConformalData", ["tau", "zeta", "xi", "r", "s"])


def conformal_data(E, node):
    """Shape parameter and boundary phases of one node on the E-quotient.

    tau is that of the pulled-back form E^-T H E^-1 = adj(E)^T H adj(E) / det^2,
    Im-positive for any orientation of E, with its determinant taken exactly
    as det H / det^2; the phases are
    zeta = z0^E11 w0^E12 = e^{i pi r} and xi = z0^E21 w0^E22 = e^{i pi s},
    computed in angle space with r, s wrapped into (-1, 1].
    """
    E = np.asarray(E, dtype=int)
    det = abs(_lattice.int_det(E))
    adj = _lattice.adjugate(E).astype(float)
    M = adj.T @ node.hessian @ adj / float(det) ** 2
    tau = complex(-M[0, 1], node.D / det) / M[1, 1]
    r0, s0 = node.arguments
    r = _charpoly._wrap_half_turns(E[0, 0] * r0 + E[0, 1] * s0)
    s = _charpoly._wrap_half_turns(E[1, 0] * r0 + E[1, 1] * s0)
    return ConformalData(tau, cmath.exp(1j * math.pi * r),
                         cmath.exp(1j * math.pi * s), r, s)


def _node_multiplicity(node):
    return 2 if node.kind == "real-root-of-Q-node" else 1


def predict(cp, E):
    """FscResult for the E-quotient of cp.dom: correction value, sector shares, shape data.

    On a non-vanishing (gaseous) curve every |Pf| is exp(|det E| f0) up to
    exponentially small terms, so the value is log of half the sum of
    kasteleyn.SLOT_SIGNS times the exact slot signs
    (kasteleyn.real_point_signs of cp.dom), with no sector refinement.
    """
    E = _kasteleyn._as_E(E)
    rep = cp.nodes
    f0 = cp.f0
    det = abs(_lattice.int_det(E))
    if rep.kind == _charpoly.CLASS_NON_VANISHING:
        signs = _kasteleyn.real_point_signs(cp.dom, E)
        lead = float(_kasteleyn.SLOT_SIGNS @ signs)
        if lead <= 0:
            raise FscError("gaseous slot signs %r cancel: no leading term" % (signs,))
        value = math.log(0.5 * lead)
        return FscResult(rep.kind, value, None, None, None, None, None, None,
                         f0, det * f0 + value, [])
    nodes = [(conformal_data(E, n), _node_multiplicity(n)) for n in rep.nodes]
    logs = np.full(4, det * f0)
    for cd, mult in nodes:
        logs += _slot_logs([((cd.zeta, cd.xi),) * mult], cd.tau)[0]
    table = _kasteleyn.SectorTable(E, _kasteleyn.SLOT_SIGNS, logs.tolist(), cp.dom.k)
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


def predict_logZ(dom, E):
    """Predicted log Z_E = detE * f0 + fsc, dispatching on criticality class.

    The unit square lattice (odd cell) is dispatched through the parity
    table of its row vectors; a coverless parity returns -inf.  Any other
    domain goes through predict on its spectral curve, built here.
    """
    E = _kasteleyn._as_E(E)
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
    return predict(_charpoly.build_charpoly(dom), E).log_Z


def sector_table_auto(dom, E):
    """(kasteleyn.sector_table, the method label that the CLI prints).

    The label is "dense" up to 4096 vertices (640 for a non-bipartite
    domain), else "magnitude+" and the class of the nodes of dom's spectral
    curve, which is built here only then.
    """
    table = _kasteleyn.sector_table(dom, E)
    if dom.k * abs(_lattice.int_det(E)) <= (4096 if dom.bipartite else 640):
        return table, "dense"
    return table, "magnitude+" + _charpoly.build_charpoly(dom).nodes.kind


# -- winding statistics ----------------------------------------------------------


def _color_swapped(counts):
    """True when the stored colors' vertical slice winding of root_counts at
    z = +1 exceeds the one at z = -1 by one."""
    return counts[("v", 1)] == counts[("v", -1)] + 1


def normalized_node_data(cp):
    """Distinguished node in the color convention with increasing spectral flow.

    Returns ((r0, s0), color_swapped), color_swapped as _color_swapped
    reads Q's slice windings.  Swapping the colors turns Q into
    Q(1/z, 1/w), which reverses every slice root's motion, so the
    normalized node is then the other member of cp.nodes' ordered pair.
    """
    if cp.Q is None:
        raise FscError("node normalization needs a 2-colored domain")
    rep = cp.nodes
    if rep.kind != _charpoly.CLASS_CONJUGATE:
        raise FscError("node normalization applies to conjugate-node curves")
    swapped = _color_swapped(cp.windings)
    return rep.nodes[1 if swapped else 0].arguments, swapped


def winding_law(cp, E):
    """Discrete-Gaussian law (mu, Sigma) of the height winding on the E-quotient of cp.dom.

    Conventions follow the stored 2-coloring: windings count black-to-white
    cell offsets of the matching against the reference m0, and mu is built
    from the stored distinguished node and the -1-arc slice windings
    (completed continuously when the node sits at z = -1 or w = -1).
    """
    E = _kasteleyn._as_E(E)
    rep = cp.nodes
    if rep.kind != _charpoly.CLASS_CONJUGATE:
        raise FscError("winding law needs a distinct-conjugate-node curve")
    node = rep.nodes[0]
    z0, w0 = node.location
    counts = cp.windings

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
    adj = _lattice.adjugate(E)  # its transpose det(E) (E^T)^-1 is the jump
    mu = (1.0 / math.pi) * np.array([x * argz + y * argw, -u * argz - v * argw])
    mu = mu - adj.T @ ell
    # printed keys turn on floor(mu) (discrete_gaussian's box) and on ties at half
    # integers (the exact window's centre): snap a node's rounding noise away
    mu = np.where(np.abs(2 * mu - np.round(2 * mu)) <= 2e-9, np.round(2 * mu) / 2, mu)
    # E^-T H E^-1 |det E| / sqrt(det H), with E^-1 = adj(E) / det E
    det = abs(_lattice.int_det(E))
    sigma = adj.T @ node.hessian @ adj / (det * node.D)
    return WindingLaw((float(mu[0]), float(mu[1])), sigma, _color_swapped(counts),
                      (int(ell[0]), int(ell[1])))


def winding_distribution_gaussian(cp, E):
    """discrete_gaussian of winding_law: {winding in E-coordinates: mass}.

    When Sigma is too ill-conditioned in the basis E to invert (rows far
    from reduced, such as a det-1 E with entries near 1e8), the law is taken
    in the Lagrange-reduced basis R of E = T R and its windings carried back
    exactly by e -> adj(T)^T e = T^-T e: winding_law is linear in adj(E)^T,
    and adj(T R) = adj(R) adj(T).
    """
    law = winding_law(cp, E)
    # Both bases give the same masses, but discrete_gaussian returns a box of
    # cells around mu in the basis it works in: reducing every E would change
    # which far-tail cells the winding command prints (7 of the 18 perfbench
    # winding inputs, all with masses below 1e-49).
    if np.linalg.cond(law.sigma) < SIGMA_COND_LIMIT:
        return discrete_gaussian(law.mu, law.sigma)
    T, R = _lattice.reduce_rows(E)
    law = winding_law(cp, R)
    back = _lattice.adjugate(T).T
    return {tuple(int(x) for x in back @ e): p
            for e, p in discrete_gaussian(law.mu, law.sigma).items()}


# -- square-lattice parity table --------------------------------------------------

# (name, product of _slot_logs): fsc2(zeta, xi) pairs (zeta, xi) with itself,
# fsc3(zeta, xi) pairs it with (1, 1)
SQUARE_CURVES = (
    ("fsc2(1,1)", ((1, 1), (1, 1))),
    ("fsc2(i,1)", ((1j, 1), (1j, 1))),
    ("fsc2(1,i)", ((1, 1j), (1, 1j))),
    ("fsc2(i,i)", ((1j, 1j), (1j, 1j))),
    ("fsc3(1,-1)", ((1, 1), (1, -1))),
    ("fsc3(-1,1)", ((1, 1), (-1, 1))),
    ("fsc3(-1,-1)", ((1, 1), (-1, -1))),
)

# fsc2 at the boundary-phase classes of the hexagonal lattice's nodes
_W6 = cmath.exp(1j * math.pi / 3)
HEXAGONAL_CURVES = tuple((name, ((zeta, xi_), (zeta, xi_))) for name, zeta, xi_ in (
    ("phase-(1,1)", 1 + 0j, 1 + 0j),
    ("phase-(1,w)", 1 + 0j, cmath.exp(2j * math.pi / 3)),
    ("phase-(w6,-1)", _W6, -1 + 0j),
    ("phase-(w6,-w6)", _W6, -_W6.conjugate()),
))

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
    return _correction(dict(SQUARE_CURVES)[curve], tau)


def _curve_values(curves, logrho):
    """[(name, values)] of curves at tau = i exp(logrho), one log_xi call per
    CURVE_BLOCK taus (an entry's value does not depend on the others of its call).

    A number logrho gives a float per curve, a sequence a list.  More than
    CURVE_POINT_LIMIT points, a logrho that is not finite, or a tau or value
    that overflows, raises CurveRangeError.
    """
    lrs = np.ravel(logrho).tolist()
    if len(lrs) > CURVE_POINT_LIMIT:
        raise CurveRangeError("%d log rho points, more than the %d a sweep may hold"
                              % (len(lrs), CURVE_POINT_LIMIT))
    names, phases = zip(*curves)
    try:
        with np.errstate(over="raise", invalid="raise"):
            tau = np.array([1j * math.exp(lr) for lr in lrs])
            values = None
            if np.isfinite(tau).all() and (tau.imag > 0).all():
                blocks = [_corrections(phases, tau[i:i + CURVE_BLOCK])
                          for i in range(0, max(len(tau), 1), CURVE_BLOCK)]
                values = np.concatenate(blocks).reshape(np.shape(logrho) + (len(names),))
    except (OverflowError, FloatingPointError):
        values = None
    if values is None or not np.isfinite(values).all():
        raise CurveRangeError("the correction curves leave double precision for log rho "
                              "from %g to %g" % (lrs[0], lrs[-1]))
    return list(zip(names, np.moveaxis(values, -1, 0).tolist()))


def square_curve_values(logrho):
    """The seven parity-class correction curves at tau = i exp(logrho)."""
    return _curve_values(SQUARE_CURVES, logrho)


def hexagonal_curve_values(logrho):
    """fsc2 at the four hexagonal phase classes at tau = i exp(logrho)."""
    return _curve_values(HEXAGONAL_CURVES, logrho)


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
    else:  # an even det puts both rows mod 2 on one F2 line, here the line of (1, 0)
        mode = "vertical"
    F = _lattice.DOUBLE_MODES[mode]
    return _lattice.sublattice_domain(base, F), _lattice.lattice_coords(E, F)


# -- Fisher lattice / Ising specialization ----------------------------------------


def kappa(a, b, c):
    """Criticality indicators of the decorated-triangle spectral curve."""
    return (a + b + c - a * b * c,
            -a + b + c + a * b * c,
            a - b + c + a * b * c,
            a + b - c + a * b * c)


def ising_weights(beta_a, beta_b, beta_c):
    """The dimer weights e^(2 beta) of the couplings; ValueError when one overflows."""
    try:
        return math.exp(2 * beta_a), math.exp(2 * beta_b), math.exp(2 * beta_c)
    except OverflowError:  # the largest coupling overflows first (a NaN never does)
        beta, name = max(pair for pair in ((beta_a, "beta_a"), (beta_b, "beta_b"),
                                           (beta_c, "beta_c")) if pair[0] > 0)
        raise ValueError("coupling %s = %r overflows its dimer weight e^(2 beta)"
                         % (name, beta)) from None


def _ising_log_Z(table, beta_a, beta_b, beta_c):
    """log Ising Z from the decorated lattice's sector table at weights e^{2 beta}."""
    det = abs(_lattice.int_det(table.E))
    return LOG2 + table.log_sector(0, 0) - det * (beta_a + beta_b + beta_c)


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


def ising_critical_check(beta_a, beta_b, beta_c, sizes):
    """Criticality report for the triangular Ising model at given couplings.

    Reports which kappa indicator vanishes (to 1e-9 of the largest), if
    any, the corresponding critical line, and -- when the spectral node
    sits at a sign point whose quotient phases are (+-1, +-1) -- verifies
    the exact doubled-sector pattern Z = 2 Z^{rs} on the m x m tori in
    `sizes`, alongside the Ising partition function computed through the
    dimer correspondence.  A size that is not an integer of at least 1
    raises ValueError.
    """
    bad = [m for m in sizes if not (m >= 1 and m == int(m))]
    if bad:
        raise ValueError("torus sizes must be integers of at least 1, got %r" % (bad[0],))
    a, b, c = ising_weights(beta_a, beta_b, beta_c)
    kap = kappa(a, b, c)
    scale = max(abs(k) for k in kap)
    hits = [entry for entry, k in zip(_KAPPA_LINES, kap) if abs(k) <= 1e-9 * scale]
    vanishing = [name for name, _line in hits]
    lines = [line for _name, line in hits]
    node_loc = None
    if vanishing:
        # kappa_0, kappa_a, kappa_b, kappa_c vanish with a node at the slots in order
        slot = [name for name, _ in _KAPPA_LINES].index(vanishing[0])
        node_loc, node_half = _kasteleyn.SLOTS[slot], _kasteleyn.SLOT_HALF_TURNS[slot]
    dom = _lattice.builtin("fisher", a=a, b=b, c=c)
    checks = []
    logz = {}
    for m in sizes:
        E = np.array([[m, 0], [0, m]], dtype=int)
        table = _kasteleyn.sector_table(dom, E)
        logz[m] = _ising_log_Z(table, beta_a, beta_b, beta_c)
        if node_loc is None:
            continue
        rE, sE = (E @ node_half % 2).tolist()  # the half turns of the node's phases
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
