"""Characteristic (spectral) polynomials of oriented domains.

P(z, w) = det K(z, w) is recovered as an exact Laurent polynomial from
point evaluations; for 2-colored domains Q(z, w) = det of the
black/white block satisfies P(z, w) = Q(z, w) Q(1/z, 1/w).  On the unit
torus P is real and nonnegative, and its zeros ("nodes") control the
finite-size behaviour of the quotient partition functions.

One zero search (_torus_zeros) finds the nodes and the cuts of every Jensen
quadrature; f0 is half the Ronkin function of P at 0, cut at the nodes.
"""

import cmath
import math
from collections import namedtuple
from functools import cache, cached_property

import numpy as np

from .laurent import LaurentPoly2
from .lattice import leibniz_bound, verify_orientation

NodeReport = namedtuple("NodeReport", ["location", "arguments", "hessian", "D", "tau", "kind"])

CriticalityReport = namedtuple(
    "CriticalityReport", ["kind", "nodes", "outside_conjectured_class"]
)

CLASS_NON_VANISHING = "non-vanishing"
CLASS_SINGLE_REAL = "single-real-node"
CLASS_TWO_REAL = "two-real-nodes"
CLASS_CONJUGATE = "distinct-conjugate-nodes"
CLASS_REAL_ROOT_Q = "real-root-of-Q"


class CharPolyError(ValueError):
    pass


class CharPoly:
    """P (and Q for a 2-colored domain) of one domain, with its node data and f0.

    nodes and f0 are computed on first use and kept for the object's life.
    """

    def __init__(self, dom, P, Q=None):
        self.dom = dom
        self.P = P
        self.Q = Q

    @cached_property
    def nodes(self):
        """CriticalityReport of find_nodes(self)."""
        return find_nodes(self)

    @cached_property
    def f0(self):
        """Per-cell free energy, free_energy(self)."""
        return free_energy(self)


def build_charpoly(dom):
    """Spectral polynomial(s) of an oriented domain.

    Refuses domains that fail verify_orientation (their determinants do
    not count matchings with coherent signs) and curves that go negative
    on the unit torus.
    """
    rep = verify_orientation(dom)
    if not (rep.faces_clockwise_odd and rep.m0_sign_positive and rep.alternating_cycles_positive):
        raise CharPolyError("domain signs fail verification: %r" % (rep.offending_items,))
    P = LaurentPoly2.from_evaluator(lambda z, w: np.linalg.det(dom.K(z, w)), leibniz_bound(dom))
    if not P.is_real(tol=1e-9):
        raise CharPolyError("P(z, w) came out non-real")
    P = P.real_part()
    diff = P - P.reciprocal_vars()
    scale = max(abs(c) for c in P.coeffs.values())
    if any(abs(c) > 1e-9 * scale for c in diff.coeffs.values()):
        raise CharPolyError("P(z, w) != P(1/z, 1/w)")
    Q = None
    if dom.bipartite:
        Q = LaurentPoly2.from_evaluator(lambda z, w: np.linalg.det(dom.Qblock(z, w)),
                                        leibniz_bound(dom, qblock=True))
        rng = np.random.default_rng(11)
        for _ in range(8):
            z = cmath.exp(2j * math.pi * rng.random())
            w = cmath.exp(2j * math.pi * rng.random())
            if abs(abs(Q(z, w)) ** 2 - P(z, w).real) > 1e-8 * max(scale, 1.0):
                raise CharPolyError("P != |Q|^2 on the unit torus")
    zz = np.exp(1j * math.pi * (np.linspace(-1, 1, 64, endpoint=False) + 1.0 / 64))
    if P(zz[:, None], zz[None, :]).real.min() < -1e-9 * scale:
        raise CharPolyError("P is negative on the unit torus")
    return CharPoly(dom, P, Q)


# -- free energy and Ronkin function --------------------------------------------


def _trim_bounds(rows, rel_tol=1e-12):
    """(lo, hi) of each row: the span outside which |entries| <= rel_tol * row max."""
    mag = np.abs(rows)
    top = mag.max(axis=-1)
    if np.any(top == 0.0):
        raise CharPolyError("slice vanishes identically")
    keep = mag > rel_tol * top[:, None]
    return np.argmax(keep, axis=-1), rows.shape[-1] - np.argmax(keep[:, ::-1], axis=-1)


def _slices(poly, x, axis):
    """(rows, valuation): poly's ascending w- (or z-) coefficients at each point of x.

    One matrix product of the powers of the 1-D array x with the dense
    coefficient box; valuation is the exponent of every row's first entry.
    """
    mat, zmin, wmin = poly._dense()
    if axis == "z":
        mat, zmin, wmin = mat.T, wmin, zmin
    return (x[:, None] ** np.arange(zmin, zmin + mat.shape[0])) @ mat, wmin


def _stacked_roots(rows):
    """Roots of a stack of ascending coefficient rows, grouped by trimmed support.

    Each row is cut to the span [lo, hi) outside which its entries are at
    most 1e-12 of its largest (_trim_bounds; a row of zeros raises
    CharPolyError), so lo counts its roots at 0 and the roots of infinite
    size are dropped.  The rows of each span share one stacked eigvals call
    on companion matrices whose first row holds the negated coefficients
    over the leading one (linear and quadratic rows need none).  Yields
    (pick, lo, c, roots) per span: the boolean row mask, lo, the trimmed
    coefficients (rows, hi - lo) and the roots (rows, hi - lo - 1).  Every
    slice root in the package comes from here.
    """
    lo, hi = _trim_bounds(rows)
    for a, b in sorted(set(zip(lo.tolist(), hi.tolist()))):
        pick = (lo == a) & (hi == b)
        c = rows[pick, a:b]
        n = b - a - 1
        if n <= 1:
            yield pick, a, c, -c[:, :n] / c[:, -1:]
            continue
        if n == 2:  # the quadratic formula, with no cancellation in q
            disc = np.sqrt(c[:, 1] ** 2 - 4 * c[:, 0] * c[:, 2])
            q = -0.5 * (c[:, 1] + np.where((c[:, 1].conj() * disc).real < 0, -disc, disc))
            yield pick, a, c, np.stack([q / c[:, 2], c[:, 0] / q], axis=1)
            continue
        comp = np.zeros((len(c), n, n), dtype=complex)
        comp[:, 0, :] = -c[:, -2::-1] / c[:, -1:]
        comp[:, np.arange(1, n), np.arange(n - 1)] = 1.0
        yield pick, a, c, np.linalg.eigvals(comp)


def _slice_log_means(poly, z):
    """(1/2pi) integral of log|poly(z, w)| dw over |w| = 1 at each z of a 1-D array.

    Jensen's formula: log|leading w-coefficient| plus log|root| summed over
    the w-roots outside the unit circle.  _slices gives every slice's
    w-coefficients, and _stacked_roots their roots.
    """
    rows, _ = _slices(poly, z, "w")
    out = np.empty(len(z))
    for pick, _lo, c, roots in _stacked_roots(rows):
        out[pick] = (np.log(np.abs(c[:, -1]))
                     + np.log(np.maximum(np.abs(roots), 1.0)).sum(axis=-1))
    return out


@cache
def _gauss_legendre():
    """64-point Gauss-Legendre nodes and weights on [-1, 1], made on first use."""
    return np.polynomial.legendre.leggauss(64)


def _torus_log_mean(poly, cut_args):
    """Mean of log|poly| over the unit torus.

    The inner mean over |w| = 1 is exact by Jensen's formula.  In the angle
    of z it kinks only at the zeros of poly on the torus, whose z-arguments
    in half turns are cut_args; each piece between cuts gets 64-point
    Gauss-Legendre quadrature, and the abscissae of all pieces go to one
    _slice_log_means call.
    """
    x, wts = _gauss_legendre()
    cuts = np.array(sorted({0.0, 2 * math.pi} | {math.pi * r % (2 * math.pi) for r in cut_args}))
    mid, half = 0.5 * (cuts[1:] + cuts[:-1]), 0.5 * (cuts[1:] - cuts[:-1])
    angles = mid[:, None] + half[:, None] * x
    inner = _slice_log_means(poly, np.exp(1j * angles.ravel())).reshape(angles.shape)
    return float(half @ (inner @ wts)) / (2 * math.pi)


def free_energy(cp):
    """Per-cell free energy f0 = mean of (1/2) log P over the unit torus.

    This is half the Ronkin function of P at the origin (Kenyon, Okounkov
    and Sheffield, Dimers and amoebae).  The quadrature of _torus_log_mean
    is cut at the nodes of cp.nodes, so a curve that find_nodes refuses
    raises CharPolyError here too; its 64 abscissae per piece are
    evaluated in one batch (_slice_log_means).
    """
    return 0.5 * _torus_log_mean(cp.P, [n.arguments[0] for n in cp.nodes.nodes])


def ronkin(poly, alpha):
    """Ronkin function R(alpha) = mean of log|poly| over the torus at level alpha.

    That is the unit-torus mean of log|poly_a| for poly_a(z, w) =
    poly(e^a1 z, e^a2 w), cut at the zeros of poly_a on the unit torus.
    They are the zeros of the nonnegative |poly_a|^2, which _torus_zeros
    finds as it finds the nodes of P.  Two zeros within a grid cell or two
    (a cell is 1/128 half turn) can share one cut, which costs accuracy:
    up to about 1e-5 for P itself at |alpha| below 0.02.
    """
    pa = poly.scale_vars(math.exp(float(alpha[0])), math.exp(float(alpha[1])))
    conj = LaurentPoly2({(-i, -j): c.conjugate() for (i, j), c in pa.coeffs.items()})
    return _torus_log_mean(pa, [r for r, _s in _torus_zeros(pa * conj)])


# -- nodes and criticality classes ---------------------------------------------


def _wrap_half_turns(x):
    y = math.fmod(x, 2.0)
    if y > 1.0:
        y -= 2.0
    elif y <= -1.0:
        y += 2.0
    return y


def _torus_hessian(z, w, Pzz, Pzw, Pww):
    """Hessian of P(e^{i pi r}, e^{i pi s}) in the half turns (r, s)."""
    return -math.pi**2 * np.array(
        [[complex(Pzz(z, w)).real, complex(Pzw(z, w)).real],
         [complex(Pzw(z, w)).real, complex(Pww(z, w)).real]]
    )


def _newton_node(r, s, Pz, Pw, Pzz, Pzw, Pww):
    """(r, s, converged) of Newton for a stationary point of P in half turns,
    in plain floats with _torus_hessian's 2 x 2 step solved in closed form."""
    for _ in range(80):
        z, w = cmath.exp(1j * math.pi * r), cmath.exp(1j * math.pi * s)
        gr, gs = -math.pi * Pz(z, w).imag, -math.pi * Pw(z, w).imag
        if max(abs(gr), abs(gs)) <= 1e-12:
            return r, s, True
        a, b = -math.pi**2 * Pzz(z, w).real, -math.pi**2 * Pzw(z, w).real
        c = -math.pi**2 * Pww(z, w).real
        det = a * c - b * b
        if det == 0.0:
            return r, s, False
        dr, ds = (c * gr - b * gs) / det, (a * gs - b * gr) / det
        if not (abs(dr) <= 0.25 and abs(ds) <= 0.25):
            return r, s, False
        r, s = r - dr, s - ds
    return r, s, False


def _second_form(Dz, Dw, z0, w0):
    """-Re of the torus second derivatives at (z0, w0), from the first ones Dz, Dw."""
    h11 = -complex(Dz.zdz()(z0, w0)).real
    h12 = -complex(Dz.wdw()(z0, w0)).real
    h22 = -complex(Dw.wdw()(z0, w0)).real
    return np.array([[h11, h12], [h12, h22]])


def _q_hessian(grad, scale, z0, w0):
    """Node form of |Q|^2 at a zero of Q, from its torus gradient grad = (Q.zdz(), Q.wdw())."""
    Az, Aw = (complex(d(z0, w0)) for d in grad)
    if max(abs(Az), abs(Aw)) > 1e-7 * scale:
        # simple zero of Q: |Q|^2 is quadratic with gradient outer-product form
        return np.array([[abs(Az) ** 2, (Az * Aw.conjugate()).real],
                         [(Az * Aw.conjugate()).real, abs(Aw) ** 2]])
    # nodal zero of Q itself (P = |Q|^2 quartic): second-derivative form
    return _second_form(*grad, z0, w0)


def _p_hessian(P, z0, w0):
    return _second_form(P.zdz(), P.wdw(), z0, w0) / 2


def tau_of_hessian(H):
    """Half-period ratio (-B + i sqrt(det H)) / A_w of a positive form."""
    D = math.sqrt(max(np.linalg.det(H), 0.0))
    return complex(-H[0, 1], D) / H[1, 1]


def _torus_zeros(P):
    """Zeros of P, real and nonnegative on the unit torus, as half turns (r, s).

    Each zero is a minimum of P.  Grid minima low enough to hide one seed a
    Newton search for a stationary point, and the points where P vanishes
    are kept once each, with r and s wrapped into (-1, 1].
    """
    grid, value_tol = 256, 1e-10
    rr = -1.0 + 2.0 * (np.arange(grid) + 0.5) / grid
    zz = np.exp(1j * math.pi * rr)
    vals = P(zz[:, None], zz[None, :]).real
    scale = float(vals.max())
    Pz, Pw = P.zdz(), P.wdw()
    Pzz, Pzw, Pww = Pz.zdz(), Pz.wdw(), Pw.wdw()

    # every zero has a grid point within (pi/grid) sqrt(2) radians, where P is
    # at most (pi/grid)^2 sum |c_ij| (i^2 + j^2): no higher minimum can lead to one
    curvature = sum(abs(c) * (i * i + j * j) for (i, j), c in P.coeffs.items())
    low = (math.pi / grid) ** 2 * curvature + value_tol * scale
    ii, jj = np.nonzero(vals <= low)
    v = vals[ii, jj]
    is_min = ((v <= vals[ii - 1, jj]) & (v <= vals[(ii + 1) % grid, jj])
              & (v <= vals[ii, jj - 1]) & (v <= vals[ii, (jj + 1) % grid]))
    # real points are always stationary; seed them first so that a cluster of
    # near-converged candidates around a real zero keeps the exact location
    cand = [(r, s) for r in (0.0, 1.0) for s in (0.0, 1.0)]
    cand.extend((rr[i], rr[j]) for i, j in zip(ii[is_min], jj[is_min]))
    seeds = len(cand)

    found = []
    for k, (r, s) in enumerate(cand):
        r2, s2, ok = _newton_node(r, s, Pz, Pw, Pzz, Pzw, Pww)
        if not ok:
            continue
        z0, w0 = cmath.exp(1j * math.pi * r2), cmath.exp(1j * math.pi * s2)
        value = abs(complex(P(z0, w0)))
        if value > value_tol * scale:
            # two zeros a cell or two apart can share one grid minimum, from
            # which Newton finds the low saddle between them: seed once more
            # one cell down each side (from grid seeds only, so this ends)
            if k < seeds and value <= low:
                lam, V = np.linalg.eigh(_torus_hessian(z0, w0, Pzz, Pzw, Pww))
                if lam[0] < 0 < lam[1]:
                    v = V[:, 0] * (2.0 / grid)
                    cand.extend([(r2 + v[0], s2 + v[1]), (r2 - v[0], s2 - v[1])])
            continue
        r2, s2 = _wrap_half_turns(r2), _wrap_half_turns(s2)
        # dedup radius sized for quartic zeros, where |P| < tol already holds
        # at distance ~ tol^(1/4) and Newton stalls before full convergence
        for rknown, sknown in found:
            if (abs(_wrap_half_turns(r2 - rknown)) < 5e-3
                    and abs(_wrap_half_turns(s2 - sknown)) < 5e-3):
                break
        else:
            found.append((r2, s2))
    return found


def find_nodes(cp):
    """Locate and classify the zeros of P on the unit torus.

    Returns a CriticalityReport whose kind is one of: non-vanishing,
    single-real-node, two-real-nodes, distinct-conjugate-nodes,
    real-root-of-Q.  Zeros of a non-colored domain away from the real
    points fall outside the supported classification and are flagged.
    """
    found = _torus_zeros(cp.P)

    grad = qscale = None
    if cp.Q is not None:
        grad = (cp.Q.zdz(), cp.Q.wdw())
        qscale = max(abs(c) for c in cp.Q.coeffs.values())

    nodes = []
    outside = False
    for (r, s) in sorted(found):
        real_pt = abs(r - round(r)) < 1e-8 and abs(s - round(s)) < 1e-8
        if real_pt:
            r, s = float(round(r)), float(round(s))
            r, s = _wrap_half_turns(r) if r else 0.0, _wrap_half_turns(s) if s else 0.0
        z0, w0 = cmath.exp(1j * math.pi * r), cmath.exp(1j * math.pi * s)
        if real_pt:
            z0, w0 = complex(round(z0.real)), complex(round(w0.real))
        if real_pt and cp.Q is not None and abs(complex(cp.Q(z0, w0))) < 1e-8 * qscale:
            H = _q_hessian(grad, qscale, z0, w0)
            kind = "real-root-of-Q-node"
        elif real_pt:
            H = _p_hessian(cp.P, z0, w0)
            kind = "real-node"
        elif cp.Q is not None:
            H = _q_hessian(grad, qscale, z0, w0)
            kind = "conjugate-pair-member"
        else:
            H = _p_hessian(cp.P, z0, w0)
            kind = "conjugate-pair-member"
            outside = True
        if np.linalg.det(H) <= 0 or H[1, 1] <= 0:
            raise CharPolyError("degenerate node Hessian at (%g, %g)" % (r, s))
        D = math.sqrt(np.linalg.det(H))
        nodes.append(NodeReport((z0, w0), (r, s), H, D, tau_of_hessian(H), kind))

    kinds = [n.kind for n in nodes]
    if not nodes:
        cls = CLASS_NON_VANISHING
    elif kinds == ["real-root-of-Q-node"]:
        cls = CLASS_REAL_ROOT_Q
    elif all(k == "conjugate-pair-member" for k in kinds) and len(nodes) == 2:
        cls = CLASS_CONJUGATE
        nodes = order_conjugate_pair(grad, nodes)
    elif all(k == "real-node" for k in kinds):
        cls = CLASS_SINGLE_REAL if len(nodes) == 1 else CLASS_TWO_REAL
        if len(nodes) > 2:
            raise CharPolyError("more than two real nodes; unsupported curve")
    else:
        raise CharPolyError("unrecognized node pattern: %r" % (kinds,))
    return CriticalityReport(cls, nodes, outside)


# -- conjugate-node bookkeeping -------------------------------------------------


def order_conjugate_pair(grad, nodes):
    """The pair with its distinguished member first: the one whose w-root
    moves inside |w| = 1 as z turns forward.

    grad is Q's torus gradient (Q.zdz(), Q.wdw()), or None for a domain
    without Q, whose order is kept.  Through a simple zero of Q the slice
    root moves as d log w / d theta = -i Az / Aw for z = z0 e^(i theta),
    Az = z Q_z and Aw = w Q_w, so |w| decreases exactly where
    Im(Az conj(Aw)) < 0.  The torus zeros of a real spectral curve are
    transversal conjugate pairs (Kenyon, Okounkov and Sheffield, Dimers and
    amoebae), whose members have opposite signs; a pair that does not split
    raises CharPolyError.
    """
    if grad is None:
        return nodes
    inward = []
    for n in nodes:
        Az, Aw = (complex(d(*n.location)) for d in grad)
        inward.append((Az * Aw.conjugate()).imag < 0)
    if inward[0] == inward[1]:
        raise CharPolyError("conjugate pair does not split into one decreasing member")
    return nodes if inward[0] else [nodes[1], nodes[0]]


def root_counts(q, nodes=()):
    """Slice windings {('v', x): ..., ('h', y): ...} of Q at x, y = +-1.

    ('v', x) counts w-roots of Q(x, w) strictly inside the unit circle
    plus the w-valuation of the slice; ('h', y) the same with roles
    swapped.  The four slices come from _slices and their roots from
    _stacked_roots, so a vanishing end coefficient moves the valuation or
    drops a root at infinity.  Roots on the unit circle are tolerated only
    at the supplied node locations.
    """
    x = np.array([1.0, -1.0])
    out = {}
    for axis, key, fixed in (("w", "v", 0), ("z", "h", 1)):
        rows, low = _slices(q, x, axis)
        for pick, lo, _c, roots in _stacked_roots(rows):
            for at, rts in zip(x[pick], roots):
                mag = np.abs(rts)
                for rt in rts[(mag >= 1.0 - 1e-8) & (mag <= 1.0 + 1e-8)]:
                    if not any(abs(at - loc[fixed]) < 1e-6 and abs(rt - loc[1 - fixed]) < 1e-6
                               for loc in (n.location for n in nodes)):
                        raise CharPolyError("slice root on the unit circle away from any node")
                out[(key, int(at))] = int(np.sum(mag < 1.0 - 1e-8)) + low + lo
    return out
