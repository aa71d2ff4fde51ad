"""Fundamental domains of Z^2-periodic weighted graphs.

A domain records one unit cell: vertices 0..k-1, edges between cells as
(tail, head, dx, dy, weight, sign) where (dx, dy) is the cell offset of
the head relative to the tail, an optional 2-coloring (0 = black,
1 = white), the face cycles of the periodic planar embedding, and a
reference perfect matching m0 used to normalize signs.

Faces are stored as lists of (edge_index, direction) steps with
direction +1 when the edge is traversed tail -> head.  The sign data is
valid when every face has step-sign product -1 (step sign is +sign for a
forward step and -sign for a backward step), the reference matching m0
pairs positively, and the matchings of the 1x1, 2x1 and 1x2 quotients
carry + in homology class (0, 0) and - in the other three.  Given the face
condition a class has one sign, which the slot Pfaffians of the quotient
reveal; kasteleyn.matching_sign_classes reads them off eight k x k cell
values, so verify_orientation checks all three in O(k^3), once per signed
graph in a process; orient() produces such signs from scratch.  cell_det
(det Qblock if 2-colored, else det K) is the one determinant the spectral
curve interpolates, the slice product multiplies and the node polish solves.
"""

import functools
import json
import math
from collections import namedtuple

import numpy as np

Edge = namedtuple("Edge", ["tail", "head", "dx", "dy", "weight", "sign"])


class OrientationReport(namedtuple("OrientationReport", [
        "faces_clockwise_odd", "m0_sign_positive", "alternating_cycles_positive",
        "offending_items"])):
    ok = property(lambda rep: rep.faces_clockwise_odd and rep.m0_sign_positive
                  and rep.alternating_cycles_positive, doc="All three sign conditions hold.")


class DomainError(ValueError):
    pass


class OrientationError(ValueError):
    pass


def _int(x):
    """int(x); DomainError unless x has an integer value (2.0 has; 2.9, "2" and inf have not)."""
    if isinstance(x, (int, np.integer)) or isinstance(x, float) and x.is_integer():
        return int(x)
    raise DomainError("lattice field %r is not an integer" % (x,))


class FundamentalDomain:
    def __init__(self, k, edges, faces, m0, colors=None, name=None, weights=None):
        self.k = _int(k)
        self.edges = [Edge(_int(t), _int(h), _int(dx), _int(dy), float(w), _int(s))
                      for (t, h, dx, dy, w, s) in edges]
        self.faces = [[(_int(e), _int(d)) for (e, d) in f] for f in faces]
        self.m0 = [_int(e) for e in m0]
        self.colors = None if colors is None else [_int(c) for c in colors]
        self.name = name
        self.weights = dict(weights) if weights else {}
        self.validate()

    # -- structure checks ---------------------------------------------------

    def validate(self):
        if self.k < 1:
            raise DomainError("empty domain")
        for e in self.edges:
            if not (0 <= e.tail < self.k and 0 <= e.head < self.k):
                raise DomainError("edge endpoint out of range: %r" % (e,))
            if not 0 < e.weight < math.inf:
                raise DomainError("edge weights must be finite and positive: %r" % (e,))
            if e.sign not in (-1, 1):
                raise DomainError("edge sign must be +-1: %r" % (e,))
        if self.colors is not None:
            if len(self.colors) != self.k or set(self.colors) - {0, 1}:
                raise DomainError("colors must be one 0/1 entry per vertex")
            for e in self.edges:
                if self.colors[e.tail] == self.colors[e.head]:
                    raise DomainError("edge joins like-colored vertices: %r" % (e,))
        seen = {}
        for f_idx, face in enumerate(self.faces):
            x = y = 0
            for (ei, d) in face:
                if not (0 <= ei < len(self.edges)) or d not in (-1, 1):
                    raise DomainError("bad face step (%d,%d)" % (ei, d))
                seen[(ei, d)] = seen.get((ei, d), 0) + 1
                e = self.edges[ei]
                x += d * e.dx
                y += d * e.dy
            if x or y:
                raise DomainError("face %d does not close up in the plane" % f_idx)
        if self.faces:
            for ei in range(len(self.edges)):
                if seen.get((ei, 1), 0) != 1 or seen.get((ei, -1), 0) != 1:
                    raise DomainError("edge %d not used once per side in faces" % ei)
            if len(self.faces) != len(self.edges) - self.k:
                raise DomainError("face count violates the torus Euler relation")
        if not all(0 <= ei < len(self.edges) for ei in self.m0):
            raise DomainError("m0 names an edge out of range: %r" % (self.m0,))
        covered = sorted(v for ei in self.m0 for v in (self.edges[ei].tail, self.edges[ei].head))
        if self.m0 and covered != list(range(self.k)):
            raise DomainError("m0 is not a perfect matching")

    @property
    def bipartite(self):
        return self.colors is not None

    def blacks(self):
        return [v for v in range(self.k) if self.colors[v] == 0]

    def whites(self):
        return [v for v in range(self.k) if self.colors[v] == 1]

    # -- matrices -----------------------------------------------------------

    def K(self, z, w):
        """Kasteleyn matrix of the 1x1 quotient at (z, w), (..., k, k) for arrays."""
        z, w = np.asarray(z, dtype=complex), np.asarray(w, dtype=complex)
        mat = np.zeros(np.broadcast_shapes(z.shape, w.shape) + (self.k,) * 2, dtype=complex)
        for e in self.edges:
            val = z**e.dx * w**e.dy if e.dx or e.dy else 1.0
            mat[..., e.tail, e.head] += e.sign * e.weight * val
            mat[..., e.head, e.tail] -= e.sign * e.weight / val
        return mat

    def Qblock(self, z, w):
        """Black-row/white-column block of K, batched like K; requires a coloring."""
        if not self.bipartite:
            raise DomainError("Qblock needs a 2-colored domain")
        return self.K(z, w)[..., self.blacks(), :][..., self.whites()]

    def cell_det(self, z, w):
        """det Qblock on a 2-colored domain, else det K, batched like K; closed forms
        up to 2 x 2 (numpy's det of a 1 x 1 matrix can miss its entry by an ulp)."""
        M = self.Qblock(z, w) if self.bipartite else self.K(z, w)
        if M.shape[-1] == 1:
            return M[..., 0, 0]
        if M.shape[-1] == 2:
            return M[..., 0, 0] * M[..., 1, 1] - M[..., 0, 1] * M[..., 1, 0]
        return np.linalg.det(M)

    def with_signs(self, signs):
        return FundamentalDomain(
            self.k,
            [e._replace(sign=int(s)) for e, s in zip(self.edges, signs)],
            self.faces, self.m0, self.colors, self.name, self.weights,
        )

    # -- serialization -------------------------------------------------------

    def to_json(self):
        doc = {
            "vertices": self.k,
            "colored": self.colors is not None,
            "edges": [[e.tail, e.head, e.dx, e.dy, e.weight, e.sign] for e in self.edges],
            "faces": [[[ei, d] for (ei, d) in f] for f in self.faces],
            "m0": list(self.m0),
        }
        if self.colors is not None:
            doc["colors"] = list(self.colors)
        if self.name:
            doc["name"] = self.name
        if self.weights:
            doc["weights"] = self.weights
        return doc

    @classmethod
    def from_json(cls, doc):
        """The domain of a to_json document; DomainError when it is not one."""
        if not isinstance(doc, dict):
            raise DomainError("a lattice document is a JSON object, not %s" % type(doc).__name__)
        colors = doc.get("colors") if doc.get("colored") else None
        try:
            vertices, edges = doc["vertices"], doc["edges"]
        except KeyError as exc:
            raise DomainError("lattice document is missing field %s" % exc)
        try:
            return cls(vertices, edges, doc.get("faces", []), doc.get("m0", []),
                       colors=colors, name=doc.get("name"), weights=doc.get("weights"))
        except TypeError as exc:  # a field of the wrong JSON type
            raise DomainError("malformed lattice document: %s" % exc) from None

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=1)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json(json.load(fh))


# -- built-in domains ---------------------------------------------------------


def builtin(name, **weights):
    """Built-in fundamental domains with frozen sign conventions.

    Names: hexagonal (a, b, c), square-2x1 / square-1x2 (a, b),
    square-bip (a, b), fisher (a, b, c), rhombi-3464 (a, b, c).
    """
    w = {k: float(v) for k, v in weights.items()}
    for v in w.values():
        if not 0 < v < math.inf:
            raise DomainError("weights must be finite and positive, got %r" % v)

    if name == "hexagonal":
        a, b, c = w.get("a", 1.0), w.get("b", 1.0), w.get("c", 1.0)
        return FundamentalDomain(
            2,
            [(0, 1, 0, 0, a, 1), (0, 1, 1, 0, b, -1), (0, 1, 0, 1, c, -1)],
            [[(0, 1), (1, -1), (2, 1), (0, -1), (1, 1), (2, -1)]],
            [0], colors=[0, 1], name=name, weights={"a": a, "b": b, "c": c},
        )

    if name == "square-2x1":
        a, b = w.get("a", 1.0), w.get("b", 1.0)
        return FundamentalDomain(
            2,
            [(0, 1, 0, 0, a, 1), (1, 0, 1, 0, a, 1), (0, 0, 0, 1, b, 1), (1, 1, 0, 1, b, -1)],
            [[(0, 1), (3, -1), (0, -1), (2, 1)], [(1, 1), (2, -1), (1, -1), (3, 1)]],
            [0], name=name, weights={"a": a, "b": b},
        )

    if name == "square-1x2":
        base = builtin("square-2x1", **w)
        rot = [(e.tail, e.head, -e.dy, e.dx, e.weight, e.sign) for e in base.edges]
        return FundamentalDomain(2, rot, base.faces, base.m0, name=name, weights=base.weights)

    if name == "square-bip":
        a, b = w.get("a", 1.0), w.get("b", 1.0)
        return FundamentalDomain(
            2,
            [(0, 1, 0, 0, a, 1), (0, 1, 1, 0, a, -1), (0, 1, 1, -1, b, -1), (0, 1, 0, 1, b, -1)],
            [[(0, 1), (2, -1), (1, 1), (3, -1)], [(0, -1), (2, 1), (1, -1), (3, 1)]],
            [0], colors=[0, 1], name=name, weights={"a": a, "b": b},
        )

    if name == "fisher":
        a, b, c = w.get("a", 1.0), w.get("b", 1.0), w.get("c", 1.0)
        edges = [
            (0, 1, 0, 0, 1.0, -1), (0, 2, 0, 0, 1.0, 1), (0, 4, 0, 0, c, -1),
            (1, 2, 0, 0, 1.0, -1), (1, 5, 0, 0, b, -1), (2, 3, 0, 0, a, -1),
            (3, 4, 0, 1, 1.0, -1), (3, 5, -1, 1, 1.0, 1), (4, 5, -1, 0, 1.0, -1),
        ]
        faces = [
            [(0, 1), (3, 1), (1, -1)],
            [(6, 1), (8, 1), (7, -1)],
            [(0, -1), (2, 1), (6, -1), (5, -1), (3, -1), (4, 1), (8, -1), (2, -1), (1, 1), (5, 1), (7, 1), (4, -1)],
        ]
        return FundamentalDomain(6, edges, faces, [2, 4, 5], name=name,
                                 weights={"a": a, "b": b, "c": c})

    if name == "rhombi-3464":
        a, b, c = w.get("a", 1.0), w.get("b", 1.0), w.get("c", 1.0)
        edges = [
            (0, 1, 0, 0, b, -1), (0, 2, -1, 0, 1.0, 1), (0, 4, 0, -1, 1.0, -1),
            (0, 5, 0, 0, a, -1), (1, 2, 0, 0, c, -1), (1, 3, 0, -1, 1.0, 1),
            (1, 5, 1, -1, 1.0, 1), (2, 3, 0, 0, a, -1), (2, 4, 1, -1, 1.0, -1),
            (3, 4, 0, 0, b, 1), (3, 5, 1, 0, 1.0, 1), (4, 5, 0, 0, c, 1),
        ]
        faces = [
            [(1, 1), (8, 1), (2, -1)],
            [(5, 1), (10, 1), (6, -1)],
            [(0, -1), (2, 1), (9, -1), (5, -1)],
            [(1, -1), (3, 1), (10, -1), (7, -1)],
            [(4, -1), (6, 1), (11, -1), (8, -1)],
            [(0, 1), (4, 1), (7, 1), (9, 1), (11, 1), (3, -1)],
        ]
        return FundamentalDomain(6, edges, faces, [0, 7, 11], name=name,
                                 weights={"a": a, "b": b, "c": c})

    if name == "square-1x1":
        # single-vertex square cell; carries no valid signs (odd cell) but
        # its enlargements by DOUBLE_MODES do (fsc.square_quotient)
        a, b = w.get("a", 1.0), w.get("b", 1.0)
        return FundamentalDomain(1, [(0, 0, 1, 0, a, 1), (0, 0, 0, 1, b, 1)],
                                 [[(0, 1), (1, 1), (0, -1), (1, -1)]], [],
                                 name=name, weights={"a": a, "b": b})

    raise DomainError("unknown built-in %r" % (name,))


BUILTIN_NAMES = ("square-2x1", "square-1x2", "square-bip", "hexagonal", "fisher", "rhombi-3464")


# -- integer lattice helpers --------------------------------------------------


def int_det(E):
    """det E = ad - bc of an integer 2x2 matrix, in Python ints."""
    (a, b), (c, d) = ((int(x) for x in row) for row in np.asarray(E))
    return a * d - b * c


def adjugate(E):
    """adj(E) = det(E) E^-1 of an integer 2x2 matrix, as an int64 array."""
    (a, b), (c, d) = ((int(x) for x in row) for row in np.asarray(E))
    return np.array([[d, -b], [-c, a]], dtype=np.int64)


def reduce_rows(E):
    """(T, R) with E = T R, det T = +1 and the rows of R Lagrange-reduced.

    Exact integer arithmetic: the rows of R are a shortest basis of the row
    lattice of E, with the orientation of E (each swap flips it, so the
    second row is negated when the count is odd).
    """
    r1, r2 = ([int(x) for x in row] for row in np.asarray(E))

    def dot(a, b):
        return a[0] * b[0] + a[1] * b[1]

    while True:
        if dot(r2, r2) < dot(r1, r1):
            r1, r2 = r2, r1
        m = (2 * dot(r1, r2) + dot(r1, r1)) // (2 * dot(r1, r1))  # nearest integer
        if m == 0:
            break
        r2 = [r2[0] - m * r1[0], r2[1] - m * r1[1]]
    if (r1[0] * r2[1] - r1[1] * r2[0] > 0) != (int_det(E) > 0):
        r2 = [-r2[0], -r2[1]]
    R = np.array([r1, r2], dtype=np.int64)
    return np.asarray(E, dtype=np.int64) @ adjugate(R) // int_det(R), R


def lattice_coords(V, E):
    """Integer n with V = n E, for one vector or an (..., 2) array of them.

    Computed exactly as V adj(E) / det E; raises DomainError when some V
    is not in the row lattice of E.
    """
    n, rem = np.divmod(np.asarray(V, dtype=np.int64) @ adjugate(E), int_det(E))
    if rem.any():
        raise DomainError("vector is not in the row lattice of E")
    return n


def hermite_form(E):
    """(H, U) with H = U E = [[p, q], [0, r]], p, r > 0, 0 <= q < r, det U = +-1.

    The row Hermite form of an integer 2x2 matrix by Euclid on the first
    column, carrying the row operations in U; exact integers, O(1) in |det E|.
    """
    det = int_det(E)
    if det == 0:
        raise DomainError("singular quotient matrix")
    (a, b), (c, d) = ((int(x) for x in row) for row in np.asarray(E))
    r1, r2 = [a, b, 1, 0], [c, d, 0, 1]  # a row of H followed by its row of U
    while r2[0] != 0:
        if r1[0] == 0 or abs(r2[0]) < abs(r1[0]):
            r1, r2 = r2, r1
        if r2[0] != 0:
            m = r2[0] // r1[0]
            r2 = [x - m * y for x, y in zip(r2, r1)]
    if r1[0] < 0:
        r1 = [-x for x in r1]
    if r2[1] < 0:
        r2 = [-x for x in r2]
    m = r1[1] // r2[1]
    r1 = [x - m * y for x, y in zip(r1, r2)]
    assert r1[0] * r2[1] == abs(det)
    return (np.array([r1[:2], r2[:2]], dtype=int),
            np.array([r1[2:], r2[2:]], dtype=np.int64))


def hnf_residues(E):
    """Row Hermite form of an integer 2x2 matrix and coset representatives.

    Returns (H, reps, reduce) where H = [[p, q], [0, r]] (0 <= q < r) is
    hermite_form(E)'s and reps is the (|det E|, 2) int array of the
    residues (i, j), 0 <= i < p, 0 <= j < r, of Z^2 / Z^2 E in lexicographic
    order, so residue (i, j) has index i r + j.  reduce(V) maps an integer
    vector, or an (..., 2) int array of them, to (index, jump) with
    V = reps[index] + jump E; index has V's leading shape and jump is
    (..., 2), both exact integers.
    """
    E = np.asarray(E, dtype=int)
    H, _U = hermite_form(E)
    (p, q), (_, r) = H.tolist()
    i, j = np.divmod(np.arange(p * r), r)
    reps = np.stack([i, j], axis=1)

    def reduce(V):
        V = np.asarray(V, dtype=np.int64)
        m1 = V[..., 0] // p
        rep1 = V[..., 0] - m1 * p
        rep2 = (V[..., 1] - m1 * q) % r
        rep = np.stack([rep1, rep2], axis=-1)
        return rep1 * r + rep2, lattice_coords(V - rep, E)

    return H, reps, reduce


def instance_edges(dom, E):
    """Residue-major edge table of the E-quotient: (tail, head, jump).

    Row ridx * len(dom.edges) + ei is edge ei leaving residue ridx; tail and
    head are instance indices (residue index * k + vertex) and jump is the
    (rows, 2) cell jump of the head in E-coordinates.
    """
    _, reps, reduce = hnf_residues(E)
    ed = np.array([(e.tail, e.head, e.dx, e.dy) for e in dom.edges], dtype=np.int64)
    ed = ed.reshape(-1, 4)
    tgt, jump = reduce(reps[:, None, :] + ed[None, :, 2:])
    tail = np.arange(len(reps))[:, None] * dom.k + ed[None, :, 0]
    head = tgt * dom.k + ed[None, :, 1]
    return tail.ravel(), head.ravel(), jump.reshape(-1, 2)


def leibniz_bound(dom):
    """(bz, bw), with the exponents of dom.cell_det(z, w) in [-bz, bz] x [-bw, bw]: the one
    determinant that the curve interpolates, the slice product multiplies and the polish solves.

    Each Leibniz term takes one entry per row and one per column, so per
    axis its exponent is at most upper = min(sum over rows of the row's
    largest entry exponent, the same sum over columns) and at least lower =
    max(the two sums of the smallest); the bound is max(upper, -lower).  It
    depends on the edge offsets (and colors) alone, so it is memoised on
    them like verify_orientation's report.
    """
    edges = tuple([(e.tail, e.head, e.dx, e.dy) for e in dom.edges])
    return _edge_leibniz_bound(edges, None if dom.colors is None else tuple(dom.colors))


@functools.lru_cache(maxsize=256)
def _edge_leibniz_bound(edges, colors):
    """leibniz_bound of K, or of Qblock when colors are given."""
    entries = []  # (row, column, dx, dy) of each monomial of the matrix
    for t, h, dx, dy in edges:
        forward, backward = (t, h, dx, dy), (h, t, -dx, -dy)
        if colors is None:
            entries += [forward, backward]
        else:  # black rows, white columns
            entries.append(forward if colors[t] == 0 else backward)
    bound = []
    for axis in (2, 3):
        highs, lows = [], []
        for side in (0, 1):
            top, bottom = {}, {}
            for entry in entries:
                line, x = entry[side], entry[axis]
                top[line] = max(top.get(line, x), x)
                bottom[line] = min(bottom.get(line, x), x)
            highs.append(sum(top.values()))
            lows.append(sum(bottom.values()))
        bound.append(max(min(highs), -max(lows)))
    return tuple(bound)


# -- sign verification --------------------------------------------------------


def permutation_sign(seq):
    n = len(seq)
    seen = [False] * n
    pos = {v: i for i, v in enumerate(sorted(seq))}
    perm = [pos[v] for v in seq]
    sign = 1
    for i in range(n):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def matching_pairing_sign(dom, edge_indices):
    """Sign of the given perfect matching's term in the Pfaffian of K(1,1)."""
    seq, prod = [], 1
    for ei in edge_indices:
        e = dom.edges[ei]
        seq.extend([e.tail, e.head])
        prod *= e.sign
    return permutation_sign(seq) * prod


def verify_orientation(dom):
    """Check the three sign conditions; returns an OrientationReport.

    The class signs come from the unit-weight slot Pfaffians of the three
    quotients, read off eight k x k cell values.  They group matchings by
    class only under the face condition, so are checked only when the faces
    and m0 pass (else the third flag is False, with no class entries).

    The report depends on the signed graph alone: a matching's sign relative
    to its homology class never depends on the weights (Cimasoni-Reshetikhin).
    So it is memoised per process on the key (k, (tail, head, dx, dy, sign)
    per edge, faces, m0), exactly what the checks read; weights, colors and
    names never enter it, and each call gets its own offending_items list.
    """
    key = (dom.k, tuple([(e.tail, e.head, e.dx, e.dy, e.sign) for e in dom.edges]),
           tuple([tuple(face) for face in dom.faces]), tuple(dom.m0))
    faces_ok, m0_ok, cycles_ok, bad = _signed_graph_report(key)
    return OrientationReport(faces_ok, m0_ok, cycles_ok, list(bad))


@functools.lru_cache(maxsize=256)
def _signed_graph_report(key):
    """verify_orientation's flags and offending items of one memo key."""
    k, edges, faces, m0 = key
    dom = FundamentalDomain(k, [(t, h, dx, dy, 1.0, s) for t, h, dx, dy, s in edges], faces, m0)
    bad = [("face", f_idx) for f_idx, face in enumerate(dom.faces)
           if math.prod(dom.edges[ei].sign * d for ei, d in face) != -1]
    if not dom.faces:
        bad.append(("face", "missing"))
    faces_ok = not bad

    if dom.m0 and dom.k % 2 == 0:
        m0_ok = matching_pairing_sign(dom, dom.m0) == 1
        if not m0_ok:
            bad.append(("m0", tuple(dom.m0)))
    else:
        m0_ok = False
        bad.append(("m0", "missing"))

    cycles_ok = faces_ok and m0_ok
    if cycles_ok:
        from . import kasteleyn  # deferred; kasteleyn imports this module

        found = kasteleyn.matching_sign_classes(dom)
        bad += [("class", (E, cls, (sign,))) for E, classes in found.items()
                for cls, sign in classes.items() if sign != (1 if cls == (0, 0) else -1)]
        cycles_ok = not bad
    return faces_ok, m0_ok, cycles_ok, tuple(bad)


def _solve_face_system(dom):
    """One F2 solution of the face sign conditions, as a 0/1 vector per edge.

    Face f is the bit row with bit ei per step over edge ei and, on the
    right-hand side (bit ne), the parity that makes its sign product -1.
    Gauss-Jordan elimination takes pivots column by column, each the first
    row left with that bit; the free edges get 0.
    """
    ne = len(dom.edges)
    rows = []
    for face in dom.faces:
        row = 1 << ne  # require product -1
        for (ei, d) in face:
            row ^= 1 << ei | (1 << ne if d == -1 else 0)
        rows.append(row)
    pivots = []
    for col in range(ne):
        r = len(pivots)
        sel = next((i for i in range(r, len(rows)) if rows[i] >> col & 1), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        rows = [row ^ rows[r] if i != r and row >> col & 1 else row for i, row in enumerate(rows)]
        pivots.append(col)
    if any(row >> ne for row in rows[len(pivots):]):
        raise OrientationError("face sign conditions are inconsistent")
    x = [0] * ne
    for i, col in enumerate(pivots):
        x[col] = rows[i] >> ne & 1
    return x


def _dfs_matchings(n, edges):
    """Every perfect matching of vertices 0..n-1 by the (i, j, tag) edges, depth first.

    Yields lists of indices into edges; the lowest unmatched vertex is
    matched next, by its edges in list order.
    """
    adj = [[] for _ in range(n)]
    for idx, (i, j, _tag) in enumerate(edges):
        if i != j:
            adj[min(i, j)].append(idx)
    used = [False] * n
    chosen = []

    def go(v):
        while v < n and used[v]:
            v += 1
        if v == n:
            yield list(chosen)
            return
        for idx in adj[v]:
            i, j, _ = edges[idx]
            other = j if i == v else i
            if used[other]:
                continue
            used[v] = used[other] = True
            chosen.append(idx)
            yield from go(v + 1)
            chosen.pop()
            used[v] = used[other] = False

    yield from go(0)


def find_reference_matching(dom):
    """A perfect matching of the cell, preferring cell-internal edges."""
    for internal in (True, False):
        pool = [i for i, e in enumerate(dom.edges) if not internal or e.dx == e.dy == 0]
        found = next(_dfs_matchings(dom.k, [dom.edges[i][:2] + (i,) for i in pool]), None)
        if found is not None:
            return [pool[idx] for idx in found]
    raise OrientationError("cell admits no reference perfect matching")


def _twist_candidates(dom, m0):
    """The four boundary sign twists of one F2 solution of the face conditions,
    each with m0 made positive by a vertex gauge."""
    base_signs = [1 - 2 * x for x in _solve_face_system(dom)]
    for fx in (0, 1):
        for fy in (0, 1):
            cand = FundamentalDomain(
                dom.k, [e._replace(sign=s * (-1) ** (fx * e.dx + fy * e.dy))
                        for s, e in zip(base_signs, dom.edges)],
                dom.faces, m0, dom.colors, dom.name, dom.weights)
            if matching_pairing_sign(cand, m0) != 1:  # flip the edges at vertex 0
                cand = cand.with_signs([-e.sign if (e.tail == 0) != (e.head == 0) else e.sign
                                        for e in cand.edges])
            yield cand


def orient(dom):
    """Assign edge signs making the domain pass verify_orientation.

    Solves the face conditions over F2, normalizes the sign of the
    reference matching (dom.m0, else find_reference_matching's) by a
    vertex gauge, then searches the four boundary sign twists for the one
    whose homology classes carry the right signs, each candidate costing
    the eight k x k cell values of verify_orientation.  Raises
    OrientationError when no assignment passes the checks (e.g. the face
    data does not describe a planar torus embedding).
    """
    if dom.k % 2:
        raise OrientationError("odd cell: no perfect matchings, cannot orient")
    m0 = dom.m0 if dom.m0 else find_reference_matching(dom)
    for cand in _twist_candidates(dom, m0):
        if verify_orientation(cand).ok:
            return cand
    raise OrientationError("no admissible sign assignment found")


# -- cell doubling ------------------------------------------------------------

DOUBLE_MODES = {
    "horizontal": np.array([[2, 0], [0, 1]]),
    "vertical": np.array([[1, 0], [0, 2]]),
    "diagonal": np.array([[2, 0], [1, 1]]),
}


def sublattice_domain(dom, F):
    """Quotient-compatible enlargement of the cell by the sublattice Z^2 F.

    Vertex instances are ordered (residue index, vertex index); cell
    displacement n of the new domain corresponds to displacement n F of
    the original one.  Signs are always reassigned from scratch by orient(),
    which keeps the instance order of the edges and faces.
    """
    F = np.asarray(F, dtype=int)
    _, reps, reduce = hnf_residues(F)
    d = len(reps)
    k2 = dom.k * d
    ne = len(dom.edges)

    tail, head, jump = instance_edges(dom, F)
    new_edges = [(t, h, n[0], n[1], e.weight, 1) for t, h, n, e
                 in zip(tail.tolist(), head.tolist(), jump.tolist(), dom.edges * d)]

    # a face step uses the instance of its edge leaving the step's tail cell
    new_faces = []
    for face in dom.faces:
        cells, cell = [], np.zeros(2, dtype=int)
        for (ei, dd) in face:
            e = dom.edges[ei]
            if dd == -1:
                cell = cell - (e.dx, e.dy)
            cells.append(cell)
            if dd == 1:
                cell = cell + (e.dx, e.dy)
        rows, _ = reduce(reps[:, None, :] + np.array(cells)[None])
        new_faces.extend([(rho * ne + ei, dd) for rho, (ei, dd) in zip(row, face)]
                         for row in rows.tolist())

    new_m0 = [rho * ne + ei for rho in range(d) for ei in dom.m0]

    if dom.colors is not None:
        colors = [dom.colors[v % dom.k] for v in range(k2)]
    else:  # 2-colour the enlarged graph, each component from its lowest vertex
        adjacent = [[] for _ in range(k2)]
        for t, h, *_rest in new_edges:
            adjacent[t].append(h)
            adjacent[h].append(t)
        colors = [-1] * k2
        for start in range(k2):
            if colors[start] == -1:
                colors[start], stack = 0, [start]
                while stack:
                    u = stack.pop()
                    for v in adjacent[u]:
                        if colors[v] == -1:
                            colors[v] = 1 - colors[u]
                            stack.append(v)
        if any(colors[t] == colors[h] for t, h, *_rest in new_edges):
            colors = None  # an odd cycle

    return orient(FundamentalDomain(k2, new_edges, new_faces, new_m0, colors=colors,
                                    name=(dom.name or "domain") + "-x%d" % d,
                                    weights=dom.weights))

