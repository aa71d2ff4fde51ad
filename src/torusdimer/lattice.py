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
pairs positively, and matchings of small torus quotients carry the sign
of their homology class.  verify_orientation checks all three;
orient() produces such signs from scratch.
"""

import json
import math
from collections import namedtuple

import numpy as np

Edge = namedtuple("Edge", ["tail", "head", "dx", "dy", "weight", "sign"])

OrientationReport = namedtuple(
    "OrientationReport",
    ["faces_clockwise_odd", "m0_sign_positive", "alternating_cycles_positive", "offending_items"],
)


class DomainError(ValueError):
    pass


class OrientationError(ValueError):
    pass


class FundamentalDomain:
    def __init__(self, k, edges, faces, m0, colors=None, name=None, weights=None):
        self.k = int(k)
        self.edges = [Edge(int(t), int(h), int(dx), int(dy), float(w), int(s))
                      for (t, h, dx, dy, w, s) in edges]
        self.faces = [[(int(e), int(d)) for (e, d) in f] for f in faces]
        self.m0 = [int(e) for e in m0]
        self.colors = None if colors is None else [int(c) for c in colors]
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
            if e.weight <= 0:
                raise DomainError("edge weights must be positive: %r" % (e,))
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
            off = np.zeros(2, dtype=int)
            for (ei, d) in face:
                if not (0 <= ei < len(self.edges)) or d not in (-1, 1):
                    raise DomainError("bad face step (%d,%d)" % (ei, d))
                seen[(ei, d)] = seen.get((ei, d), 0) + 1
                e = self.edges[ei]
                off += d * np.array([e.dx, e.dy])
            if off.any():
                raise DomainError("face %d does not close up in the plane" % f_idx)
        if self.faces:
            for ei in range(len(self.edges)):
                if seen.get((ei, 1), 0) != 1 or seen.get((ei, -1), 0) != 1:
                    raise DomainError("edge %d not used once per side in faces" % ei)
            if len(self.faces) != len(self.edges) - self.k:
                raise DomainError("face count violates the torus Euler relation")
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
        colors = doc.get("colors") if doc.get("colored") else None
        try:
            vertices, edges = doc["vertices"], doc["edges"]
        except (KeyError, TypeError) as exc:
            raise DomainError("lattice document is missing field %s" % exc)
        return cls(vertices, edges, doc.get("faces", []), doc.get("m0", []),
                   colors=colors, name=doc.get("name"), weights=doc.get("weights"))

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
        if v <= 0:
            raise DomainError("weights must be positive")

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
        # is useful as double_domain input
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


def lattice_coords(V, E):
    """Integer n with V = n E, for one vector or an (..., 2) array of them.

    Computed exactly as V adj(E) / det E; raises DomainError when some V
    is not in the row lattice of E.
    """
    (a, b), (c, d) = ((int(x) for x in row) for row in np.asarray(E))
    det = a * d - b * c
    V = np.asarray(V, dtype=np.int64)
    num = np.stack([V[..., 0] * d - V[..., 1] * c, V[..., 1] * a - V[..., 0] * b], axis=-1)
    n, rem = np.divmod(num, det)
    if rem.any():
        raise DomainError("vector is not in the row lattice of E")
    return n


def hnf_residues(E):
    """Row Hermite form of an integer 2x2 matrix and coset representatives.

    Returns (H, reps, reduce) where H = [[p, q], [0, r]] (0 <= q < r) spans
    the same row lattice as E and reps is the (|det E|, 2) int array of the
    residues (i, j), 0 <= i < p, 0 <= j < r, of Z^2 / Z^2 E in lexicographic
    order, so residue (i, j) has index i r + j.  reduce(V) maps an integer
    vector, or an (..., 2) int array of them, to (index, jump) with
    V = reps[index] + jump E; index has V's leading shape and jump is
    (..., 2), both exact integers.
    """
    E = np.asarray(E, dtype=int)
    det = int_det(E)
    if det == 0:
        raise DomainError("singular quotient matrix")
    r1, r2 = [int(E[0, 0]), int(E[0, 1])], [int(E[1, 0]), int(E[1, 1])]
    while r2[0] != 0:
        if r1[0] == 0 or abs(r2[0]) < abs(r1[0]):
            r1, r2 = r2, r1
        if r2[0] != 0:
            q = r2[0] // r1[0]
            r2 = [r2[0] - q * r1[0], r2[1] - q * r1[1]]
    if r1[0] < 0:
        r1 = [-r1[0], -r1[1]]
    p, r = r1[0], abs(r2[1])
    q = r1[1] % r
    assert p > 0 and r > 0 and p * r == abs(det)
    H = np.array([[p, q], [0, r]], dtype=int)
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
    """Check the three sign conditions; returns an OrientationReport."""
    bad = []

    faces_ok = True
    for f_idx, face in enumerate(dom.faces):
        prod = 1
        for (ei, d) in face:
            prod *= dom.edges[ei].sign * d
        if prod != -1:
            faces_ok = False
            bad.append(("face", f_idx))
    if not dom.faces:
        faces_ok = False
        bad.append(("face", "missing"))

    if dom.m0 and dom.k % 2 == 0:
        m0_ok = matching_pairing_sign(dom, dom.m0) == 1
        if not m0_ok:
            bad.append(("m0", tuple(dom.m0)))
    else:
        m0_ok = False
        bad.append(("m0", "missing"))

    cycles_ok = True
    if m0_ok:
        from . import kasteleyn  # deferred; kasteleyn imports this module

        for E in (np.eye(2, dtype=int), np.array([[2, 0], [0, 1]]), np.array([[1, 0], [0, 2]])):
            try:
                table = kasteleyn.matching_sign_classes(dom, E)
            except Exception as exc:  # no matchings, etc.
                cycles_ok = False
                bad.append(("classes", repr(exc)))
                break
            for cls, signs in table.items():
                want = 1 if cls == (0, 0) else -1
                if signs != {want}:
                    cycles_ok = False
                    bad.append(("class", (tuple(int(x) for x in E.ravel()), cls, tuple(signs))))
    else:
        cycles_ok = False

    return OrientationReport(faces_ok, m0_ok, cycles_ok, bad)


def _solve_face_system(dom):
    """One F2 solution of the face sign conditions, as a 0/1 vector per edge."""
    ne = len(dom.edges)
    rows = []
    for face in dom.faces:
        vec = [0] * (ne + 1)
        for (ei, d) in face:
            vec[ei] ^= 1
            if d == -1:
                vec[ne] ^= 1
        vec[ne] ^= 1  # require product -1
        rows.append(vec)
    # Gaussian elimination over F2
    pivots = []
    r = 0
    for col in range(ne):
        sel = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
    for i in range(r, len(rows)):
        if rows[i][ne]:
            raise OrientationError("face sign conditions are inconsistent")
    x = [0] * ne
    for i, col in enumerate(pivots):
        x[col] = rows[i][ne]
    return x


def _gauge_vertex(signs, dom, v):
    out = list(signs)
    for i, e in enumerate(dom.edges):
        flips = (e.tail == v) + (e.head == v)
        if flips % 2:
            out[i] = -out[i]
    return out


def find_reference_matching(dom, offsets_zero=True):
    """A perfect matching of the cell, preferring cell-internal edges."""
    pool = [i for i, e in enumerate(dom.edges)
            if e.tail != e.head and (not offsets_zero or (e.dx == 0 and e.dy == 0))]
    chosen = []
    used = [False] * dom.k

    def go(v):
        while v < dom.k and used[v]:
            v += 1
        if v == dom.k:
            return True
        for ei in pool:
            e = dom.edges[ei]
            if e.tail == v and not used[e.head] or e.head == v and not used[e.tail]:
                other = e.head if e.tail == v else e.tail
                used[v] = used[other] = True
                chosen.append(ei)
                if go(v + 1):
                    return True
                chosen.pop()
                used[v] = used[other] = False
        return False

    if not go(0):
        if offsets_zero:
            return find_reference_matching(dom, offsets_zero=False)
        raise OrientationError("cell admits no reference perfect matching")
    return chosen


def orient(dom, m0=None):
    """Assign edge signs making the domain pass verify_orientation.

    Solves the face conditions over F2, normalizes the reference-matching
    sign by a vertex gauge, then searches the four boundary sign twists
    for the one with correctly signed homology classes.  Raises
    OrientationError when no assignment passes the checks (e.g. the face
    data does not describe a planar torus embedding).
    """
    if dom.k % 2:
        raise OrientationError("odd cell: no perfect matchings, cannot orient")
    if m0 is None:
        m0 = dom.m0 if dom.m0 else find_reference_matching(dom)
    base = _solve_face_system(dom)
    base_signs = [1 - 2 * x for x in base]
    for fx in (0, 1):
        for fy in (0, 1):
            signs = [s * (-1) ** (fx * e.dx + fy * e.dy)
                     for s, e in zip(base_signs, dom.edges)]
            cand = FundamentalDomain(dom.k, [dom.edges[i]._replace(sign=signs[i])
                                             for i in range(len(signs))],
                                     dom.faces, m0, dom.colors, dom.name, dom.weights)
            if matching_pairing_sign(cand, m0) != 1:
                cand = cand.with_signs(_gauge_vertex([e.sign for e in cand.edges], cand, 0))
            rep = verify_orientation(cand)
            if rep.faces_clockwise_odd and rep.m0_sign_positive and rep.alternating_cycles_positive:
                return cand
    raise OrientationError("no admissible sign assignment found")


# -- cell doubling ------------------------------------------------------------

DOUBLE_MODES = {
    "horizontal": np.array([[2, 0], [0, 1]]),
    "vertical": np.array([[1, 0], [0, 2]]),
    "diagonal": np.array([[2, 0], [1, 1]]),
}


def sublattice_domain(dom, F, reorient=True):
    """Quotient-compatible enlargement of the cell by the sublattice Z^2 F.

    Vertex instances are ordered (residue index, vertex index); cell
    displacement n of the new domain corresponds to displacement n F of
    the original one.  Signs are reassigned from scratch via orient().
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

    colors = None
    if dom.colors is not None:
        colors = [dom.colors[v % dom.k] for v in range(k2)]
    else:
        # try to 2-color the enlarged quotient graph
        colors = [-1] * k2
        ok = True
        for start in range(k2):
            if colors[start] != -1:
                continue
            colors[start] = 0
            queue = [start]
            while queue and ok:
                u = queue.pop()
                for (t, h, *_rest) in new_edges:
                    if t == u or h == u:
                        v = h if t == u else t
                        if colors[v] == -1:
                            colors[v] = 1 - colors[u]
                            queue.append(v)
                        elif colors[v] == colors[u]:
                            ok = False
                            break
        if not ok:
            colors = None

    out = FundamentalDomain(k2, new_edges, new_faces,
                            new_m0 if new_m0 else [], colors=colors,
                            name=(dom.name or "domain") + "-x%d" % d,
                            weights=dom.weights)
    if reorient:
        out = orient(out, m0=out.m0 if out.m0 else None)
    return out


def double_domain(dom, mode):
    if mode not in DOUBLE_MODES:
        raise DomainError("mode must be one of %s" % (sorted(DOUBLE_MODES),))
    return sublattice_domain(dom, DOUBLE_MODES[mode])
