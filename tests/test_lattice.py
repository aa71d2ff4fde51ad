import json

import numpy as np
import pytest

from torusdimer import lattice
from torusdimer.lattice import (
    BUILTIN_NAMES,
    DomainError,
    FundamentalDomain,
    builtin,
    hnf_residues,
    orient,
    permutation_sign,
    sublattice_domain,
    verify_orientation,
)


def test_builtin_names_cover_the_catalogue():
    assert set(BUILTIN_NAMES) == {
        "square-2x1",
        "square-1x2",
        "square-bip",
        "hexagonal",
        "fisher",
        "rhombi-3464",
    }
    with pytest.raises(DomainError):
        builtin("kagome")


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_orientations_verify(name):
    dom = builtin(name)
    rep = verify_orientation(dom)
    assert rep.faces_clockwise_odd, rep.offending_items
    assert rep.m0_sign_positive, rep.offending_items
    assert rep.alternating_cycles_positive, rep.offending_items


def test_one_vertex_square_is_outside_the_face_rule():
    # the 1-vertex square cell traverses each edge forwards and backwards
    # around its face, so no sign choice makes the face product -1; its
    # quotients are handled through the parity table instead
    dom = builtin("square-1x1")
    rep = verify_orientation(dom)
    assert not rep.faces_clockwise_odd


def test_weights_must_be_positive():
    with pytest.raises(DomainError):
        builtin("fisher", a=-1.0)


def test_hnf_residues():
    rng = np.random.default_rng(5)
    for _ in range(25):
        E = rng.integers(-4, 5, size=(2, 2))
        d = int(round(np.linalg.det(E)))
        if d <= 0:
            continue
        _H, res, _reduce = hnf_residues(E)
        assert len(res) == d
        # residues are pairwise distinct modulo the row lattice of E
        Einv = np.linalg.inv(E)
        seen = set()
        for v in res:
            key = tuple(np.round(np.array(v, dtype=float) @ Einv % 1.0, 9) % 1.0)
            assert key not in seen
            seen.add(key)


def test_json_roundtrip(tmp_path):
    dom = builtin("fisher", a=2.0, b=3.0, c=5.0)
    path = tmp_path / "fisher.json"
    dom.save(path)
    back = FundamentalDomain.load(path)
    assert back.k == dom.k
    assert back.edges == dom.edges
    assert back.faces == dom.faces
    assert back.m0 == dom.m0
    assert back.colors == dom.colors


def test_malformed_documents():
    with pytest.raises(DomainError):
        FundamentalDomain(0, [], [], [])
    with pytest.raises(DomainError):
        # endpoint out of range
        FundamentalDomain(2, [(0, 5, 0, 0, 1.0, 1)], [], [])
    with pytest.raises(DomainError):
        # non-positive weight
        FundamentalDomain(2, [(0, 1, 0, 0, 0.0, 1)], [], [])
    with pytest.raises(DomainError):
        # sign must be +-1
        FundamentalDomain(2, [(0, 1, 0, 0, 1.0, 2)], [], [])
    edges = [(e.tail, e.head, e.dx, e.dy, e.weight, e.sign) for e in builtin("hexagonal").edges]
    for bad in (2.9, "2", float("inf")):
        with pytest.raises(DomainError, match="is not an integer"):
            FundamentalDomain(bad, edges, [], [0])
    with pytest.raises(DomainError, match="1.5 is not an integer"):
        FundamentalDomain(2, [edges[0], edges[1][:2] + (1.5,) + edges[1][3:]], [], [0])
    # an integer value of another type is that integer
    assert type(FundamentalDomain(2.0, edges, [], [np.int64(0)]).k) is int


@pytest.mark.parametrize("face", [[(0, 1), (1, -1)], [(0, 1), (2, -1)], [(1, 1), (2, -1)]])
def test_faces_must_close_up(face):
    # the hexagonal edges have offsets (0, 0), (1, 0) and (0, 1): each face
    # here misses by one cell in x, in y, or in both
    edges = [(e.tail, e.head, e.dx, e.dy, e.weight, e.sign) for e in builtin("hexagonal").edges]
    with pytest.raises(DomainError, match="face 0 does not close up"):
        FundamentalDomain(2, edges, [face], [0], colors=[0, 1])


def test_with_signs_and_broken_orientation():
    dom = builtin("fisher")
    signs = [e.sign for e in dom.edges]
    signs[0] = -signs[0]
    broken = dom.with_signs(signs)
    rep = verify_orientation(broken)
    assert not (rep.faces_clockwise_odd and rep.m0_sign_positive and rep.alternating_cycles_positive)
    assert not rep.ok
    repaired = orient(broken)
    rep2 = verify_orientation(repaired)
    assert rep2.faces_clockwise_odd and rep2.m0_sign_positive and rep2.alternating_cycles_positive
    assert rep2.ok


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_orient_from_scratch(name):
    dom = builtin(name)
    stripped = dom.with_signs([1] * len(dom.edges))
    redone = orient(stripped)
    rep = verify_orientation(redone)
    assert rep.faces_clockwise_odd and rep.m0_sign_positive and rep.alternating_cycles_positive


def test_permutation_sign():
    assert permutation_sign([0, 1, 2, 3]) == 1
    assert permutation_sign([1, 0, 2, 3]) == -1
    assert permutation_sign([1, 2, 3, 0]) == -1
    assert permutation_sign([1, 0, 3, 2]) == 1


def test_sublattice_domain_partition_functions_match():
    # grouping cells by F and quotienting by E equals quotienting by F @ E
    from torusdimer import kasteleyn

    dom = builtin("hexagonal", a=1.0, b=2.0, c=1.0)
    F = np.array([[2, 0], [1, 1]])
    big = sublattice_domain(dom, F)
    assert big.k == dom.k * 2
    # displacement rows e of the new domain are rows e @ F of the original
    for E in (np.eye(2, dtype=int), np.array([[2, 1], [0, 1]]), np.array([[1, 2], [-1, 1]])):
        zs = kasteleyn.sector_table(big, E).log_Z
        zd = kasteleyn.sector_table(dom, E @ F).log_Z
        assert abs(zs - zd) <= 1e-9


@pytest.mark.parametrize("mode", sorted(lattice.DOUBLE_MODES))
def test_double_domain_partition_functions_match(mode):
    from torusdimer import kasteleyn

    dom = builtin("square-bip", a=1.0, b=1.0)
    F = np.array(lattice.DOUBLE_MODES[mode])
    big = sublattice_domain(dom, F)
    E = np.array([[2, 0], [1, 2]])
    zs = kasteleyn.sector_table(big, E).log_Z
    zd = kasteleyn.sector_table(dom, E @ F).log_Z
    assert abs(zs - zd) <= 1e-9


_ENLARGEMENTS = ([[1, 0], [0, 1]], [[2, 0], [0, 1]], [[1, 0], [0, 2]], [[2, 0], [1, 1]],
                 [[1, 1], [0, 2]], [[2, 0], [0, 2]], [[3, 0], [0, 1]], [[1, 0], [0, 3]],
                 [[2, 1], [0, 2]], [[1, 0], [1, 2]])
# the square cells are 2-colourable when every row of F keeps the parity of
# x + y (square-2x1: an even y step; square-1x2: an even x step); fisher and
# rhombi-3464 have triangular faces
_COLOURED = {("square-2x1", 2), ("square-2x1", 5), ("square-2x1", 9),
             ("square-1x2", 1), ("square-1x2", 5), ("square-1x2", 8)}


def _has_odd_cycle(dom):
    """True when a closed walk of odd length exists: in the bipartite double
    cover, vertex v with even parity then reaches v with odd parity."""
    n = dom.k
    reach = np.eye(2 * n, dtype=np.int64)
    for e in dom.edges:
        for p in (0, 1):
            a, b = e.tail + p * n, e.head + (1 - p) * n
            reach[a, b] = reach[b, a] = 1
    for _ in range((2 * n).bit_length()):  # walks of every length up to 2n
        reach = np.minimum(reach @ reach, 1)
    return any(reach[v, v + n] for v in range(n))


@pytest.mark.parametrize("name", ["square-2x1", "square-1x2", "fisher", "rhombi-3464"])
def test_enlargements_of_uncoloured_cells_are_coloured_when_bipartite(name):
    coloured = []
    for i, F in enumerate(_ENLARGEMENTS):
        big = sublattice_domain(builtin(name), F)
        if big.colors is None:
            assert _has_odd_cycle(big), F
            continue
        coloured.append((name, i))
        assert not _has_odd_cycle(big) and big.colors[0] == 0
        assert all(big.colors[e.tail] != big.colors[e.head] for e in big.edges), F
    assert set(coloured) == {c for c in _COLOURED if c[0] == name}


def test_bipartite_flags():
    assert builtin("hexagonal").bipartite
    assert builtin("square-bip").bipartite
    assert not builtin("fisher").bipartite
    assert not builtin("square-1x1").bipartite


def test_json_rejects_truncated_edge_rows(tmp_path):
    doc = builtin("hexagonal").to_json()
    doc["edges"][1] = doc["edges"][1][:4]  # drop weight and sign
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises((DomainError, ValueError, TypeError)):
        FundamentalDomain.load(path)


def test_reduce_rows_is_an_exact_unimodular_factorisation():
    # the first needs an odd number of swaps, so R keeps E's orientation by a sign
    for E in ([[10**8, 10**8 + 1], [10**8 - 1, 10**8]], [[10**8, 10**8 - 1], [10**8 + 1, 10**8]],
              [[2**27 + 1, 0], [2**27 - 1, 2]], [[8, 0], [5, 8]], [[8, 0], [0, 6]],
              [[3, 1], [0, 2]], [[-4, 7], [5, 1]]):
        E = np.array(E, dtype=np.int64)
        T, R = lattice.reduce_rows(E)
        assert np.array_equal(T @ R, E)
        assert lattice.int_det(T) == 1
        r1, r2 = R.tolist()
        n1, n2, dot = r1[0] ** 2 + r1[1] ** 2, r2[0] ** 2 + r2[1] ** 2, r1[0] * r2[0] + r1[1] * r2[1]
        assert n1 <= n2 and 2 * abs(dot) <= n1
    assert np.array_equal(lattice.adjugate([[3, 1], [-2, 5]]), [[5, -1], [2, 3]])


@pytest.mark.parametrize("name", ["fisher", "rhombi-3464"])
@pytest.mark.parametrize("F", [[[3, 0], [0, 1]], [[1, 0], [1, 3]], [[2, 0], [0, 2]]])
def test_large_enlargements_orient_and_keep_the_partition_function(name, F):
    # these cells have 18 or 24 vertices, past what enumeration could check
    from torusdimer import kasteleyn

    dom = builtin(name, a=1.3, b=0.8, c=1.1)
    big = sublattice_domain(dom, F)
    for E in ([[1, 0], [0, 1]], [[2, 1], [0, 2]]):
        tab = kasteleyn.sector_table(big, E)
        dense = [kasteleyn.pfaffian_log(kasteleyn.build_KE(big, E, z, w)) for z, w in kasteleyn.SLOTS]
        assert [int(np.sign(x)) for x in tab.pf_scaled] == [int(np.sign(ph.real)) for ph, _ in dense]
        want = kasteleyn.sector_table(dom, np.array(E) @ F).log_Z
        assert abs(tab.log_Z - want) <= 1e-12 * abs(want)


def test_orientation_never_enumerates(monkeypatch, tmp_path):
    # nor builds a quotient matrix: no build_KE, and no Pfaffian larger than the cell
    from torusdimer import charpoly, cli, kasteleyn

    def refuse(*args, **kwargs):
        raise AssertionError("a test oracle called outside the tests")

    monkeypatch.setattr(kasteleyn, "enumerate_matchings", refuse)
    monkeypatch.setattr(kasteleyn, "build_KE", refuse)
    path = tmp_path / "cell.json"
    sublattice_domain(builtin("rhombi-3464"), [[2, 0], [0, 2]]).save(path)
    pfaffian_log = kasteleyn.pfaffian_log

    def cell_sized(A):
        assert len(A) <= dom.k, "pfaffian_log of a %d-vertex quotient matrix" % len(A)
        return pfaffian_log(A)

    monkeypatch.setattr(kasteleyn, "pfaffian_log", cell_sized)
    lattice._signed_graph_report.cache_clear()
    for name in BUILTIN_NAMES + (str(path),):
        dom = builtin(name) if name in BUILTIN_NAMES else FundamentalDomain.load(name)
        orient(dom.with_signs([1] * len(dom.edges)))
        charpoly.build_charpoly(dom)
        assert cli.run(["verify", "--lattice", name]) == 0
        assert cli.run(["criticality", "--lattice", name]) == 0


def test_mutating_a_report_leaves_the_memo_intact():
    dom = builtin("fisher")
    broken = dom.with_signs([-dom.edges[0].sign] + [e.sign for e in dom.edges[1:]])
    rep = verify_orientation(broken)
    want = list(rep.offending_items)
    assert want
    rep.offending_items.clear()
    rep.offending_items.append(("face", "junk"))
    again = verify_orientation(broken)
    assert again.offending_items == want
    assert again.offending_items is not rep.offending_items


def test_one_orientation_check_per_signed_lattice(monkeypatch):
    # the weights never enter the check: 25 spectral curves of one lattice at
    # four weight sets verify its signs once, one class table of three quotients
    from torusdimer import charpoly, kasteleyn

    calls = []
    real = kasteleyn.matching_sign_classes

    def counted(dom):
        calls.append(dom.k)
        return real(dom)

    monkeypatch.setattr(kasteleyn, "matching_sign_classes", counted)
    lattice._signed_graph_report.cache_clear()
    pool = [{"a": 1.0, "b": 1.0, "c": 1.0}, {"a": 1.3, "b": 0.8, "c": 1.1},
            {"a": 0.9, "b": 1.2, "c": 1.0}, {"a": 1.1, "b": 1.1, "c": 0.7}]
    for i in range(25):
        charpoly.build_charpoly(builtin("rhombi-3464", **pool[i % 4]))
    assert len(calls) <= 1


def test_leibniz_bound_is_tight_on_the_builtins():
    # det Qblock on the 2-colored square-bip and hexagonal, det K on the rest
    want = {"square-2x1": (1, 2), "square-1x2": (2, 1), "square-bip": (1, 1),
            "hexagonal": (1, 1), "fisher": (1, 1), "rhombi-3464": (3, 3)}
    for name in BUILTIN_NAMES:
        assert lattice.leibniz_bound(builtin(name)) == want[name]
    big = sublattice_domain(builtin("rhombi-3464"), np.diag([4, 4]))
    assert lattice.leibniz_bound(big) == (12, 12)
