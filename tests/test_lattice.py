import json

import numpy as np
import pytest

from torusdimer import lattice
from torusdimer.lattice import (
    BUILTIN_NAMES,
    DomainError,
    FundamentalDomain,
    builtin,
    double_domain,
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


def test_with_signs_and_broken_orientation():
    dom = builtin("fisher")
    signs = [e.sign for e in dom.edges]
    signs[0] = -signs[0]
    broken = dom.with_signs(signs)
    rep = verify_orientation(broken)
    assert not (rep.faces_clockwise_odd and rep.m0_sign_positive and rep.alternating_cycles_positive)
    repaired = orient(broken)
    rep2 = verify_orientation(repaired)
    assert rep2.faces_clockwise_odd and rep2.m0_sign_positive and rep2.alternating_cycles_positive


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
    big = double_domain(dom, mode)
    E = np.array([[2, 0], [1, 2]])
    zs = kasteleyn.sector_table(big, E).log_Z
    zd = kasteleyn.sector_table(dom, E @ F).log_Z
    assert abs(zs - zd) <= 1e-9


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
