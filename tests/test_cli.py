import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from torusdimer import charpoly, cli, fsc, kasteleyn, lattice


def run_json(capsys, argv):
    code = cli.run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out), out


def test_sectors_unit_fisher_all_ones(capsys):
    code, out, _raw = run_json(
        capsys,
        ["sectors", "--lattice", "fisher", "--weights", "a=1,b=1,c=1",
         "--E", "1,0,0,1"],
    )
    assert code == 0
    assert out["Z00"] == out["Z10"] == out["Z01"] == out["Z11"] == 1.0
    assert out["Z"] == 4.0


def test_sectors_weighted_fisher_values(capsys):
    code, out, raw = run_json(
        capsys,
        ["sectors", "--lattice", "fisher", "--weights", "a=2,b=3,c=5",
         "--E", "1,0,0,1"],
    )
    assert code == 0
    got = (out["Z00"], out["Z10"], out["Z01"], out["Z11"])
    assert got == pytest.approx((30, 2, 3, 5), abs=1e-9)
    pf = [p[0] for p in out["pf"]]
    assert pf == pytest.approx([20, 36, 34, 30], abs=1e-9)
    # keys are emitted sorted at every level
    assert list(out.keys()) == sorted(out.keys())


def test_partition_exact_for_huge_unimodular_E(capsys):
    # det 1 with entries near 1e8: the same one-cell torus as E = 1
    for name in ("hexagonal", "fisher", "square-2x1"):
        argv = ["partition", "--lattice", name, "--weights", "a=1.3,b=0.7"]
        assert cli.run(argv + ["--E", "1,0,0,1"]) == 0
        want = capsys.readouterr().out
        assert cli.run(argv + ["--E", "100000000,100000001,99999999,100000000"]) == 0
        assert capsys.readouterr().out == want


def test_json_reruns_are_byte_identical(capsys):
    argv = ["criticality", "--lattice", "hexagonal"]
    code1 = cli.run(argv)
    raw1 = capsys.readouterr().out
    code2 = cli.run(argv)
    raw2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert raw1 == raw2


def test_criticality_hexagonal(capsys):
    code, out, raw = run_json(capsys, ["criticality", "--lattice", "hexagonal"])
    assert code == 0
    assert out["class"] == "distinct-conjugate-nodes"
    assert not out["outside_conjectured_class"]
    assert len(out["nodes"]) == 2
    r0, s0 = out["normalized_node"]
    assert abs(r0 - 1 / 3) < 1e-9 and abs(s0 + 1 / 3) < 1e-9
    # floats are rendered at 15 significant digits
    assert "%.15g" % out["free_energy"] in raw


def test_criticality_gaseous_is_in_class(capsys):
    code, out, _ = run_json(
        capsys, ["criticality", "--lattice", "hexagonal", "--weights", "a=3"])
    assert code == 0
    assert out["class"] == "non-vanishing"
    assert out["nodes"] == []
    assert abs(out["free_energy"] - math.log(3.0)) < 1e-9


def test_criticality_refuses_nonreal_spectral_curve(capsys):
    code = cli.run(["criticality", "--lattice", "square-1x1"])
    err = capsys.readouterr().err
    assert code == 3
    assert "classification error" in err


def test_partition_coverless_quotient(tmp_path, capsys):
    star = lattice.FundamentalDomain(
        4,
        [(0, 1, 0, 0, 1.0, 1), (0, 2, 0, 0, 1.0, 1), (0, 3, 0, 0, 1.0, -1)],
        [],
        [],
    )
    path = tmp_path / "star.json"
    star.save(path)
    # a cell with no faces and no m0 cannot pass the orientation check, so
    # its Z (0.0 from unchecked signs) is refused rather than printed
    code = cli.run(["partition", "--lattice", str(path), "--E", "1,0,0,1"])
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert captured.err.startswith("classification error: domain signs fail verification: ")


def test_partition_dump_matrix_is_skew(capsys):
    code, out, _ = run_json(
        capsys,
        ["partition", "--lattice", "fisher", "--E", "1,0,0,1",
         "--dump-matrix"],
    )
    assert code == 0
    entries = {(i, j): complex(re, im) for i, j, re, im in out["matrix"]["entries"]}
    assert entries
    for (i, j), v in entries.items():
        assert entries[(j, i)] == -v


def test_dump_matrix_triplets_match_the_entry_loop(monkeypatch):
    # a loop over all n^2 entries of build_KE is the oracle, byte for byte;
    # the dump itself reads the edge table and never builds K_E.  On the 1x1
    # hexagonal quotient the three edges share one entry: a = b + c cancels
    # it, and 0.3 - 0.1 - 0.2 leaves a rounding residue that depends on the order
    cases = [(lattice.builtin("fisher", a=1.3, b=0.8, c=1.1), [[2, 1], [0, 2]]),
             (lattice.builtin("hexagonal", a=2.0, b=1.0, c=1.0), [[1, 0], [0, 1]]),
             (lattice.builtin("hexagonal", a=2.0, b=1.0, c=1.0), [[2, 0], [0, 1]]),
             (lattice.builtin("hexagonal", a=0.3, b=0.1, c=0.2), [[1, 0], [0, 1]]),
             (lattice.builtin("square-bip", a=1.2, b=0.7), [[1, 2], [0, 3]]),
             (lattice.builtin("rhombi-3464"), [[1, 0], [0, 1]])]
    want = []
    for dom, E in cases:
        K = kasteleyn.build_KE(dom, E, 1, 1)
        want.append([[i, j, float(K[i, j].real), float(K[i, j].imag)]
                     for i in range(K.shape[0]) for j in range(K.shape[0]) if K[i, j] != 0])
    assert want[1] == [] and len(want[3]) == 2

    def refuse(*args, **kwargs):
        raise AssertionError("the dump built K_E")

    monkeypatch.setattr(kasteleyn, "build_KE", refuse)
    for (dom, E), loop in zip(cases, want):
        assert cli._to_json(cli._matrix_dump(dom, E)["entries"]) == cli._to_json(loop)


def test_partition_large_quotient_magnitude_path(capsys):
    code, out, _ = run_json(
        capsys,
        ["partition", "--lattice", "hexagonal", "--E", "48,0,0,48"],
    )
    assert code == 0
    assert out["method"].startswith("magnitude+")
    assert abs(out["log_Z"] / 48 ** 2 - 0.3230659472269729) < 1e-2


def test_sectors_double_dimer_identity(capsys):
    code, out, _ = run_json(
        capsys,
        ["sectors", "--lattice", "fisher", "--weights", "a=1,b=1,c=1",
         "--E", "2,0,0,2", "--double-dimer"],
    )
    assert code == 0
    z = [out["Z00"], out["Z10"], out["Z01"], out["Z11"]]
    assert abs(out["ZZ"]["00"] - sum(v * v for v in z)) < 1e-9
    assert abs(out["ZZ"]["10"] - 2 * (z[0] * z[1] + z[2] * z[3])) < 1e-9


def test_winding_hexagonal_3I(capsys):
    code, out, _ = run_json(
        capsys, ["winding", "--lattice", "hexagonal", "--E", "3,0,0,3"])
    assert code == 0
    assert out["color_swapped"] is True
    assert abs(out["mu"][0] - 1.0) < 1e-9 and abs(out["mu"][1] - 1.0) < 1e-9
    assert out["ell"] == [0, 0]
    assert abs(out["exact"]["1,1"] - 0.5) < 1e-12
    assert out["tv_distance"] < 0.2
    assert abs(sum(out["model"].values()) - 1.0) < 1e-9


def test_winding_needs_conjugate_class(capsys):
    code = cli.run(["winding", "--lattice", "fisher", "--E", "2,0,0,2"])
    err = capsys.readouterr().err
    assert code == 3
    assert "classification error" in err


def test_fsc_curve_square_values_at_zero(capsys):
    code, rows, _ = run_json(
        capsys,
        ["fsc-curve", "--lattice", "square-1x1", "--range", "0:0:1",
         "--format", "json"],
    )
    assert code == 0
    assert len(rows) == 7
    byname = {r["class"]: r["fsc"] for r in rows}
    assert abs(byname["fsc2(1,1)"] - 0.881373587019543) < 1e-8
    assert abs(byname["fsc2(i,1)"] - 0.873903781359738) < 1e-8
    assert abs(byname["fsc2(1,i)"] - 0.873903781359738) < 1e-8
    assert abs(byname["fsc2(i,i)"] - 0.866433975699932) < 1e-8
    assert abs(byname["fsc3(1,-1)"] - 0.519860385419960) < 1e-8
    assert abs(byname["fsc3(-1,1)"] - 0.519860385419960) < 1e-8
    assert abs(byname["fsc3(-1,-1)"] - 0.346573590279973) < 1e-8


def test_fsc_curve_csv_shape(capsys):
    code = cli.run(["fsc-curve", "--lattice", "square-1x1",
                    "--range=-0.5:0.5:3"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "log_rho,class,fsc"
    assert len(lines) == 1 + 3 * 7
    assert "\r" not in out


def test_fsc_curve_hexagonal_family(capsys):
    code, rows, _ = run_json(
        capsys,
        ["fsc-curve", "--lattice", "hexagonal", "--range", "0:0:1",
         "--format", "json"],
    )
    assert code == 0
    assert len(rows) == 4
    assert all(math.isfinite(r["fsc"]) for r in rows)


def test_fsc_curve_family_option_is_gone(capsys):
    # --lattice picks the curve family; there is no second way to say it
    with pytest.raises(SystemExit) as exc:
        cli.run(["fsc-curve", "--lattice", "square-1x1", "--family", "square"])
    assert exc.value.code == 2
    assert "--family" in capsys.readouterr().err


def test_verify_builtin_ok(capsys):
    code, out, _ = run_json(capsys, ["verify", "--lattice", "rhombi-3464"])
    assert code == 0
    assert out["ok"] is True
    assert out["offending_items"] == []


def test_verify_broken_orientation(tmp_path, capsys):
    dom = lattice.builtin("fisher")
    signs = [e.sign for e in dom.edges]
    signs[0] = -signs[0]
    path = tmp_path / "broken.json"
    dom.with_signs(signs).save(path)
    code, out, _ = run_json(capsys, ["verify", "--lattice", str(path)])
    assert code == 3
    assert out["ok"] is False
    assert out["offending_items"]
    # every command that reads the signs refuses the file with the line that
    # criticality prints, where partition and sectors once printed a wrong Z
    assert cli.run(["criticality", "--lattice", str(path)]) == 3
    refused = capsys.readouterr()
    assert refused.err.startswith("classification error: domain signs fail verification: ")
    for argv in (["partition"], ["sectors"], ["sectors", "--double-dimer"], ["winding"]):
        assert cli.run(argv + ["--lattice", str(path), "--E", "2,0,0,2"]) == 3
        assert capsys.readouterr() == ("", refused.err)


def test_ising_onsager(capsys):
    beta = 0.5 * math.log(1 + math.sqrt(2))
    code, out, _ = run_json(
        capsys,
        ["ising", "--beta-a", repr(beta), "--beta-b", repr(beta)],
    )
    assert code == 0
    assert out["vanishing"] == ["kappa_0"]
    assert abs(out["kappa"]["kappa_0"]) < 1e-12
    assert out["node_location"] == [1, 1]
    checks = out["pattern_checks"]
    assert {c["size"] for c in checks} == {2, 4}
    assert all(c["ok"] for c in checks)


# -- failure modes ----------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["sectors", "--lattice", "nosuch", "--E", "1,0,0,1"],
        ["sectors", "--lattice", "fisher", "--weights", "a=x", "--E", "1,0,0,1"],
        ["sectors", "--lattice", "fisher", "--weights", "abc", "--E", "1,0,0,1"],
        ["sectors", "--lattice", "fisher", "--E", "1,0,0"],
        ["sectors", "--lattice", "fisher", "--E", "1,0,0,q"],
        ["sectors", "--lattice", "fisher", "--E", "0,0,0,0"],
        ["sectors", "--lattice", "fisher", "--E", "1,0,0,-1"],
        ["fsc-curve", "--lattice", "square-1x1", "--range", "0:1"],
        ["fsc-curve", "--lattice", "fisher"],
        ["fsc-curve", "--lattice", "square"],
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code = cli.run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("text", ["709:709:1", "710:710:1", "-709:-709:1", "-800:-800:1",
                                  "inf:inf:1", "-inf:0:2", "0:nan:2", "-1e308:1e308:3",
                                  "700:710:3"])
@pytest.mark.parametrize("family", ["square-1x1", "hexagonal"])
def test_fsc_curve_out_of_range_exits_2(capsys, family, text):
    # tau = i exp(log rho) leaves double precision, or the bounds are not
    # finite: a named error, never nan rows or a traceback
    code = cli.run(["fsc-curve", "--lattice", family, "--range=" + text])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert "finite" in captured.err or "double precision" in captured.err


@pytest.mark.parametrize("lo, hi", [("-1e308", "1e308"), ("-1.7e308", "1.7e308"),
                                    ("1e308", "-1e308")])
def test_fsc_curve_range_wider_than_doubles_names_its_bounds(capsys, lo, hi):
    # finite bounds whose difference overflows: refused before any point is
    # made, naming the bounds as given rather than the nan point
    code = cli.run(["fsc-curve", "--lattice", "square-1x1", "--range=%s:%s:3" % (lo, hi)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "%s:%s" % (lo, hi) in captured.err and "nan" not in captured.err


def test_curve_values_raise_a_named_error_past_double_precision():
    assert math.isfinite(fsc.square_curve_values(700)[0][1])
    for logrho in (709, [0.0, 710.0], -709, -800, float("nan"), float("inf")):
        with pytest.raises(fsc.CurveRangeError):
            fsc.hexagonal_curve_values(logrho)


def test_curve_values_in_blocks_keep_their_bits(monkeypatch):
    # log_xi entries do not depend on each other, so blocks of 7 taus give the
    # bits of one call over all 50; an empty sweep is one empty block
    lrs = [-3 + 6 * k / 49 for k in range(50)]
    families = (fsc.square_curve_values, fsc.hexagonal_curve_values)
    whole = [curve_values(lrs) for curve_values in families]
    monkeypatch.setattr(fsc, "CURVE_BLOCK", 7)
    assert [curve_values(lrs) for curve_values in families] == whole
    assert all(values == [] for curve_values in families for _name, values in curve_values([]))


def test_curve_sweeps_past_the_point_limit_are_refused(monkeypatch, capsys):
    monkeypatch.setattr(fsc, "CURVE_POINT_LIMIT", 5)
    assert len(fsc.square_curve_values([0.0] * 5)[0][1]) == 5
    with pytest.raises(fsc.CurveRangeError, match="more than the 5"):
        fsc.hexagonal_curve_values([0.0] * 6)
    assert cli.run(["fsc-curve", "--lattice", "hexagonal", "--range=0:1:5"]) == 0
    capsys.readouterr()
    for family in ("square-1x1", "hexagonal"):
        code, err = _one_line_error(capsys, ["fsc-curve", "--lattice", family, "--range=0:1:6"])
        assert code == 2 and "--range count 6 is more than the 5 points" in err


def test_the_curve_point_limit_is_checked_before_the_range_is_built():
    # 10^5 points still print (CI runs that sweep); one more is refused by
    # _parse_range from its count alone
    assert fsc.CURVE_POINT_LIMIT == 100000
    with pytest.raises(cli._Usage, match="100001"):
        cli._parse_range("-1:1:100001")
    assert len(cli._parse_range("-1:1:100000")) == 100000


@pytest.mark.parametrize("sizes", ["-2,2", "0", "2,x", "2.5", ""])
def test_ising_sizes_below_1_or_not_integers_exit_2(capsys, sizes):
    # -2,2 once printed log_Z_ising for a size of -2, and 0 failed on a matrix
    # the user never passed ("E must be nonsingular")
    code, err = _one_line_error(capsys, ["ising", "--beta-a", "0.3", "--beta-b", "0.3",
                                         "--sizes=" + sizes])
    assert code == 2 and "--sizes" in err


@pytest.mark.parametrize("sizes", [(-2, 2), (0,), (2, 1.5)])
def test_ising_check_refuses_sizes_below_1(sizes):
    with pytest.raises(ValueError, match="at least 1"):
        fsc.ising_critical_check(0.3, 0.3, 0.0, sizes=sizes)


@pytest.mark.parametrize("argv", [["winding", "--lattice", "hexagonal", "--E", "4,0,0,4"],
                                  ["criticality", "--lattice", "hexagonal"],
                                  ["verify", "--lattice", "hexagonal"]])
def test_format_is_refused_where_only_json_is_written(capsys, argv):
    # --format belongs to partition, sectors and fsc-curve, which can write CSV
    with pytest.raises(SystemExit) as stop:
        cli.run(argv + ["--format", "csv"])
    captured = capsys.readouterr()
    assert stop.value.code == 2 and captured.out == ""
    assert "--format" in captured.err


@pytest.mark.parametrize("window", ["0", "-3"])
def test_nonpositive_winding_window_exits_2(capsys, window):
    code = cli.run(["winding", "--lattice", "hexagonal", "--E", "4,0,0,4", "--window", window])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "window" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["--E", "4,0,0,4", "--window", "100000"],
     "window M = 100000 needs 10000000000 cells, more than the 2097152"),
    (["--E", "6,0,0,6", "--window", "1449"], "window M = 1449 needs 2099601 cells, more than the 2097152"),
    (["--weights", "a=1.1,b=0.9,c=1.2", "--E", "134217729,0,134217727,2"],
     "discrete Gaussian needs 10043847961 cells, more than the 8388608"),
    (["--E", "1,0,0,4900"], "discrete Gaussian needs 11202409 cells, more than the 8388608"),
])
def test_oversized_winding_tables_exit_2(capsys, argv, message):
    # more than 2^21 cells in the exact window or 2^23 in the Gaussian model's
    # box: refused before any array of that size is built
    code, err = _one_line_error(capsys, ["winding", "--lattice", "hexagonal"] + argv)
    assert code == 2 and message in err


@pytest.mark.parametrize("argv", [
    ["--E", "1,0,0,3000"],  # a thin quotient: a 3059001-cell Gaussian box, 35 KB printed
    ["--weights", "a=1.1,b=0.9,c=1.2", "--E", "45,44,46,45"],  # det 1, reduced basis
])
def test_winding_tables_within_their_limits_print(capsys, argv):
    code, out, _raw = run_json(capsys, ["winding", "--lattice", "hexagonal"] + argv)
    assert code == 0
    assert abs(sum(out["model"].values()) - 1) < 1e-9 and abs(sum(out["exact"].values()) - 1) < 1e-9


@pytest.mark.parametrize("name, weights", [("hexagonal", "d=2"), ("hexagonal", "a=1.2,d=2"),
                                           ("square-bip", "c=2"), ("square-1x1", "A=2")])
def test_unknown_weight_names_exit_2(capsys, name, weights):
    code = cli.run(["partition", "--lattice", name, "--weights", weights, "--E", "4,0,0,4"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "has no weight" in captured.err


def _one_line_error(capsys, argv):
    """(exit code, stderr) of cli.run with numpy's RuntimeWarnings made errors;
    the command must print nothing on stdout and one line on stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.run(argv)
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error:")
    return code, captured.err


@pytest.mark.parametrize("argv", [
    ["partition", "--lattice", "hexagonal", "--weights", "a=inf", "--E", "4,0,0,4"],
    ["partition", "--lattice", "hexagonal", "--weights", "a=nan", "--E", "4,0,0,4"],
    ["winding", "--lattice", "hexagonal", "--weights", "a=inf", "--E", "4,0,0,4"],
    ["sectors", "--lattice", "fisher", "--weights", "b=-inf", "--E", "2,0,0,2"],
])
def test_non_finite_builtin_weights_exit_2(capsys, argv):
    code, err = _one_line_error(capsys, argv)
    assert code == 2 and "weights must be finite and positive" in err


def test_non_finite_weight_in_a_lattice_file_exits_2(tmp_path, capsys):
    doc = lattice.builtin("hexagonal").to_json()
    doc["edges"][1][4] = math.inf
    path = tmp_path / "hex-inf.json"
    path.write_text(json.dumps(doc))  # json writes the weight as Infinity
    assert "Infinity" in path.read_text()
    code, err = _one_line_error(capsys, ["partition", "--lattice", str(path), "--E", "4,0,0,4"])
    assert code == 2 and "edge weights must be finite and positive" in err


@pytest.mark.parametrize("argv, message", [
    (["ising", "--beta-a", "400", "--beta-b", "0.3", "--sizes", "2"], "coupling beta_a"),
    (["criticality", "--lattice", "hexagonal", "--weights", "a=1e200"],
     "overflows double precision"),
    (["criticality", "--lattice", "fisher", "--weights", "a=1e200"],
     "overflows double precision"),
    (["partition", "--lattice", "hexagonal", "--weights", "a=1e200", "--E", "100,0,0,100"],
     "overflows double precision"),
    # sector tables whose cell determinants overflow: no table of zeros, and no
    # Ising report that puts the couplings on all four critical lines
    (["partition", "--lattice", "fisher", "--weights", "a=1e200", "--E", "4,0,0,4"],
     "overflows double precision"),
    (["ising", "--beta-a", "120", "--beta-b", "120", "--beta-c", "120", "--sizes", "2"],
     "overflows double precision"),
])
def test_overflowing_inputs_exit_2(capsys, argv, message):
    code, err = _one_line_error(capsys, argv)
    assert code == 2 and message in err


def _hexagonal_doc(**changes):
    doc = lattice.builtin("hexagonal").to_json()
    doc.update(changes)
    return json.dumps(doc)


_MALFORMED = {
    "no-vertices-field": '{"k": 2, "edges": [[0, 1, 0]]}',
    "not-an-object": "[1, 2]",
    "edges-number": _hexagonal_doc(edges=5),
    "m0-edge-out-of-range": _hexagonal_doc(m0=[7]),
    "faces-number": _hexagonal_doc(faces=5),
    "colors-number": _hexagonal_doc(colors=5),
    "weights-list": _hexagonal_doc(weights=[1, 2]),
    "vertices-null": _hexagonal_doc(vertices=None),
    # int() would truncate these to the unit hexagonal cell, Z = 9 on E = 2,0,0,2
    "vertices-fraction": _hexagonal_doc(vertices=2.9),
    "dx-fraction": _hexagonal_doc(edges=[[0, 1, 0, 0, 1.0, 1], [0, 1, 1.5, 0, 1.0, -1],
                                         [0, 1, 0, 1, 1.0, -1]]),
}


@pytest.mark.parametrize("doc", list(_MALFORMED.values()), ids=list(_MALFORMED))
def test_malformed_json_file_exit_2(tmp_path, capsys, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    code = cli.run(["verify", "--lattice", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1


def test_weights_rejected_for_file_domains(tmp_path, capsys):
    path = tmp_path / "hex.json"
    lattice.builtin("hexagonal").save(path)
    code = cli.run(["verify", "--lattice", str(path), "--weights", "a=2"])
    assert code == 2
    capsys.readouterr()


def test_gaseous_large_quotient_magnitude_path(capsys):
    code, out, _ = run_json(
        capsys, ["partition", "--lattice", "hexagonal", "--weights", "a=3",
                 "--E", "64,0,0,64"])
    assert code == 0
    assert out["method"] == "magnitude+non-vanishing"
    want = fsc.predict_logZ(lattice.builtin("hexagonal", a=3.0), [[64, 0], [0, 64]])
    assert abs(out["log_Z"] - want) < 1e-6


def test_gaseous_rhombi_above_label_limit(capsys):
    code, out, _ = run_json(
        capsys, ["partition", "--lattice", "rhombi-3464", "--E", "11,2,0,12"])
    assert code == 0
    assert out["method"] == "magnitude+non-vanishing"


def test_sectors_print_null_past_e700(capsys):
    code, out, _ = run_json(
        capsys, ["sectors", "--lattice", "hexagonal", "--E", "100,0,0,100"])
    assert code == 0
    assert out["method"] == "magnitude+distinct-conjugate-nodes"
    # about e^3231: every sector and Pfaffian is within e^2 of the largest
    assert [out[k] for k in ("Z00", "Z10", "Z01", "Z11", "Z")] == [None] * 5
    assert out["pf"] == [[None, 0.0]] * 4
    # 3 | 99 puts a node in the (-1, -1) fiber: that Pfaffian prints as 0
    code, out, _ = run_json(
        capsys, ["sectors", "--lattice", "hexagonal", "--E", "99,0,0,99"])
    assert code == 0
    assert out["pf"] == [[None, 0.0]] * 3 + [[0.0, 0.0]]
    # double-dimer sectors near e^662 are still below e^700, so they print
    code, out, _ = run_json(
        capsys, ["sectors", "--lattice", "hexagonal", "--E", "32,0,0,32", "--double-dimer"])
    assert code == 0
    for rs, v in out["ZZ"].items():
        assert abs(math.log(v) - out["log_ZZ"][rs]) < 1e-12 * out["log_ZZ"][rs]


def test_console_entrypoint_subprocess():
    # the child imports the same (possibly uninstalled) package as this test
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "torusdimer.cli", "sectors", "--lattice",
         "fisher", "--weights", "a=1,b=1,c=1", "--E", "1,0,0,1"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["Z"] == 4.0


@pytest.mark.parametrize("E", ["100000000,99999999,100000001,100000000",
                               # its Lagrange reduction takes an odd number of swaps
                               "100000000,100000001,99999999,100000000"])
def test_winding_on_huge_unimodular_basis(capsys, E):
    # det 1 with entries near 1e8: the same 1x1 torus as the identity basis
    args = ["winding", "--lattice", "hexagonal", "--weights", "a=1.1,b=0.9,c=1.2"]
    code, huge, _ = run_json(capsys, args + ["--E", E])
    assert code == 0
    code, unit, _ = run_json(capsys, args + ["--E", "1,0,0,1"])
    assert code == 0
    assert abs(huge["tv_distance"] - unit["tv_distance"]) < 1e-12
    # one cell: the three matchings carry masses a, b, c over a + b + c
    top = sorted(huge["exact"].values())[-3:]
    assert max(abs(x - y) for x, y in zip(top, (0.9 / 3.2, 1.1 / 3.2, 1.2 / 3.2))) < 1e-12


# stdout of the parent of the batched theta evaluation, which made one
# log_xi call per (row, curve); the batch must print the same bytes
SQUARE_CURVE_CSV = """\
log_rho,class,fsc
-1.2,fsc2(1,1),1.74921694069693
-1.2,fsc2(i,1),1.7492169372113
-1.2,fsc2(1,i),1.12777899214161
-1.2,fsc2(i,i),1.12777898865597
-1.2,fsc3(1,-1),-0.175998357093234
-1.2,fsc3(-1,1),1.73840915384523
-1.2,fsc3(-1,-1),-0.176116435632105
-0.5,fsc2(1,1),1.00327255610416
-0.5,fsc2(i,1),1.00314575957656
-0.5,fsc2(1,i),0.914705673108266
-0.5,fsc2(i,i),0.914578876580671
-0.5,fsc3(1,-1),0.272805533228571
-0.5,fsc3(-1,1),0.863205039372826
-0.5,fsc3(-1,-1),0.250283788518494
0.2,fsc2(1,1),0.899555585176245
0.2,fsc2(i,1),0.876222834870473
0.2,fsc2(1,i),0.897697121689929
0.2,fsc2(i,i),0.874364371384157
0.2,fsc3(1,-1),0.638595541074085
0.2,fsc3(-1,1),0.416986021134284
0.2,fsc3(-1,-1),0.330712798911522
0.9,fsc2(1,1),1.32897607178046
0.9,fsc2(i,1),1.01554988800605
0.9,fsc2(1,i),1.32897529479777
0.9,fsc2(i,i),1.01554911102336
0.9,fsc3(1,-1),1.28784478896816
0.9,fsc3(-1,1),0.0501062525186107
0.9,fsc3(-1,-1),0.0483433196331153
"""
HEXAGONAL_CURVE_JSON = (
    '[{"class":"phase-(1,1)","fsc":2.34835794317069,"log_rho":-1.5},'
    '{"class":"phase-(1,w)","fsc":1.65579925735403,"log_rho":-1.5},'
    '{"class":"phase-(w6,-1)","fsc":2.34835794316892,"log_rho":-1.5},'
    '{"class":"phase-(w6,-w6)","fsc":1.65579925735226,"log_rho":-1.5},'
    '{"class":"phase-(1,1)","fsc":0.881373587019543,"log_rho":0},'
    '{"class":"phase-(1,w)","fsc":0.875776470309757,"log_rho":0},'
    '{"class":"phase-(w6,-1)","fsc":0.875776470309756,"log_rho":0},'
    '{"class":"phase-(w6,-w6)","fsc":0.87017935359997,"log_rho":0},'
    '{"class":"phase-(1,1)","fsc":2.34835794317069,"log_rho":1.5},'
    '{"class":"phase-(1,w)","fsc":2.34835794316892,"log_rho":1.5},'
    '{"class":"phase-(w6,-1)","fsc":1.65579925735403,"log_rho":1.5},'
    '{"class":"phase-(w6,-w6)","fsc":1.65579925735226,"log_rho":1.5}]\n')


def test_fsc_curve_stdout_is_pinned(capsys):
    assert cli.run(["fsc-curve", "--lattice", "square-1x1", "--range=-1.2:0.9:4"]) == 0
    assert capsys.readouterr().out == SQUARE_CURVE_CSV
    assert cli.run(["fsc-curve", "--lattice", "hexagonal", "--format", "json",
                    "--range=-1.5:1.5:3"]) == 0
    assert capsys.readouterr().out == HEXAGONAL_CURVE_JSON


def reference_to_json(obj):
    """The recursive serializer that cli._to_json replaced, kept as its oracle."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return '"%s"' % obj.replace("\\", "\\\\").replace('"', '\\"')
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if obj != obj or obj in (math.inf, -math.inf):
            return "null"
        return "%.15g" % (0.0 if obj == 0.0 else obj)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        return "{%s}" % ",".join("%s:%s" % (reference_to_json(str(k)), reference_to_json(v))
                                 for k, v in items)
    if isinstance(obj, (list, tuple)):
        return "[%s]" % ",".join(reference_to_json(v) for v in obj)
    raise TypeError("unserializable value %r" % (obj,))


def test_to_json_matches_its_reference_byte_for_byte():
    import collections

    Pair = collections.namedtuple("Pair", "x y")
    leaves = [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, -2.5e300, 1 / 3, 7, -12, 0,
              True, False, None, 'a "quoted" \\ key', np.float64(-0.0), np.float64(2.0) / 3]
    doc = {"leaves": leaves, "nested": {"b": [leaves, (1.5, [math.inf, {"x": -0.0}])],
                                        "a": {"%d,%d" % (i, -i): i / 7 for i in range(-9, 9)}},
           "pair": Pair(-0.0, [math.nan]), "ints": {3: "three", -1: [True]}, "": [], "e": {}}
    # maps of finite floats under plain str keys take one format call; the rest,
    # and the maps that hold them, are written entry by entry
    floats = {"z": -0.0, "a": 5e-324, "m": 1e-300, "-1,2": 1 / 3, "": 2.5e300, "b": 1e15}
    maps = [floats, {}, {"one": -0.0}, {"x": 1.5, "n": math.nan}, {"x": math.inf, "y": 1.0},
            {"x": 1.0, "y": -math.inf}, {"big": 1e308, "bigger": 1.7e308},
            {'a"b': 1.0, "c": 2.0}, {"a\\b": 1.0}, {"50%": 0.5, "%s": 1.0, "%%": 2.0},
            {"x": np.float64(0.25), "y": 0.5}, {"x": np.float64(-0.0)}, {"x": 1.0, "i": 2},
            {"x": 1.0, "t": True}, {"x": 1.0, "none": None}, {3: 1.0, -1: 2.0},
            {"x": 1.0, "list": [floats]}, {"outer": floats, "inner": {"x": {"y": 1e-300}}}]
    docs = [doc, leaves, [doc, [doc]], math.nan, -0.0, True, None, "s", 5, Pair(1, 2.0),
            maps, [maps, (floats,)]] + maps
    for obj in docs:
        assert cli._to_json(obj) == reference_to_json(obj)
    for bad in (np.int64(3), [object()], {"k": {1, 2}}):
        with pytest.raises(TypeError):
            cli._to_json(bad)


@pytest.mark.parametrize("weights, E, window", [
    ({}, [[6, 0], [0, 6]], 16),
    ({}, [[6, 0], [0, 6]], 200),
    ({"a": 1.1, "b": 0.9, "c": 1.2}, [[100000000, 99999999], [100000001, 100000000]], 16),
])
def test_winding_stdout_matches_its_reference_byte_for_byte(capsys, weights, E, window):
    # the output map rebuilt with float() on every value and written by
    # reference_to_json; the TV folds the model through np.array of its keys
    dom = lattice.builtin("hexagonal", **weights)
    cp = charpoly.build_charpoly(dom)
    law = fsc.winding_law(cp, E)
    model = fsc.winding_distribution_gaussian(cp, E)
    exact = kasteleyn.winding_distribution_exact(dom, E, M=window)
    windings = np.array(list(model), dtype=np.int64).reshape(-1, 2) % window
    folded = np.zeros((window, window))
    np.add.at(folded, (windings[:, 0], windings[:, 1]), np.fromiter(model.values(), float))
    want = {
        "mu": [float(law.mu[0]), float(law.mu[1])],
        "sigma": [[float(x) for x in row] for row in law.sigma],
        "color_swapped": bool(law.color_swapped),
        "ell": [int(law.ell[0]), int(law.ell[1])],
        "tv_distance": 0.5 * float(np.abs(exact.probs - folded).sum()),
        "window": window,
        "model": {"%d,%d" % k: float(v) for k, v in model.items()},
        "exact": {"%d,%d" % k: float(v)
                  for k, v in exact.as_dict(center=max(model, key=model.get)).items()},
    }
    argv = ["winding", "--lattice", "hexagonal", "--E", ",".join(str(x) for row in E for x in row),
            "--window", str(window)]
    if weights:
        argv += ["--weights", ",".join("%s=%s" % kv for kv in weights.items())]
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == reference_to_json(want) + "\n"


def test_cli_import_loads_no_test_or_heavy_modules():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = ("import sys, torusdimer.cli; "
            "print(sorted({'scipy', 'mpmath', 'hypothesis', 'pytest'}"
            " & {m.partition('.')[0] for m in sys.modules}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stdout + proc.stderr


@pytest.mark.parametrize("name, E", [("hexagonal", "70368744177664,0,0,2"),
                                     ("fisher", "70368744177664,0,0,2"),
                                     ("square-bip", "140737488355328,0,0,2")])
def test_thin_quotients_print_their_log_Z(capsys, name, E):
    # 2^46 or 2^47 by 2: every sector is under its rounding bound, and log Z
    # comes from the slot sum; Z itself overflows and prints null
    code, out, _raw = run_json(capsys, ["partition", "--lattice", name, "--E", E])
    assert code == 0 and out["Z"] is None
    want = math.log(2) / 2 if name == "hexagonal" else math.log(2)
    assert abs(out["log_Z"] / out["det_E"] - want) <= 1e-12


@pytest.mark.parametrize("E", ["9223372036854775808,0,0,1", "9223372036854775807,0,0,1",
                               "2251799813685249,0,0,1", "4611686018427387904,4611686018427387903,1,1"])
def test_E_out_of_range_exits_2(capsys, E):
    code, err = _one_line_error(capsys, ["partition", "--lattice", "hexagonal", "--E", E])
    assert code == 2 and "2^51" in err


def test_E_at_the_det_limit_prints(capsys):
    code, out, _raw = run_json(capsys, ["partition", "--lattice", "hexagonal",
                                        "--E", "2251799813685248,0,0,1"])
    assert code == 0 and out["det_E"] == 2 ** 51 and out["log_Z"] > 0


def test_winding_reality_check_scales_with_the_quotient(capsys):
    # 4e8 fiber points whose slot phases carry 2.5e-8 of rounding: a fixed
    # 1e-8 reality check refused this table
    code, out, _raw = run_json(capsys, ["winding", "--lattice", "hexagonal", "--weights",
                                        "a=1.2,b=0.9", "--E", "20000,7,0,19991", "--window", "8"])
    # a window of 8 folds a wide law: negative rounding is clipped, so the sum
    # is 1 to the 1e-7 of winding_distribution_exact's own check
    assert code == 0 and abs(sum(out["exact"].values()) - 1) < 1e-7


def test_winding_past_the_phase_range_exits_2(capsys):
    # det 2^49: the slice product's phases no longer tell a slot's sign, while
    # a sector table of that size takes exact real-point signs
    code, err = _one_line_error(capsys, ["winding", "--lattice", "hexagonal", "--E",
                                         "33554432,0,0,16777216", "--window", "8"])
    assert code == 2 and "2^47" in err
    code, out, _raw = run_json(capsys, ["partition", "--lattice", "hexagonal", "--E",
                                        "281474976710656,0,0,2"])
    assert code == 0 and out["det_E"] == 2 ** 49
    assert abs(out["log_Z"] / out["det_E"] - math.log(2) / 2) <= 1e-12
