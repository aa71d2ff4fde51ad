import json
import math
import os
import subprocess
import sys

import pytest

from torusdimer import cli, fsc, lattice


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
    code, out, _ = run_json(
        capsys, ["partition", "--lattice", str(path), "--E", "1,0,0,1"])
    assert code == 0
    assert out["Z"] == 0.0
    assert out["log_Z"] is None


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
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    code = cli.run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_malformed_json_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"k": 2, "edges": [[0, 1, 0]]}')
    code = cli.run(["verify", "--lattice", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


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


def test_threads_flag_pins_environment(capsys, monkeypatch):
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    code = cli.run(["--threads", "2", "verify", "--lattice", "fisher"])
    capsys.readouterr()
    assert code == 0
    assert os.environ["OMP_NUM_THREADS"] == "2"


def test_threads_env_variable(capsys, monkeypatch):
    monkeypatch.setenv("TORUSDIMER_THREADS", "3")
    monkeypatch.setenv("OMP_NUM_THREADS", "unset")
    code = cli.run(["verify", "--lattice", "fisher"])
    capsys.readouterr()
    assert code == 0
    assert os.environ["OMP_NUM_THREADS"] == "3"


def test_console_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "torusdimer.cli", "sectors", "--lattice",
         "fisher", "--weights", "a=1,b=1,c=1", "--E", "1,0,0,1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["Z"] == 4.0
