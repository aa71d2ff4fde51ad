"""Command-line front end.

Subcommands: partition, sectors, winding, criticality, fsc-curve, verify,
ising.  All outputs are deterministic: JSON is emitted with sorted keys and
floats at 15 significant digits, CSV with a header row and LF endings.
Exit status: 0 success, 2 bad input (unknown lattice, malformed file),
3 numerical-classification failure (failed orientation
check, unclassifiable or out-of-class spectral curve).
"""

import argparse
import math
import os
import sys


def _fmt_float(x):
    if x != x or x in (math.inf, -math.inf):
        return "null"
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return "%.15g" % x


def _to_json(obj):
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"')
        return '"%s"' % out
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        body = ",".join('%s:%s' % (_to_json(str(k)), _to_json(v)) for k, v in items)
        return "{%s}" % body
    if isinstance(obj, (list, tuple)):
        return "[%s]" % ",".join(_to_json(v) for v in obj)
    raise TypeError("unserializable value %r" % (obj,))


def _emit_json(obj):
    sys.stdout.write(_to_json(obj) + "\n")


def _emit_csv(header, rows):
    out = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(_fmt_float(v) if v == v and abs(v) != math.inf
                             else ("-inf" if v == -math.inf else "nan"))
            else:
                cells.append(str(v))
        out.append(",".join(cells))
    sys.stdout.write("\n".join(out) + "\n")


class _Usage(Exception):
    pass


def _parse_weights(text):
    weights = {}
    if not text:
        return weights
    for part in text.split(","):
        if "=" not in part:
            raise _Usage("bad weight entry %r (expected name=value)" % part)
        name, _, val = part.partition("=")
        try:
            weights[name.strip()] = float(val)
        except ValueError:
            raise _Usage("bad weight value %r" % val)
    return weights


def _parse_E(text):
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise _Usage("--E expects four integers u,v,x,y")
    if len(parts) != 4:
        raise _Usage("--E expects four integers u,v,x,y")
    E = [[parts[0], parts[1]], [parts[2], parts[3]]]
    if parts[0] * parts[3] - parts[1] * parts[2] <= 0:
        raise _Usage("det E must be positive")
    return E


def _parse_range(text):
    try:
        lo, hi, count = text.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
    except ValueError:
        raise _Usage("--range expects lo:hi:count")
    if count < 1:
        raise _Usage("--range count must be >= 1")
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * k / (count - 1) for k in range(count)]


def _load_domain(args, lattice):
    name = args.lattice
    weights = _parse_weights(getattr(args, "weights", None))
    if name in lattice.BUILTIN_NAMES or name == "square-1x1":
        return lattice.builtin(name, **weights)
    if os.path.exists(name):
        dom = lattice.FundamentalDomain.load(name)
        if weights:
            raise _Usage("--weights applies to builtin lattices only")
        return dom
    raise _Usage("unknown lattice %r (not a builtin name or readable file)" % name)


def _unscaled(x, logscale):
    """x * e^logscale as a float, or None once its magnitude passes e^700."""
    lg = math.log(abs(x)) + logscale if x else -math.inf
    if lg >= 700:
        return None
    return float(x) * math.exp(logscale) if logscale < 700 else math.copysign(math.exp(lg), x)


def _complex_pair(z):
    return [float(z.real), float(z.imag)]


def _matrix_triplets(K):
    entries = []
    n = K.shape[0]
    for i in range(n):
        for j in range(n):
            v = K[i, j]
            if v != 0:
                entries.append([i, j, float(v.real), float(v.imag)])
    return entries


def _cmd_partition(args, mods):
    lattice, kasteleyn, charpoly, fsc = mods
    dom = _load_domain(args, lattice)
    E = _parse_E(args.E)
    table = fsc.sector_table_auto(dom, E)
    log_z = table.log_Z
    out = {
        "det_E": int(round(E[0][0] * E[1][1] - E[0][1] * E[1][0])),
        "log_Z": None if log_z == -math.inf else log_z,
        "Z": _unscaled(table.Z_scaled, table.logscale),
        "method": table.method,
    }
    if args.dump_matrix:
        K = kasteleyn.build_KE(dom, E, 1, 1)
        out["matrix"] = {"zeta": [1.0, 0.0], "xi": [1.0, 0.0],
                         "entries": _matrix_triplets(K)}
    if args.format == "csv":
        _emit_csv(["det_E", "log_Z", "Z"],
                  [[out["det_E"],
                    -math.inf if out["log_Z"] is None else out["log_Z"],
                    out["Z"] if out["Z"] is not None else math.nan]])
    else:
        _emit_json(out)
    return 0


def _cmd_sectors(args, mods):
    lattice, kasteleyn, charpoly, fsc = mods
    dom = _load_domain(args, lattice)
    E = _parse_E(args.E)
    table = fsc.sector_table_auto(dom, E)
    sectors = [_unscaled(x, table.logscale) for x in table.sectors_scaled]
    out = {
        "Z00": sectors[0], "Z10": sectors[1], "Z01": sectors[2], "Z11": sectors[3],
        "Z": _unscaled(table.Z_scaled, table.logscale),
        "pf": [[_unscaled(x, table.logscale), 0.0] for x in table.pf_scaled],
        "method": table.method,
    }
    if args.double_dimer:
        dd, logscale = table.double_dimer_sectors()
        out["ZZ"] = {"%d%d" % rs: _unscaled(v, logscale) for rs, v in dd.items()}
        out["log_ZZ"] = {"%d%d" % rs: (math.log(v) + logscale if v > 0
                                       else None)
                         for rs, v in dd.items()}
    if args.dump_matrix:
        K = kasteleyn.build_KE(dom, E, 1, 1)
        out["matrix"] = {"zeta": [1.0, 0.0], "xi": [1.0, 0.0],
                         "entries": _matrix_triplets(K)}
    if args.format == "csv":
        _emit_csv(["sector", "value"],
                  [[key, math.nan if out[key] is None else out[key]]
                   for key in ("Z00", "Z10", "Z01", "Z11", "Z")])
    else:
        _emit_json(out)
    return 0


def _cmd_criticality(args, mods):
    lattice, kasteleyn, charpoly, fsc = mods
    dom = _load_domain(args, lattice)
    cp = charpoly.build_charpoly(dom)
    rep = cp.nodes
    nodes = []
    for n in rep.nodes:
        nodes.append({
            "location": [_complex_pair(n.location[0]), _complex_pair(n.location[1])],
            "arguments": [float(n.arguments[0]), float(n.arguments[1])],
            "hessian": [[float(x) for x in row] for row in n.hessian],
            "D": float(n.D),
            "tau": _complex_pair(n.tau),
            "kind": n.kind,
        })
    out = {
        "class": rep.kind,
        "outside_conjectured_class": bool(rep.outside_conjectured_class),
        "free_energy": float(cp.f0),
        "nodes": nodes,
    }
    if rep.kind == charpoly.CLASS_CONJUGATE and cp.Q is not None:
        (r0, s0), swapped = fsc.normalized_node_data(cp)
        out["normalized_node"] = [float(r0), float(s0)]
        out["color_swapped"] = bool(swapped)
    _emit_json(out)
    return 3 if rep.outside_conjectured_class else 0


def _cmd_winding(args, mods):
    lattice, kasteleyn, charpoly, fsc = mods
    dom = _load_domain(args, lattice)
    E = _parse_E(args.E)
    cp = charpoly.build_charpoly(dom)
    law = fsc.winding_law(dom, E, cp=cp)
    model = fsc.winding_distribution_gaussian(dom, E, cp=cp)
    exact = kasteleyn.winding_distribution_exact(dom, E, M=args.window, cp=cp)
    tv = exact.tv_against(model)
    center = max(model, key=model.get)
    exact_masses = exact.as_dict(center=center)
    out = {
        "mu": [law.mu[0], law.mu[1]],
        "sigma": [[float(x) for x in row] for row in law.sigma],
        "color_swapped": bool(law.color_swapped),
        "ell": [int(law.ell[0]), int(law.ell[1])],
        "tv_distance": float(tv),
        "window": int(args.window),
        "model": {"%d,%d" % k: float(v) for k, v in sorted(model.items())},
        "exact": {"%d,%d" % k: float(v) for k, v in sorted(exact_masses.items())},
    }
    _emit_json(out)
    return 0


def _cmd_fsc_curve(args, mods):
    lattice, kasteleyn, charpoly, fsc = mods
    family = args.family or args.lattice
    if family in ("square-1x1", "square"):
        family = "square"
    elif family != "hexagonal":
        raise _Usage("fsc-curve families: square (square-1x1) or hexagonal")
    rows = []
    if family == "square":
        for lr in _parse_range(args.range):
            for name, value in fsc.square_curve_values(lr):
                rows.append([lr, name, value])
    else:
        import cmath
        w6 = [cmath.exp(1j * math.pi / 3), -1.0 + 0j]
        classes = [
            ("phase-(1,1)", 1 + 0j, 1 + 0j),
            ("phase-(1,w)", 1 + 0j, cmath.exp(2j * math.pi / 3)),
            ("phase-(w6,-1)", w6[0], -1 + 0j),
            ("phase-(w6,-w6)", w6[0], -w6[0].conjugate()),
        ]
        for lr in _parse_range(args.range):
            tau = 1j * math.exp(lr)
            for name, zeta, xi_ in classes:
                rows.append([lr, name, fsc.fsc2(zeta, xi_, tau)])
    if args.format == "json":
        _emit_json([{"log_rho": r[0], "class": r[1], "fsc": r[2]} for r in rows])
    else:
        _emit_csv(["log_rho", "class", "fsc"], rows)
    return 0


def _cmd_verify(args, mods):
    lattice, kasteleyn, charpoly, fsc = mods
    dom = _load_domain(args, lattice)
    report = lattice.verify_orientation(dom)
    ok = (report.faces_clockwise_odd and report.m0_sign_positive
          and report.alternating_cycles_positive)
    out = {
        "faces_clockwise_odd": bool(report.faces_clockwise_odd),
        "m0_sign_positive": bool(report.m0_sign_positive),
        "alternating_cycles_positive": bool(report.alternating_cycles_positive),
        "offending_items": [str(x) for x in report.offending_items],
        "ok": bool(ok),
    }
    _emit_json(out)
    return 0 if ok else 3


def _cmd_ising(args, mods):
    lattice, kasteleyn, charpoly, fsc = mods
    sizes = tuple(int(s) for s in args.sizes.split(","))
    rep = fsc.ising_critical_check(args.beta_a, args.beta_b, args.beta_c,
                                   sizes=sizes)
    out = {
        "kappa": {"kappa_0": rep.kappa[0], "kappa_a": rep.kappa[1],
                  "kappa_b": rep.kappa[2], "kappa_c": rep.kappa[3]},
        "vanishing": list(rep.vanishing),
        "critical_line": list(rep.critical_line),
        "node_location": (None if rep.node_location is None
                          else [int(rep.node_location[0]), int(rep.node_location[1])]),
        "pattern_checks": [
            {"size": int(m), "sector": [int(r), int(s)], "ok": bool(ok)}
            for m, (r, s), ok in rep.pattern_checks
        ],
        "log_Z_ising": {str(m): float(v) for m, v in rep.log_Z_ising.items()},
    }
    _emit_json(out)
    return 0


_COMMANDS = {
    "partition": _cmd_partition,
    "sectors": _cmd_sectors,
    "winding": _cmd_winding,
    "criticality": _cmd_criticality,
    "fsc-curve": _cmd_fsc_curve,
    "verify": _cmd_verify,
    "ising": _cmd_ising,
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="torusdimer",
        description="Exact dimer partition functions and finite-size "
                    "corrections on toric quotients.")
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS thread count (default: TORUSDIMER_THREADS "
                             "env var, else library default)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_E=False):
        p.add_argument("--lattice", required=True,
                       help="builtin name or lattice JSON file")
        p.add_argument("--weights", default=None,
                       help="comma-separated name=value pairs")
        if need_E:
            p.add_argument("--E", required=True,
                           help="four integers u,v,x,y (rows of E)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("partition", help="total partition function on the E-quotient")
    add_common(p, need_E=True)
    p.add_argument("--dump-matrix", action="store_true",
                   help="include K_E(1,1) as coordinate triplets")

    p = sub.add_parser("sectors", help="homology-sector decomposition")
    add_common(p, need_E=True)
    p.add_argument("--double-dimer", action="store_true",
                   help="include double-dimer sectors")
    p.add_argument("--dump-matrix", action="store_true")

    p = sub.add_parser("winding", help="winding distribution: Gaussian law vs exact")
    add_common(p, need_E=True)
    p.add_argument("--window", type=int, default=16,
                   help="folding window for the exact distribution")

    p = sub.add_parser("criticality", help="spectral-curve classification")
    add_common(p)

    p = sub.add_parser("fsc-curve", help="finite-size correction curves")
    p.add_argument("--lattice", required=True,
                   help="square-1x1 or hexagonal (selects the curve family)")
    p.add_argument("--family", default=None,
                   help="override family: square or hexagonal")
    p.add_argument("--range", default="-1:1:41",
                   help="log-aspect sweep as lo:hi:count")
    p.add_argument("--format", choices=("json", "csv"), default="csv")

    p = sub.add_parser("verify", help="orientation verification report")
    add_common(p)

    p = sub.add_parser("ising", help="Ising criticality via the dimer model")
    p.add_argument("--beta-a", type=float, required=True)
    p.add_argument("--beta-b", type=float, required=True)
    p.add_argument("--beta-c", type=float, default=0.0)
    p.add_argument("--sizes", default="2,4",
                   help="comma-separated torus sizes for the sector pattern")
    return parser


def run(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)

    threads = args.threads
    if threads is None:
        env = os.environ.get("TORUSDIMER_THREADS")
        threads = int(env) if env else None
    if threads is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(threads)

    # heavy imports deferred until after the thread environment is pinned
    from . import lattice, kasteleyn, charpoly, fsc
    mods = (lattice, kasteleyn, charpoly, fsc)

    try:
        return _COMMANDS[args.command](args, mods)
    except _Usage as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (lattice.DomainError, lattice.OrientationError,
            kasteleyn.QuotientError, OSError, ValueError) as exc:
        if isinstance(exc, (charpoly.CharPolyError, fsc.FscError)):
            print("classification error: %s" % exc, file=sys.stderr)
            return 3
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
