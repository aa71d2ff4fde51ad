"""Command-line front end.

Subcommands: partition, sectors, winding, criticality, fsc-curve, verify,
ising.  All outputs are deterministic.  JSON has its keys sorted and its
floats written by %.15g (-0.0 as 0), with null for a value that is not
finite; a map of finite floats under str keys that need no escape and hold
no % is written by one format call.  CSV has a header row and LF endings.
winding builds no exact window of more than 2^21 cells
(kasteleyn.WINDOW_CELL_LIMIT) and no discrete-Gaussian box of more than
2^23 (specialfn.GAUSSIAN_CELL_LIMIT), and --dump-matrix no table of more
than 2.5 x 10^6 terms (kasteleyn.TERM_LIMIT).
Exit status: 0 success, 2 bad input (unknown lattice, malformed file, a
winding window, discrete-Gaussian box or matrix dump past its limit),
3 numerical-classification failure (unclassifiable or out-of-class
spectral curve, or lattice signs that fail the orientation check: verify
reports them, and partition, sectors, winding and criticality refuse them).
"""

import argparse
import functools
import math
import operator
import os
import sys

import numpy as np

from . import charpoly, fsc, kasteleyn, lattice


def _fmt_float(x):
    if not math.isfinite(x):
        return "null"
    return "%.15g" % (x + 0.0)  # + 0.0 normalizes -0.0


def _fmt_str(text):
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


# writers of the exact leaf types; containers write their elements through this
# table, so only nested containers and subclasses (numpy floats, namedtuples)
# recurse into _to_json
_LEAVES = {float: _fmt_float, int: str, str: _fmt_str, bool: lambda b: "true" if b else "false",
           type(None): lambda _none: "null"}
_KEY = operator.itemgetter(0)


def _to_json(obj):
    write = _LEAVES.get(type(obj))
    if write is not None:
        return write(obj)
    if isinstance(obj, str):
        return _fmt_str(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _fmt_float(obj)
    leaves = _LEAVES.get
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=_KEY)
        for _, v in items:
            if type(v) is not float:
                break
        else:
            # all floats: a finite sum shows them all finite (one that overflows
            # takes the per-entry path, which writes the same bytes)
            keys = [k for k, _ in items]
            if keys and math.isfinite(sum(obj.values())) and all(type(k) is str for k in keys):
                joined = "".join(keys)
                if '"' not in joined and "\\" not in joined and "%" not in joined:
                    return (('{"' + '":%.15g,"'.join(keys) + '":%.15g}')
                            % tuple([v + 0.0 for _, v in items]))
        return "{%s}" % ",".join(["%s:%s" % (_fmt_str(str(k)), leaves(type(v), _to_json)(v))
                                  for k, v in items])
    if isinstance(obj, (list, tuple)):
        return "[%s]" % ",".join([leaves(type(v), _to_json)(v) for v in obj])
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
        lo_text, hi_text, count = text.split(":")
        lo, hi, count = float(lo_text), float(hi_text), int(count)
    except ValueError:
        raise _Usage("--range expects lo:hi:count")
    if count < 1:
        raise _Usage("--range count must be >= 1")
    if count > fsc.CURVE_POINT_LIMIT:  # before the list is built
        raise _Usage("--range count %d is more than the %d points a sweep may hold"
                     % (count, fsc.CURVE_POINT_LIMIT))
    if not math.isfinite(hi - lo):  # also refuses an infinite or nan bound
        raise _Usage("--range %s:%s: the bounds and their difference must be finite"
                     % (lo_text, hi_text))
    if count == 1:
        return [lo]
    return [lo + (hi - lo) * k / (count - 1) for k in range(count)]


def _parse_sizes(text):
    try:
        sizes = tuple(int(s) for s in text.split(","))
        if min(sizes) >= 1:
            return sizes
    except ValueError:
        pass
    raise _Usage("--sizes expects comma-separated integers of at least 1, got %r" % text)


def _load_domain(args):
    name = args.lattice
    weights = _parse_weights(getattr(args, "weights", None))
    if name in lattice.BUILTIN_NAMES or name == "square-1x1":
        dom = lattice.builtin(name, **weights)
        unknown = sorted(set(weights) - set(dom.weights))
        if unknown:
            raise _Usage("%s has no weight %s (it has %s)"
                         % (name, ", ".join(unknown), ", ".join(sorted(dom.weights))))
        return dom
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


def _matrix_dump(dom, E):
    """--dump-matrix block: the nonzero entries of K_E(1, 1) as triplets, row by row,
    from kasteleyn.quotient_terms with no n x n matrix: each entry sums its terms
    in the order kasteleyn.build_KE does, so it matches build_KE to the bit.
    """
    n = dom.k * abs(lattice.int_det(E))
    rows, cols, values = kasteleyn.quotient_terms(dom, E)
    keys, entry = np.unique(rows * n + cols, return_inverse=True)  # row-major
    sums = np.bincount(entry, weights=values)
    i, j = np.divmod(keys[sums != 0], n)
    entries = [[a, b, v, 0.0] for a, b, v in zip(i.tolist(), j.tolist(), sums[sums != 0].tolist())]
    return {"zeta": [1.0, 0.0], "xi": [1.0, 0.0], "entries": entries}


def _refuse_csv_blocks(args, *options):
    """_Usage when --format csv comes with an option whose block the CSV table
    has no column for; checked before any domain or table is built."""
    given = ["--" + name.replace("_", "-") for name in options if getattr(args, name)]
    if args.format == "csv" and given:
        raise _Usage("--format csv has no column for %s; use --format json"
                     % " and ".join(given))


def _cmd_partition(args):
    _refuse_csv_blocks(args, "dump_matrix")
    dom = _load_domain(args)
    E = _parse_E(args.E)
    table, method = fsc.sector_table_auto(dom, E)
    log_z = table.log_Z
    out = {
        "det_E": lattice.int_det(E),
        "log_Z": None if log_z == -math.inf else log_z,
        "Z": _unscaled(table.Z_scaled, table.logscale),
        "method": method,
    }
    if args.dump_matrix:
        out["matrix"] = _matrix_dump(dom, E)
    if args.format == "csv":
        _emit_csv(["det_E", "log_Z", "Z"],
                  [[out["det_E"],
                    -math.inf if out["log_Z"] is None else out["log_Z"],
                    out["Z"] if out["Z"] is not None else math.nan]])
    else:
        _emit_json(out)
    return 0


def _cmd_sectors(args):
    _refuse_csv_blocks(args, "double_dimer", "dump_matrix")
    dom = _load_domain(args)
    E = _parse_E(args.E)
    table, method = fsc.sector_table_auto(dom, E)
    sectors = [_unscaled(x, table.logscale) for x in table.sectors_scaled]
    out = {
        "Z00": sectors[0], "Z10": sectors[1], "Z01": sectors[2], "Z11": sectors[3],
        "Z": _unscaled(table.Z_scaled, table.logscale),
        "pf": [[_unscaled(x, table.logscale), 0.0] for x in table.pf_scaled],
        "method": method,
    }
    if args.double_dimer:
        dd, logscale = table.double_dimer_sectors()
        out["ZZ"] = {"%d%d" % rs: _unscaled(v, logscale) for rs, v in dd.items()}
        out["log_ZZ"] = {"%d%d" % rs: (math.log(v) + logscale if v > 0
                                       else None)
                         for rs, v in dd.items()}
    if args.dump_matrix:
        out["matrix"] = _matrix_dump(dom, E)
    if args.format == "csv":
        _emit_csv(["sector", "value"],
                  [[key, math.nan if out[key] is None else out[key]]
                   for key in ("Z00", "Z10", "Z01", "Z11", "Z")])
    else:
        _emit_json(out)
    return 0


def _cmd_criticality(args):
    dom = _load_domain(args)
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


def _cmd_winding(args):
    dom = _load_domain(args)
    E = _parse_E(args.E)
    cp = charpoly.build_charpoly(dom)
    law = fsc.winding_law(cp, E)
    model = fsc.winding_distribution_gaussian(cp, E)
    exact = kasteleyn.winding_distribution_exact(dom, E, M=args.window)
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
        "model": {"%d,%d" % k: v for k, v in model.items()},
        "exact": {"%d,%d" % k: v for k, v in exact_masses.items()},
    }
    _emit_json(out)
    return 0


def _cmd_fsc_curve(args):
    if args.lattice not in fsc.CURVE_FAMILIES:
        raise _Usage("fsc-curve families: square-1x1 or hexagonal")
    log_rhos = _parse_range(args.range)
    curves = fsc.curve_values(args.lattice, log_rhos)
    rows = [[lr, name, values[i]] for i, lr in enumerate(log_rhos) for name, values in curves]
    if args.format == "json":
        _emit_json([{"log_rho": r[0], "class": r[1], "fsc": r[2]} for r in rows])
    else:
        _emit_csv(["log_rho", "class", "fsc"], rows)
    return 0


def _cmd_verify(args):
    dom = _load_domain(args)
    report = lattice.verify_orientation(dom)
    out = {
        "faces_clockwise_odd": bool(report.faces_clockwise_odd),
        "m0_sign_positive": bool(report.m0_sign_positive),
        "alternating_cycles_positive": bool(report.alternating_cycles_positive),
        "offending_items": [str(x) for x in report.offending_items],
        "ok": bool(report.ok),
    }
    _emit_json(out)
    return 0 if report.ok else 3


def _cmd_ising(args):
    rep = fsc.ising_critical_check(args.beta_a, args.beta_b, args.beta_c,
                                   sizes=_parse_sizes(args.sizes))
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


@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="torusdimer",
        description="Exact dimer partition functions and finite-size "
                    "corrections on toric quotients.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_E=False):
        p.add_argument("--lattice", required=True,
                       help="builtin name or lattice JSON file")
        p.add_argument("--weights", default=None,
                       help="comma-separated name=value pairs")
        if need_E:
            p.add_argument("--E", required=True,
                           help="four integers u,v,x,y (rows of E)")

    # --format only where the command writes CSV; the others print JSON only
    p = sub.add_parser("partition", help="total partition function on the E-quotient")
    add_common(p, need_E=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--dump-matrix", action="store_true",
                   help="include K_E(1,1) as coordinate triplets")

    p = sub.add_parser("sectors", help="homology-sector decomposition")
    add_common(p, need_E=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
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
    try:
        return _COMMANDS[args.command](args)
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
