"""Seeded job lists for the benchmark's workloads.

A job is one `torusdimer` command line plus the name of the oracle that
checks its output.  The list is a pure function of (workload, seed): the
seed draws weights, the shape of E and which entries of the fixed input
pools are used, while the sizes of the jobs are fixed per workload so that
different seeds do the same amount of work.

Pools (criticality weights, fsc-curve ranges, winding inputs) are finite
because their outputs are checked against references stored in refs.json;
`pool_jobs()` lists every pooled job so that make_refs.py can capture them.
"""

import math
import random

WHY = {
    "dense-sectors": (
        "sectors/partition below the dense cap and ising on all six builtins: "
        "time goes to dense Pfaffians and matrix builds, with no spectral-curve work"),
    "large-torus": (
        "partition above the dense cap on critical domains, criticality and "
        "fsc-curve: the spectral, node-search and fiber-product path, with no dense Pfaffian"),
    "winding": (
        "winding on liquid hexagonal and square-bip quotients: twisted fiber "
        "products with one Qblock determinant per grid point"),
}
WORKLOADS = tuple(WHY)

class Job:
    """One CLI invocation and how to check it."""

    __slots__ = ("argv", "oracle", "label")

    def __init__(self, argv, oracle, label=None):
        self.argv = list(argv)
        self.oracle = oracle
        self.label = label or argv[0]

    @property
    def key(self):
        return " ".join(self.argv)

    def __repr__(self):
        return "Job(%r, %r)" % (self.key, self.oracle)


def weights_arg(weights):
    return ",".join("%s=%s" % (k, _num(v)) for k, v in sorted(weights.items()))


def E_arg(E):
    return ",".join(str(x) for x in (E[0][0], E[0][1], E[1][0], E[1][1]))


def _num(x):
    return repr(float(x)) if isinstance(x, float) else str(x)


def _draw_weights(rng, names, lo=0.6, hi=1.6):
    return {k: round(rng.uniform(lo, hi), 6) for k in names}


def _draw_E(rng, det_target, exact=False):
    """Integer E with det close to det_target (equal when exact).

    Half the draws are diagonal, the other half skew upper- or
    lower-triangular with a nonzero off-diagonal entry.
    """
    if exact:
        pairs = [(p, det_target // p) for p in range(1, det_target + 1)
                 if det_target % p == 0 and 0.5 <= p * p / det_target <= 2.0]
        p, r = rng.choice(pairs)
    else:
        p = max(1, round(math.sqrt(det_target * rng.uniform(0.6, 1.6))))
        r = max(1, round(det_target / p))
    q = rng.randrange(1, p) if p > 1 and rng.random() < 0.5 else 0
    if q and rng.random() < 0.5:
        return [[p, 0], [q, r]]
    return [[p, q], [0, r]]


def critical_fisher_weights(beta_a, beta_b):
    """Fisher weights on the ferromagnetic Ising critical line a+b+c = abc."""
    a, b = math.exp(2 * beta_a), math.exp(2 * beta_b)
    return {"a": a, "b": b, "c": (a + b) / (a * b - 1.0)}


def critical_beta_c(beta_a, beta_b):
    c = critical_fisher_weights(beta_a, beta_b)["c"]
    return 0.5 * math.log(c)


# -- dense-sectors --------------------------------------------------------------

# (lattice, command, |det E|); the largest quotients have about 2000 vertices
_DENSE_PLAN = (
    ("hexagonal", "sectors", 64), ("hexagonal", "partition", 256),
    ("hexagonal", "sectors", 576), ("hexagonal", "partition", 1024),
    ("square-bip", "partition", 64), ("square-bip", "sectors", 256),
    ("square-bip", "partition", 576),
    ("square-2x1", "sectors", 36), ("square-2x1", "partition", 100),
    ("square-2x1", "sectors", 144),
    ("square-1x2", "partition", 36), ("square-1x2", "sectors", 100),
    ("square-1x2", "partition", 144),
    ("fisher", "sectors", 16), ("fisher", "partition", 36), ("fisher", "sectors", 64),
    ("rhombi-3464", "partition", 16), ("rhombi-3464", "sectors", 36),
    ("rhombi-3464", "partition", 64),
)
# quotients small enough (<= 28 vertices) for brute-force enumeration
_ENUM_PLAN = (
    ("hexagonal", "sectors", 12), ("square-bip", "partition", 12),
    ("square-2x1", "sectors", 8), ("fisher", "sectors", 4),
    ("rhombi-3464", "partition", 4),
)
_WEIGHT_NAMES = {"hexagonal": "abc", "square-bip": "ab", "square-2x1": "ab",
                 "square-1x2": "ab", "fisher": "abc", "rhombi-3464": "abc"}


def _dense_sectors(rng):
    jobs = []
    for name, cmd, det in _DENSE_PLAN + _ENUM_PLAN:
        w = _draw_weights(rng, _WEIGHT_NAMES[name])
        E = _draw_E(rng, det, exact=True)
        oracle = "enumerate" if (name, cmd, det) in _ENUM_PLAN else "fiber"
        jobs.append(Job([cmd, "--lattice", name, "--weights", weights_arg(w),
                         "--E", E_arg(E)], oracle, "%s-%s" % (cmd, oracle)))
    # fisher at unit weights: every sector is exactly 2^(|det E| - 1)
    jobs.append(Job(["sectors", "--lattice", "fisher", "--E",
                     E_arg(_draw_E(rng, 25, exact=True))], "fisher-unit",
                    "sectors-fisher-unit"))
    # Ising on and off the ferromagnetic critical line
    ba, bb = round(rng.uniform(0.25, 0.45), 4), round(rng.uniform(0.25, 0.45), 4)
    bc = critical_beta_c(ba, bb)
    for beta_c in (bc, round(rng.uniform(0.0, 0.3), 4)):
        jobs.append(Job(["ising", "--beta-a", _num(ba), "--beta-b", _num(bb),
                         "--beta-c", _num(beta_c), "--sizes", "4,6"], "ising"))
    rng.shuffle(jobs)
    return jobs


# -- large-torus -------------------------------------------------------------------

# one rung of the |det E| ladder per critical class, fixed so that every
# seed does the same amount of fiber work
_LARGE_PLAN = (("square-bip", 10_000), ("fisher", 20_000),
               ("square-2x1", 40_000), ("hexagonal", 80_000))

CRITICALITY_POOL = {
    "hexagonal": [{"a": 1, "b": 1, "c": 1}, {"a": 1.1, "b": 0.9, "c": 1.2},
                  {"a": 0.8, "b": 1.25, "c": 1}, {"a": 1.3, "b": 1, "c": 0.9}],
    "square-bip": [{"a": 1, "b": 1}, {"a": 1.3, "b": 1}, {"a": 0.8, "b": 1.4},
                   {"a": 1.2, "b": 0.7}],
    "square-2x1": [{"a": 1, "b": 1}, {"a": 0.8, "b": 1.4}, {"a": 1.25, "b": 0.9},
                   {"a": 1.5, "b": 1.1}],
    "square-1x2": [{"a": 1, "b": 1}, {"a": 0.8, "b": 1.4}, {"a": 1.25, "b": 0.9},
                   {"a": 1.5, "b": 1.1}],
    "fisher": [critical_fisher_weights(0.3, 0.25), critical_fisher_weights(0.35, 0.3),
               critical_fisher_weights(0.25, 0.45), {"a": 1.3, "b": 0.8, "c": 1.1}],
    "rhombi-3464": [{"a": 1, "b": 1, "c": 1}, {"a": 1.3, "b": 0.8, "c": 1.1},
                    {"a": 0.9, "b": 1.2, "c": 1}, {"a": 1.1, "b": 1.1, "c": 0.7}],
}
FSC_RANGES = ("-1:1:21", "-1.5:0.5:21", "-0.5:1.5:21", "-1.2:1.2:21")
FSC_FAMILIES = (["--lattice", "square-1x1"],
                ["--lattice", "hexagonal", "--format", "json"])


def _criticality_job(name, weights):
    return Job(["criticality", "--lattice", name, "--weights", weights_arg(weights)],
               "stored")


def _fsc_job(family, range_text):
    return Job(["fsc-curve"] + family + ["--range=" + range_text], "stored")


def _large_domain_weights(rng, name):
    if name == "fisher":
        return critical_fisher_weights(round(rng.uniform(0.25, 0.45), 4),
                                       round(rng.uniform(0.25, 0.45), 4))
    # any weights in [0.8, 1.25] satisfy the hexagonal triangle inequality
    return _draw_weights(rng, _WEIGHT_NAMES[name], 0.8, 1.25)


def _large_torus(rng):
    jobs = []
    for name, det in _LARGE_PLAN:
        w = _large_domain_weights(rng, name)
        jobs.append(Job(["partition", "--lattice", name, "--weights", weights_arg(w),
                         "--E", E_arg(_draw_E(rng, det))], "predict",
                        "partition-large"))
    # every pooled criticality and fsc-curve input runs in each pass, so the
    # seed changes only the partition inputs and the order
    jobs += [_criticality_job(name, w) for name, pool in CRITICALITY_POOL.items()
             for w in pool]
    # fisher at unit weights: constant P, the node search's worst case
    jobs.append(Job(["criticality", "--lattice", "fisher"], "stored",
                    "criticality-fisher-unit"))
    jobs += [_fsc_job(family, text) for family in FSC_FAMILIES for text in FSC_RANGES]
    rng.shuffle(jobs)
    return jobs


# -- winding ---------------------------------------------------------------------------

# (|det E|, window) rungs, each with a fixed lattice so that every seed does
# the same work; the seed picks the weights and the shape of E
WINDING_POOL = {
    (36, 12, "hexagonal"): [
        ({"a": 1.1, "b": 0.9, "c": 1.2}, [[6, 0], [0, 6]]),
        ({"a": 0.9, "b": 1.2, "c": 1.0}, [[6, 2], [0, 6]]),
        ({"a": 1.2, "b": 1.0, "c": 0.85}, [[6, 0], [1, 6]])],
    (36, 16, "square-bip"): [
        ({"a": 1.2, "b": 0.9}, [[6, 0], [1, 6]]),
        ({"a": 0.85, "b": 1.1}, [[4, 0], [0, 9]]),
        ({"a": 1.0, "b": 1.25}, [[6, 3], [0, 6]])],
    (48, 12, "square-bip"): [
        ({"a": 1.1, "b": 0.8}, [[8, 0], [0, 6]]),
        ({"a": 0.9, "b": 1.2}, [[6, 1], [0, 8]]),
        ({"a": 1.25, "b": 1.05}, [[8, 0], [2, 6]])],
    (48, 16, "hexagonal"): [
        ({"a": 1.0, "b": 1.15, "c": 0.9}, [[6, 0], [0, 8]]),
        ({"a": 1.2, "b": 1.0, "c": 1.1}, [[8, 3], [0, 6]]),
        ({"a": 0.95, "b": 0.9, "c": 1.2}, [[8, 0], [0, 6]])],
    (64, 12, "hexagonal"): [
        ({"a": 1.05, "b": 0.95, "c": 1.15}, [[8, 0], [0, 8]]),
        ({"a": 0.95, "b": 1.1, "c": 1.2}, [[8, 0], [3, 8]]),
        ({"a": 1.15, "b": 1.2, "c": 1.0}, [[8, 1], [0, 8]])],
    (64, 16, "square-bip"): [
        ({"a": 1.15, "b": 0.95}, [[8, 2], [0, 8]]),
        ({"a": 1.0, "b": 1.3}, [[8, 0], [0, 8]]),
        ({"a": 0.8, "b": 1.1}, [[8, 0], [5, 8]])],
}


def _winding_job(name, window, weights, E):
    return Job(["winding", "--lattice", name, "--weights", weights_arg(weights),
                "--E", E_arg(E), "--window", str(window)], "stored")


def _winding(rng):
    jobs = [_winding_job(name, window, *rng.choice(variants))
            for (_det, window, name), variants in WINDING_POOL.items()]
    rng.shuffle(jobs)
    return jobs


_GENERATORS = {"dense-sectors": _dense_sectors, "large-torus": _large_torus,
               "winding": _winding}


def job_list(workload, seed):
    """The job list of one workload for one seed (same seed, same list)."""
    if workload not in _GENERATORS:
        raise ValueError("unknown workload %r (choose from %s)"
                         % (workload, ", ".join(WORKLOADS)))
    return _GENERATORS[workload](random.Random("%s:%d" % (workload, seed)))


def pool_jobs():
    """Every job that is checked against a stored reference."""
    jobs = [j for j in _large_torus(random.Random(0)) if j.oracle == "stored"]
    jobs += [_winding_job(name, window, *variant)
             for (_det, window, name), variants in WINDING_POOL.items()
             for variant in variants]
    return jobs
