"""Capture the stored references of every pooled job into refs.json.

Run from the root of a checkout, at a commit whose outputs are trusted:

    python3 perfbench/make_refs.py

Stored references cover the jobs no independent oracle checks
(criticality, fsc-curve, winding); see oracles.py.
"""

import json
import sys

from run import pin_and_locate


def _rounded(obj):
    """Floats cut to 10 significant digits, well inside the check tolerance."""
    if isinstance(obj, float):
        return float("%.10g" % obj)
    if isinstance(obj, dict):
        return {k: _rounded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [_rounded(v) for v in obj]
    return obj


def main():
    if not pin_and_locate():
        return 2
    import harness
    import oracles
    import workloads
    from torusdimer import cli

    refs = {}
    for job in workloads.pool_jobs():
        code, text = harness.run_job(cli, job.argv)
        if code != 0:
            raise SystemExit("%s exited %r" % (job.key, code))
        refs[job.key] = oracles.parse_output(text)
    with open(oracles.REFS_PATH, "w") as fh:
        fh.write("{\n%s\n}\n" % ",\n".join(
            "%s: %s" % (json.dumps(key), json.dumps(_rounded(refs[key]), separators=(",", ":")))
            for key in sorted(refs)))
    print("%d references written to %s" % (len(refs), oracles.REFS_PATH))
    return 0


if __name__ == "__main__":
    sys.exit(main())
