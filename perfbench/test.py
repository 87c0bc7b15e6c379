#!/usr/bin/env python3
"""The benchmark's own test, on small inputs (--quick).

    python3 perfbench/test.py [workload ...]

For every workload (default: all four) it checks that
  1. two traced runs with the same seed report identical deterministic
     counts (program-cache hits/rebinds/misses, memo hits/misses/
     evictions, rounds, tuples derived, TC kernel hits, incremental and
     DRed strata, result rows), and both pass the oracle;
  2. a second seed changes the generated inputs (their digest) and still
     passes the oracle.
Exits non-zero on the first failed check.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sp2b-cold", "gmark-paths", "serve-hot", "serve-mixed"]
DETERMINISTIC = [
    "core.program_hits", "core.program_rebinds", "core.program_misses",
    "datalog.memo_hits", "datalog.memo_misses", "datalog.memo_evictions",
    "datalog.tuples_restored", "datalog.rounds", "datalog.tuples_derived",
    "datalog.tc_kernels_hit", "datalog.tc_dense", "datalog.tc_sparse",
    "datalog.strata_incremental", "datalog.strata_dred",
    "datalog.tuples_overdeleted", "datalog.tuples_rederived",
    "core.result_rows",
]


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--quick"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=300)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("FAIL %s seed %d: exit %d\n%s" % (workload, seed,
                                                   out.returncode, out.stderr))
    result = json.loads(lines[-1])
    digest = next((m.group(1) for m in
                   (re.search(r"^inputs .* digest ([0-9a-f]+)$", l)
                    for l in lines) if m), None)
    if not result["correct"] or result["failed"] != 0:
        errors = "\n".join(l for l in lines if l.startswith("error "))
        sys.exit("FAIL %s seed %d: oracle reported %d failures\n%s" %
                 (workload, seed, result["failed"], errors))
    return result["metrics"], digest


def main(workloads):
    for workload in workloads:
        first, digest = run(workload, 7, 1)
        second, _ = run(workload, 7, 1)
        for name in DETERMINISTIC:
            a, b = first[name]["value"], second[name]["value"]
            if a != b:
                sys.exit("FAIL %s: %s differs between identical runs "
                         "(%s vs %s)" % (workload, name, a, b))
        print("ok   %s: deterministic counts repeat (%s)" % (
            workload, ", ".join("%s=%g" % (n.split(".")[1],
                                           first[n]["value"])
                                for n in DETERMINISTIC[:3])))
        _, other = run(workload, 8, 0)
        if digest is None or digest == other:
            sys.exit("FAIL %s: seed 8 did not change the inputs" % workload)
        print("ok   %s: seed 8 changes the inputs and passes the oracle" %
              workload)
    print("all checks passed")


if __name__ == "__main__":
    main(sys.argv[1:] or WORKLOADS)
