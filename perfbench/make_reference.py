"""Record every workload's per-report poly and mixed values in reference.json.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Run it at the commit whose estimates are the reference; run.py counts a
later value more than SHORTFALL_TOL (relative) below its entry as a
shortfall.  Named workloads are recomputed, the others kept.
"""

import json
import sys
import time

from run import HERE, WORKLOAD_NAMES, git_commit, use_source_tree

if __name__ == "__main__":
    use_source_tree()
    import workloads

    path = HERE / "reference.json"
    for name in sys.argv[1:] or WORKLOAD_NAMES:
        spec, cases = workloads.WORKLOADS[name], {}
        start = time.perf_counter()
        for seed in range(workloads.REFERENCE_SEEDS):
            for case in spec.cases(seed):
                if case.key not in cases:
                    outcome = spec.report(case)
                    if not outcome.passed:
                        raise SystemExit(f"{name} {case.key}: the report fails its own check")
                    cases[case.key] = {
                        "inputs": workloads.fingerprint(spec, case),
                        "poly": outcome.poly,
                        "mixed": outcome.mixed,
                    }
            print(f"{name} seed {seed}: {len(cases)} cases, {time.perf_counter() - start:.0f} s",
                  flush=True)
        # re-read, since another process may have recorded another workload
        doc = json.loads(path.read_text()) if path.is_file() else {"workloads": {}}
        doc["workloads"][name] = {"command": spec.command(0), "cases": cases}
        doc["commit"] = git_commit()
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
