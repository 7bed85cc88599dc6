"""Record reference outputs from the current code into bench/ref/<scale>/.

Usage (from the repository root):  python3 bench/record.py [--scale full|tiny]

Every command runs once; `sample` runs once per seed slot, because its output
depends on the seed (see workloads.SAMPLE_SLOTS).  Re-record only when an
output is meant to change, and say so in the change that does it.
"""
from __future__ import annotations

import argparse
import json
import sys

import workloads
from run import REF_DIR, Bench, work_dir


def record(workload: str, scale: str) -> dict:
    refs = {}
    with work_dir(f"record-{workload}") as work:
        bench = Bench(workload, scale, 0, None, work)
        bench.warm()
        bench.rep(traced=False)
        refs.update(bench.recorded)
        if any(c.verb == "sample" for c in bench.cmds):
            for seed in range(1, workloads.SAMPLE_SLOTS):
                slot = Bench(workload, scale, seed, None, work)
                slot.rep(traced=False, verbs=("sample",))
                bench.failed += slot.failed
                refs.update(slot.recorded)
    if bench.failed:
        raise SystemExit(f"record: {bench.failed} command(s) of {workload} failed")
    return refs


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--scale", choices=workloads.SCALES, action="append")
    scales = ap.parse_args().scale or list(workloads.SCALES)
    for scale in scales:
        for workload in workloads.WORKLOADS:
            refs = record(workload, scale)
            path = REF_DIR / scale / f"{workload}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"{path}: {len(refs)} references", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
