"""Self-test of the benchmark at tiny sizes (about half a minute).

Usage (from the repository root):  python3 bench/selftest.py

Checks that
- run.py's metric names and units match BENCHMARK.json, and that untraced and
  traced runs print exactly those metrics;
- every workload matches its tiny references, and a deliberately wrong
  reference drives the failed count above 0 and the exit code to 1, while a
  float moved within tolerance still matches;
- counts repeat exactly across two traced runs with the same seed.
"""
from __future__ import annotations

import json
import subprocess
import sys

import oracle
import workloads
from run import BENCH, END_TO_END, PER_LAYER, REF_DIR, ROOT, work_dir

_failures = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)
    if not ok:
        _failures.append(what)


def bench_run(workload: str, trace: int, seed: int = 1, ref_dir=None):
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", "0", "--trace", str(trace), "--scale", "tiny"]
    if ref_dir is not None:
        argv += ["--ref-dir", str(ref_dir)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def spec_matches() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    want_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    check(want_e2e == list(END_TO_END), "end_to_end names and units match BENCHMARK.json")
    check(want_layer == list(PER_LAYER), "per_layer names and units match BENCHMARK.json")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "workload names match BENCHMARK.json")


def runs_match_references() -> dict:
    traced = {}
    for workload in workloads.WORKLOADS:
        code, res, err = bench_run(workload, 0)
        check(code == 0 and res is not None and res["correct"] and res["failed"] == 0,
              f"{workload}: untraced run matches its references")
        if res:
            got = [(n, m["unit"]) for n, m in res["metrics"].items()]
            check(got == list(END_TO_END), f"{workload}: untraced metrics are the end_to_end set")
            check(all(m["value"] > 0 for m in res["metrics"].values()),
                  f"{workload}: end_to_end values are positive")
        code, res, err = bench_run(workload, 1)
        check(code == 0 and res is not None and res["correct"],
              f"{workload}: traced run matches its references")
        if res:
            got = [(n, m["unit"]) for n, m in res["metrics"].items()]
            check(got == list(PER_LAYER), f"{workload}: traced metrics are the per_layer set")
            traced[workload] = res
    return traced


def _counts(result: dict) -> dict:
    return {n: m["value"] for n, m in result["metrics"].items()
            if m["unit"] in ("count", "bytes_computed")}


def counts_repeat(first: dict) -> None:
    for workload, res in first.items():
        _, again, _ = bench_run(workload, 1)
        check(again is not None and _counts(again) == _counts(res),
              f"{workload}: counts repeat exactly across two traced runs")


def wrong_references() -> None:
    with work_dir("selftest") as work:
        for workload, key, edit in (
            ("existence", "check-series", lambda r: r["report"].replace("1/4", "1/5", 1)),
            ("spectrum", "spectrum", None),
            ("fourier", "qscan", None),
        ):
            refs = json.loads((REF_DIR / "tiny" / f"{workload}.json").read_text())
            entry = refs[key]
            if edit is not None:
                entry["report"] = edit(entry)
            elif "sha256" in entry["artifact"]:
                entry["artifact"]["sha256"] = "0" * 64
            else:
                lines = entry["artifact"]["lines"]
                xi, q = lines[1].rsplit(",", 1)
                lines[1] = f"{xi},{float(q) + 1e-6!r}"
            (work / f"{workload}.json").write_text(json.dumps(refs))
            code, res, err = bench_run(workload, 0, ref_dir=work)
            check(code == 1 and res is not None and res["failed"] > 0 and not res["correct"]
                  and "MISMATCH" in err,
                  f"{workload}: a wrong {key} reference fails the run loudly")


def tolerance() -> None:
    ref = json.loads((REF_DIR / "tiny" / "fourier.json").read_text())["qscan"]
    lines = list(ref["artifact"]["lines"])
    report = ref["report"]
    xi, q = lines[2].rsplit(",", 1)
    near = lines[:2] + [f"{xi},{float(q) + 1e-14!r}"] + lines[3:]
    far = lines[:2] + [f"{xi},{float(q) + 1e-9!r}"] + lines[3:]
    check(oracle._compare_q_csv(lines, near) == [], "a q value moved by 1e-14 still matches")
    check(oracle._compare_q_csv(lines, far) != [], "a q value moved by 1e-9 mismatches")
    check(oracle._match_text("epsilon0  0.98585749333844785", "epsilon0  0.98585749333844791"),
          "a 17-digit float moved in its last digits still matches")
    check(not oracle._match_text("partial 13/36", "partial 13/37"), "exact rationals compare exactly")
    check(oracle.compare(None, {"report": report}, report + "wall time: 9.9 s\n", None) == [],
          "the wall-time line is ignored")


def main() -> int:
    spec_matches()
    tolerance()
    traced = runs_match_references()
    counts_repeat(traced)
    wrong_references()
    print(f"selftest: {len(_failures)} failure(s)")
    return 1 if _failures else 0


if __name__ == "__main__":
    sys.exit(main())
