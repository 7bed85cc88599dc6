"""convspectra benchmark: times the real CLI, one command per fresh process.

Usage (from the repository root):

    python3 bench/run.py --workload existence --seed 1 --seconds 30 --trace 0

Each repetition runs the workload's commands one after another (see
workloads.py) and checks every output against the references in bench/ref
(see oracle.py).  Repetitions continue until --seconds have passed; each
end-to-end metric is the median over repetitions.

--trace 0 reports the end-to-end metrics: wall_s, peak_rss_mb, setup_s.
--trace 1 alternates untraced repetitions with traced ones (bench/tracer.py)
and reports per-layer self times and counts, the untraced per-command wall
times, and the tracing overhead.

Human-readable lines go to stdout first; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.  The exit code is 0
when every command succeeded and matched its reference, 1 when one did not,
and 2 when the benchmark cannot run (for instance, no src/convspectra).
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import oracle
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REF_DIR = BENCH / "ref"

THREADS = min(2, os.cpu_count() or 1)  # BLAS/OpenMP threads per child
SETUP_REPEATS = 11
RUN_DEADLINE_S = 170.0  # children still running past this are killed

CLI = "import sys; from convspectra.cli import main_entry; sys.argv[0] = 'convspectra'; main_entry()"
SETUP = "import sys; from convspectra.cli import load_config\nfor p in sys.argv[1:]: load_config(p)"
PROBE = """import json, os, platform, numpy, convspectra.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
mem = next((l.split()[1] for l in open("/proc/meminfo") if l.startswith("MemTotal")), "?")
print(json.dumps({"nproc": os.cpu_count(), "mem_total_kb": mem,
    "python": platform.python_version(), "numpy": numpy.__version__,
    "blas": f"{blas.get('name')} {blas.get('version')}"}))"""

# per-command metric for each CLI verb
VERB_METRIC = {v: f"{v}_s" for v in ("check", "sample", "spectrum", "qscan", "equipos")}

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
_SPAN_METRICS = (
    "sequences.digits",
    "conditions.equivalence_defect", "conditions.rbc_series", "conditions.pcc_series",
    "conditions.three_series", "conditions.contractivity_report", "conditions.coupled_sample",
    "triples.mod_reduce", "triples.hadamard_check",
    "phases.exact_phase_matrix", "phases.unit_exponentials", "phases.common_denominator",
    "measures.mu_truncate", "measures.fourier_many", "measures.tail_fourier_product",
    "spectra.spectrum_exactness", "spectra.q_eval_many", "spectra.equi_positivity_scan",
    "spectra.build_spectrum",
    "exactmat.invert", "exactmat.product_range", "exactmat.spectral_norm_upper",
    "cli.load_config", "cli.render_report", "cli.command",
)
_COUNT_METRICS = (
    "sequences.level_builds", "sequences.level_rebuilds", "sequences.digits_built",
    "conditions.digits_scanned", "triples.hadamard_entries",
    "phases.entries", "phases.bigint_entries", "phases.subres_zeroed_calls",
    "measures.atoms_built", "measures.fourier_terms", "measures.tail_fourier_product_calls",
    "spectra.scan_terms", "cli.heuristic_verdicts",
)
_BYTE_METRICS = ("spectra.gram_bytes", "spectra.q_phase_bytes", "cli.artifact_bytes")
PER_LAYER = (
    tuple((f"{n}_s", "s") for n in _SPAN_METRICS)
    + tuple((n, "count") for n in _COUNT_METRICS)
    + tuple((n, "bytes_computed") for n in _BYTE_METRICS)
    + tuple((m, "s") for m in VERB_METRIC.values())
    + (("trace.overhead_pct", "%"),)
)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=str(THREADS),
        OMP_NUM_THREADS=str(THREADS),
        MKL_NUM_THREADS=str(THREADS),
    )
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


class Runner:
    """Spawns children one at a time and times each from spawn to exit."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.env = child_env()
        self.deadline = deadline

    def spawn(self, argv, stdout_path: Path):
        """(wall seconds, peak RSS in MB, exit code, stderr text)."""
        err_path = stdout_path.with_suffix(".err")
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            return 0.0, 0.0, -9, "skipped: run deadline reached"
        with open(stdout_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode, err_path.read_text(errors="replace")


@contextlib.contextmanager
def work_dir(tag: str):
    """Scratch directory inside the checkout, removed afterwards."""
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def load_refs(ref_dir: Path, workload: str) -> dict:
    path = ref_dir / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def ref_key(cmd, sample_slot: int) -> str:
    return f"{cmd.key}@{sample_slot}" if cmd.verb == "sample" else cmd.key


class Bench:
    """One workload's commands, configs and references in a work directory.

    With refs=None the outputs are snapshotted into `recorded` instead of
    being compared (see record.py)."""

    def __init__(self, workload: str, scale: str, seed: int, refs: dict | None, work: Path):
        self.workload = workload
        self.work = work
        self.runner = Runner(work, time.perf_counter() + RUN_DEADLINE_S)
        self.cmds = workloads.commands(workload, scale, seed)
        self.slot = seed % workloads.SAMPLE_SLOTS
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.recorded = {}
        self.cfg_paths = []
        for cmd in self.cmds:
            path = work / f"{cmd.key}.json"
            path.write_text(json.dumps(cmd.config, indent=1), encoding="utf-8")
            self.cfg_paths.append(path)

    def cli_argv(self, cmd, cfg: Path, spans: Path | None):
        head = [sys.executable, "-c", CLI] if spans is None else [
            sys.executable, str(BENCH / "tracer.py"), str(spans)]
        # relative paths: the --out path enters the config sha256 in every report
        argv = head + [cmd.verb, "--config", cfg.name]
        if cmd.artifact:
            argv += ["--out", f"{cmd.key}.out"]
        return argv

    def warm(self) -> dict:
        """Compile .pyc files and record the child environment."""
        self.runner.spawn([sys.executable, "-m", "compileall", "-q", str(SRC / "convspectra")],
                          self.work / "compileall.txt")
        _, _, code, err = self.runner.spawn([sys.executable, "-c", PROBE], self.work / "probe.txt")
        if code != 0:
            raise SystemExit(f"bench: cannot import convspectra from {SRC}:\n{err}")
        info = json.loads((self.work / "probe.txt").read_text())
        info["threads"] = THREADS
        return info

    def setup_times(self) -> list:
        argv = [sys.executable, "-c", SETUP] + [p.name for p in self.cfg_paths]
        times = []
        for i in range(SETUP_REPEATS):
            wall, _, code, err = self.runner.spawn(argv, self.work / "setup.txt")
            if code != 0:
                raise SystemExit(f"bench: set-up child failed:\n{err}")
            times.append(wall)
        return times

    def rep(self, traced: bool, verbs=None) -> dict:
        """Run every command (or those of `verbs`) once; returns per-command
        timings and spans."""
        out = {"cmds": [], "spans": []}
        for cmd, cfg in zip(self.cmds, self.cfg_paths):
            if verbs is not None and cmd.verb not in verbs:
                continue
            spans = self.work / f"{cmd.key}.spans.json" if traced else None
            stdout = self.work / f"{cmd.key}.stdout"
            wall, rss, code, err = self.runner.spawn(self.cli_argv(cmd, cfg, spans), stdout)
            self.attempted += 1
            report = stdout.read_text(encoding="utf-8", errors="replace")
            art_path = self.work / f"{cmd.key}.out"
            artifact = art_path.read_text(encoding="utf-8") if cmd.artifact and art_path.exists() else None
            key = ref_key(cmd, self.slot)
            if code != 0:
                errs = [f"exit code {code}: {err.strip()[-500:]}"]
            elif self.refs is None:
                errs = []
                self.recorded[key] = oracle.snapshot(cmd.artifact, report, artifact)
            elif key not in self.refs:
                errs = [f"no reference {key!r}"]
            else:
                errs = oracle.compare(cmd.artifact, self.refs[key], report, artifact)
            if errs:
                self.failed += 1
                print(f"MISMATCH {self.workload}/{key} ({'traced' if traced else 'untraced'}):",
                      file=sys.stderr)
                for e in errs[:8]:
                    print(f"  {e}", file=sys.stderr)
            out["cmds"].append({"key": cmd.key, "verb": cmd.verb, "wall": wall, "rss": rss,
                                "ok": not errs})
            if traced and spans.exists():
                with open(spans, encoding="utf-8") as fh:
                    out["spans"].append(json.load(fh))
                spans.unlink()
            for p in (stdout, art_path):
                if p.exists():
                    p.unlink()
        out["wall"] = sum(c["wall"] for c in out["cmds"])
        out["rss"] = max(c["rss"] for c in out["cmds"])
        return out


def self_times(span_files) -> tuple:
    """Per-span-name (calls, total s, self s), summed over commands; counts."""
    calls, total, own = defaultdict(int), defaultdict(float), defaultdict(float)
    counts = defaultdict(int)
    for data in span_files:
        spans = data["spans"]
        covered = [0.0] * len(spans)
        for name, t0, t1, parent in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        for (name, t0, t1, _), cov in zip(spans, covered):
            calls[name] += 1
            total[name] += t1 - t0
            own[name] += t1 - t0 - cov
        for k, v in data["counts"].items():
            counts[k] += v
    return calls, total, own, counts


def per_command(reps) -> dict:
    """Median over repetitions of each verb's summed wall time."""
    sums = defaultdict(list)
    for r in reps:
        by_verb = defaultdict(float)
        for c in r["cmds"]:
            by_verb[c["verb"]] += c["wall"]
        for verb, wall in by_verb.items():
            sums[VERB_METRIC[verb]].append(wall)
    return {m: statistics.median(v) for m, v in sums.items()}


def spread(values) -> str:
    return f"min {min(values):.4f} max {max(values):.4f}, n={len(values)}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full",
                    help="input sizes; 'tiny' is for the self-test")
    ap.add_argument("--ref-dir", type=Path, default=None,
                    help="reference directory (default bench/ref/<scale>)")
    args = ap.parse_args(argv)
    if args.ref_dir is None:
        args.ref_dir = REF_DIR / args.scale

    if not (SRC / "convspectra" / "cli.py").is_file():
        print(f"bench: no convspectra sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if not (args.ref_dir / f"{args.workload}.json").is_file():
        print(f"bench: no references in {args.ref_dir}", file=sys.stderr)
        return 2

    with work_dir(args.workload) as work:
        return measure(args, work)


def measure(args, work: Path) -> int:
    refs = load_refs(args.ref_dir, args.workload)
    bench = Bench(args.workload, args.scale, args.seed, refs, work)
    info = bench.warm()
    print(f"bench: workload={args.workload} scale={args.scale} seed={args.seed} "
          f"sample_seed={workloads.sample_seed(args.seed)} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in info.items())
          + " PYTHONHASHSEED=0 (OPENBLAS/OMP/MKL_NUM_THREADS=threads)")
    setup = bench.setup_times()

    untraced, traced = [], []
    t_start = time.perf_counter()
    while True:
        untraced.append(bench.rep(traced=False))
        if args.trace:
            traced.append(bench.rep(traced=True))
        if time.perf_counter() - t_start >= args.seconds:
            break
        if time.perf_counter() > bench.runner.deadline - 2 * untraced[-1]["wall"]:
            break

    for i, r in enumerate(untraced, 1):
        print(f"rep {i}: " + " | ".join(
            f"{c['key']} {c['wall']:.3f} s {c['rss']:.0f} MB {'ok' if c['ok'] else 'MISMATCH'}"
            for c in r["cmds"]))

    walls = [r["wall"] for r in untraced]
    rss = [r["rss"] for r in untraced]
    cmd_metrics = per_command(untraced)
    print(f"wall_s = {statistics.median(walls):.4f} s  ({spread(walls)})")
    for name, value in sorted(cmd_metrics.items()):
        print(f"{name} = {value:.4f} s  (per-command wall, median)")
    print(f"peak_rss_mb = {statistics.median(rss):.1f} MB  ({spread(rss)})")
    print(f"setup_s = {statistics.median(setup):.4f} s  ({spread(setup)})")
    print(f"failed_ratio = {bench.failed}/{bench.attempted} = "
          f"{bench.failed / bench.attempted:.4f} ratio")

    if not args.trace:
        values = {"wall_s": statistics.median(walls), "peak_rss_mb": statistics.median(rss),
                  "setup_s": statistics.median(setup)}
        metrics = {n: (values[n], u) for n, u in END_TO_END}
    else:
        values, repeat = traced_metrics(traced, walls, cmd_metrics)
        if not repeat:
            bench.failed += 1
            print("MISMATCH: counts differ between traced repetitions", file=sys.stderr)
        metrics = {n: (values.get(n, 0), u) for n, u in PER_LAYER}

    result = {
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if bench.failed == 0 else 1


def traced_metrics(traced, untraced_walls, cmd_metrics) -> tuple:
    """Per-layer self times (median over traced reps), counts and overhead,
    plus whether the counts repeated exactly across the traced reps."""
    per_rep = [self_times(r["spans"]) for r in traced]
    names = sorted({n for calls, *_ in per_rep for n in calls})
    traced_wall = statistics.median(r["wall"] for r in traced)
    base = statistics.median(untraced_walls)
    print(f"\ntraced per-layer table (median over {len(traced)} traced reps; "
          f"traced wall {traced_wall:.4f} s vs untraced {base:.4f} s)")
    print(f"{'span':38} {'calls':>9} {'total_s':>10} {'self_s':>10} {'self %':>7}")
    metrics = {}
    for n in sorted(names, key=lambda n: -statistics.median(p[2].get(n, 0.0) for p in per_rep)):
        calls = per_rep[0][0].get(n, 0)
        tot = statistics.median(p[1].get(n, 0.0) for p in per_rep)
        own = statistics.median(p[2].get(n, 0.0) for p in per_rep)
        metrics[f"{n}_s"] = own
        print(f"{n:38} {calls:>9} {tot:>10.4f} {own:>10.4f} {100 * own / traced_wall:>6.1f}%")
    outside = traced_wall - sum(metrics.values())
    print(f"{'(outside spans: start-up, imports)':38} {'':>9} {'':>10} {outside:>10.4f} "
          f"{100 * outside / traced_wall:>6.1f}%")
    print("counts (computed in the tracer from arguments and return values):")
    for k, v in sorted(per_rep[0][3].items()):
        metrics[k] = v
        print(f"  {k} = {v}")
    metrics.update(cmd_metrics)
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall / base - 1.0)
    print(f"trace.overhead_pct = {metrics['trace.overhead_pct']:.2f} %")
    return metrics, all(p[3] == per_rep[0][3] for p in per_rep)


if __name__ == "__main__":
    sys.exit(main())
