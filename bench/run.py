"""tempex benchmark: one command, three workloads, every metric by name.

    python3 bench/run.py --workload learned_hmm --seed 0 --seconds 25 --trace 0

Run from the repository root. The package is imported from `src/` of the
same checkout. With `--trace 0` the run prints the end-to-end metrics; with
`--trace 1` it wraps tempex's public functions, records spans and prints
the per-layer metrics instead. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

Set-up (import, input generation, classifier training) is repeated and its
median reported as `setup_s`. The timed call is repeated while the next
repetition still fits in `--seconds`; the throughput is the median over
repetitions. Results of each (code, workload, seed) are kept under
`.bench_out/` so a later run with the same seed checks that AUP, AUR and
the output digest repeat bitwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("learned_hmm", "occlusion_icu", "fold_hmm")

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import tempex.cli; "
                 "print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-benchmark-json", action="store_true",
                   help="write BENCHMARK.json at the repository root and "
                        "exit")
    args = p.parse_args(argv)
    if not args.write_benchmark_json and args.workload is None:
        p.error("--workload is required")
    return args


class Ledger:
    """Operations attempted and failed; a failure keeps its traceback."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, name, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception:  # the run must finish and report the failure
            self.fail(f"{name}: {traceback.format_exc()}")
            return None

    def fail(self, message):
        self.failed += 1
        self.problems.append(message)


def import_seconds():
    """Time to import the CLI and everything under it, in a fresh
    interpreter, so the figure includes numpy and scipy."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT,
                         env=env, capture_output=True, text=True,
                         timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def source_digest():
    """Digest of the package and the benchmark sources: a run of other code
    is not a repetition."""
    h = hashlib.sha256()
    for folder in (os.path.join(SRC, "tempex"), HERE):
        for name in sorted(os.listdir(folder)):
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment():
    import numpy as np
    import scipy

    sha = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    threads = {k: os.environ[k] for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
               if k in os.environ}
    return {
        "git_sha": sha,
        "code_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": threads or "unset (library default)",
    }


def check_repeat(ledger, record_path, key, outcome):
    """Compare against an earlier run of the same code, workload and seed;
    store the outcome the first time."""
    record = {"aup": outcome.aup, "aur": outcome.aur,
              "digest": outcome.digest}
    seen = {}
    if os.path.exists(record_path):
        with open(record_path) as fh:
            seen = json.load(fh)
    if key in seen:
        if seen[key] != record:
            ledger.fail(f"repeat: {key} gave {record}, earlier {seen[key]}")
        return
    seen[key] = record
    tmp = record_path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    os.replace(tmp, record_path)


def measure(args, sizes, out_dir, spec_names):
    """Run one workload; returns the ledger, the metrics as
    {name: (value, unit)} and the extra figures printed beside them."""
    import layers
    import workloads
    from spans import Tracer

    wl = workloads.make(args.workload, sizes, out_dir)
    ledger = Ledger()
    tracer = Tracer()
    try:
        imports = [import_seconds() for _ in range(sizes.import_repeats)]
        setups, prints, state = [], [], None
        for i in range(sizes.setup_repeats):
            if args.trace and i == sizes.setup_repeats - 1:
                tracer.install(layers.TARGETS)
            t0 = time.perf_counter()
            state = ledger.op("setup", lambda: wl.setup(args.seed))
            setups.append(time.perf_counter() - t0)
            if state is None:
                break
            prints.append(wl.fingerprint(state))
        if len(set(prints)) > 1:
            ledger.fail("setup: repeated set-ups differ")

        durations, outcomes = [], []
        begin = time.perf_counter()
        while state is not None:
            t0 = time.perf_counter()
            outcome = ledger.op("call", lambda: wl.call(state))
            took = time.perf_counter() - t0
            if outcome is None:
                break
            durations.append(took)
            outcomes.append(outcome)
            # one call per traced run: its spans describe one set-up and
            # one call
            if args.trace or time.perf_counter() - begin + took > \
                    args.seconds:
                break
    finally:
        tracer.uninstall()

    for other in outcomes[1:]:
        if (other.aup, other.aur, other.digest) != \
                (outcomes[0].aup, outcomes[0].aur, outcomes[0].digest):
            ledger.fail("call: repetitions in one run differ")
    if outcomes:
        key = f"{source_digest()}:{args.workload}:{args.seed}:{sizes}"
        check_repeat(ledger, os.path.join(out_dir, "repeats.json"), key,
                     outcomes[0])
    if not outcomes:
        return ledger, {}, {}

    first = outcomes[0]
    info = {"calls": len(outcomes),
            "call_s": [round(d, 4) for d in durations],
            "samples": first.samples, "aup": first.aup, "aur": first.aur,
            "digest": first.digest[:16], **first.info}
    rate = statistics.median(o.work / d for o, d in zip(outcomes, durations))
    if args.trace:
        tracer.write(os.path.join(
            out_dir, f"spans_{args.workload}_{args.seed}.jsonl"))
        found = layers.per_layer_metrics(tracer)
        found["trace.samples_per_s"] = (rate, "1/s")
        if tracer.missing:
            info["unwrapped"] = tracer.missing
    else:
        found = {
            "setup_s": (statistics.median(imports)
                        + statistics.median(setups), "s"),
            "samples_per_s": (rate, "1/s"),
            "aup": (first.aup, "area"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
        info["import_s"] = imports
        info["setup_repeats_s"] = [round(s, 4) for s in setups]
    mismatch = set(spec_names) ^ set(found)
    if mismatch:
        ledger.fail(f"metrics: names differ from the spec: {sorted(mismatch)}")
    return ledger, found, info


def main(argv=None, sizes=None, out_dir=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tempex", "__init__.py")):
        print(f"bench: no tempex sources under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import spec
    if args.write_benchmark_json:
        spec.write(os.path.join(ROOT, "BENCHMARK.json"))
        return 0

    import tempex
    if os.path.dirname(os.path.abspath(tempex.__file__)) != \
            os.path.join(SRC, "tempex"):
        print(f"bench: imported tempex from {tempex.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    sizes = sizes or workloads.FULL
    out_dir = out_dir or os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)

    names = [n for n, *_ in (spec.PER_LAYER if args.trace
                             else spec.END_TO_END)]
    ledger, found, info = measure(args, sizes, out_dir, names)
    for name, (value, unit) in found.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    if info:
        wall = "fold_s" if args.workload == "fold_hmm" else "call_s"
        print(f"{args.workload}  {wall} = "
              f"{statistics.median(info['call_s']):.6g} s")
        print(f"{args.workload}  aur = {info['aur']:.6g} area")
    attempted = max(ledger.attempted, 1)
    print(f"{args.workload}  failed_fraction = {ledger.failed / attempted:g}")
    print("info " + json.dumps(info, default=str))
    print("env " + json.dumps(environment()))
    for problem in ledger.problems:
        print(f"bench: {problem}", file=sys.stderr)
    correct = ledger.failed == 0 and bool(found)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": ledger.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in found.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
