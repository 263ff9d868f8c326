"""pimfilter benchmark: host speed and simulated cycles on seeded workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dense-r100 --seed 1 --seconds 30 --trace 0

Each run generates its workload's inputs from the seed, then starts fresh
single-threaded worker processes (perfbench/worker.py) that import
pimfilter from `src`. With `--trace 0` it times set-up in several fresh
processes and filter calls in one more, with tracing off, and reports the
end-to-end metrics. Filter-call times are given at reference host speed
(see worker.HostSpeed), because the speed of a shared host drifts by up
to 2x within a run; the raw times are printed and kept as well. With
`--trace 1` it wraps the calls into each module and reports per-layer
self times and counts. Every run checks its outputs against the golden
model, the soundness rule and the statistics pinned in
perfbench/pins.json; the traced run also checks the CLI. It prints one
line per metric, then one JSON object as the last line, and keeps a copy
of the result, with the environment, under perfbench-out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracing import percentile
from workloads import WORKLOADS, generate, write_inputs

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5        # fresh processes timed for setup_s before and again after the calls
WORKER_TIMEOUT_S = 150


def environment(root):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "git_commit": git_commit(root)}


def git_commit(root):
    """HEAD of the checkout's own .git, without looking in parent directories."""
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def worker_cmd(mode, workdir, name, *rest):
    return [sys.executable, str(HERE / "worker.py"), mode, str(workdir), name, *map(str, rest)]


def setup_seconds(root, workdir, name):
    """Seconds from starting each of SETUP_PROBES fresh processes to its set-up being done.

    These are raw host times: set-up is mostly process start and imports,
    which slow down less than the snippet HostSpeed times when the host
    is busy, so scaling them would overcorrect.
    """
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.monotonic()
        out = subprocess.run(worker_cmd("setup", workdir, name), env=worker_env(root),
                             capture_output=True, text=True, check=True,
                             timeout=WORKER_TIMEOUT_S).stdout
        samples.append(float(out.split()[-1]) - start)
    return samples


def run_worker(root, workdir, mode, name, seconds):
    subprocess.run(worker_cmd(mode, workdir, name, seconds), env=worker_env(root),
                   check=True, timeout=WORKER_TIMEOUT_S)
    return json.loads((workdir / "result.json").read_text())


def end_to_end(res, setup_samples):
    """End-to-end metrics; call times are at reference speed (see worker.HostSpeed).

    locations_per_s is the median over complete passes through the
    workload's calls of the candidates in a pass over the pass's time.
    """
    samples_ms = [s * 1e3 for s in res["scaled"]]
    p = res["pass"]
    processed = p.get("processed", 0)
    return {
        "locations_per_s": (p["queued"] / statistics.median(res["pass_s"]), "1/s"),
        "batch_ms_p50": (statistics.median(samples_ms), "ms"),
        "batch_ms_p90": (percentile(samples_ms, 90), "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "compute_cycles_per_location": (p["compute_cycles"] / processed, "cycles"),
        "total_cycles_per_location": (
            (p["compute_cycles"] + p["init_cycles"]) / processed, "cycles"),
        "discard_rate": (p["discarded"] / processed, "ratio"),
        "decided_rate": (processed / p["queued"], "ratio"),
        "modeled_total_s": (res["modeled_total_s"], "s"),
    }


def pin_drift(pin, name, seed):
    """Pinned fields whose value differs from this run's, or None if unpinned."""
    pins = json.loads((HERE / "pins.json").read_text())
    want = pins.get(name, {}).get(str(seed))
    if want is None:
        return None
    return sorted(k for k in pin if k in want and pin[k] != want[k])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "pimfilter" / "__init__.py").is_file():
        print("error: run from the root of a pimfilter checkout (no src/pimfilter here)",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    env = environment(root)
    out_dir = root / "perfbench-out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}"

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=root) as tmp:
        workdir = Path(tmp)
        write_inputs(generate(w, args.seed), workdir)
        if args.trace:
            res = run_worker(root, workdir, "trace", w.name, args.seconds)
            metrics = res["metrics"]
            extra = {"step_table": res["step_table"], "untraced_walls": res["untraced_walls"]}
            shutil.copy(workdir / "spans.jsonl", out_dir / f"{stem}-spans.jsonl")
        else:
            setup_samples = setup_seconds(root, workdir, w.name)
            res = run_worker(root, workdir, "run", w.name, args.seconds)
            setup_samples += setup_seconds(root, workdir, w.name)
            metrics = end_to_end(res, setup_samples)
            extra = {"setup_samples_s": setup_samples, "batch_samples_s": res["samples"],
                     "host_speed": res["speed"],
                     "raw": {"locations_per_s": res["located"] / res["elapsed_s"],
                             "batch_ms_p50": statistics.median(res["samples"]) * 1e3}}

    env["numpy"] = res["numpy"]
    failures = dict(res["failures"])
    drift = pin_drift(res["pin"], w.name, args.seed)
    if drift:
        failures["pin_drift"] = w.calls * w.per_call
    attempted = res["attempted"]
    failed = min(attempted, sum(failures.values()))

    print(f"workload {w.name} seed {args.seed} trace {args.trace}: {w.why}")
    print("environment " + json.dumps(env))
    if args.trace:
        print(f"{'step':>6} {'budget':>7} {'max':>6} {'mean':>9} {'init max':>9} {'slack':>6}")
        for label, row in res["step_table"].items():
            print(f"{label:>6} {row['budget']:>7} {row['compute_max']:>6} "
                  f"{row['compute_mean']:>9.2f} {row['init_max']:>9} {row['slack']:>6}"
                  + ("  OVER BUDGET" if row["slack"] < 0 else ""))
    else:
        print(f"batch samples {len(res['samples'])}, setup probes {2 * SETUP_PROBES}; "
              f"host speed {res['speed']:.3f} of reference; raw host times "
              + ", ".join(f"{k} {v:.6g}" for k, v in extra["raw"].items()))
    for name, (value, unit) in metrics.items():
        print(f"{name:<34} {value:>16.6f} {unit}")
    if not args.trace:
        # 1 - decided_rate; not a bounded metric because it is 0 wherever the cap is off
        p = res["pass"]
        print(f"{'passthrough_rate':<34} {p['passthrough'] / p['queued']:>16.6f} ratio")
    print(f"failed_fraction {failed / attempted:.6f} ({failed} of {attempted}); "
          f"failures {json.dumps(failures)}; "
          f"pins {'not recorded for this seed' if drift is None else drift or 'match'}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {**result, "workload": w.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": env, "failures": failures,
              "pin": res["pin"], **extra}
    (out_dir / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
