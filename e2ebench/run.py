#!/usr/bin/env python3
"""Runs one workload of the flexvis end-to-end benchmark.

    python3 e2ebench/run.py --workload explore-100k --seed 7 --seconds 45 --trace 0

Run from the root of a checkout. It builds the library and the workload
workload program from source (CMake, Release) into .bench_build/, pins
the environment, runs the workload, checks its outputs, and prints every metric
with its unit. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics (from a traced run). See README.md
beside this file for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("explore-100k", "ingest-sharded")
BUILD_TYPE = "Release"
# Worker pool size; with at most two client threads per workload this
# stays within a 4-CPU machine.
THREADS = "2"
FLUSH_POLICY = ("journal fsync per shard per tick (DurableStore::Flush); "
                "compaction every 16 global ticks; snapshot files fsynced then renamed")
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def pinned_env():
    """The environment every run sees: every FLEXVIS_* knob cleared, the
    worker pool pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FLEXVIS_")}
    env["FLEXVIS_THREADS"] = THREADS
    return env


def run_quiet(cmd, timeout, env=None):
    """Runs `cmd` with its output on stderr; kills its process group on
    timeout. Returns the exit code (None on timeout)."""
    proc = subprocess.Popen(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        code = run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE] + generator, timeout=300)
        if code != 0:
            return False
    code = run_quiet(["cmake", "--build", build_dir, "-j", "3"], timeout=800)
    return code == 0


def source_digest():
    """SHA-256 over the library sources, for provenance when the checkout is
    not a git repository."""
    digest = hashlib.sha256()
    for base in ("src", "e2ebench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, base))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        return "none (git unavailable)"


def filesystem_of(path):
    """(mount point, type) of the filesystem holding `path`."""
    path = os.path.realpath(path)
    best = ("?", "?")
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1].replace("\\040", " ")
                inside = path == mount or path.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best[0].replace("?", "")):
                    best = (mount, parts[2])
    except OSError:
        pass
    return best


def check_exact(workload, seed, digest, exact):
    """Counts that must repeat exactly for a seed: compared with the first
    run of the same workload and seed on the same sources (`digest`) in this
    checkout. Returns the names that drifted."""
    directory = os.path.join(ROOT, ".bench_out", "exact")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "%s-seed%d-%s.json" % (workload, seed, digest))
    if os.path.exists(path):
        with open(path) as f:
            recorded = json.load(f)
        return sorted(k for k in set(recorded) | set(exact) if recorded.get(k) != exact.get(k))
    with open(path, "w") as f:
        json.dump(exact, f, indent=1, sort_keys=True)
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("error: no flexvis sources under %s/src; run from a full checkout" % ROOT)
        return 2
    with open(spec_path) as f:
        spec = json.load(f)

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "e2ebench")
    if not build(build_dir):
        log("error: build failed")
        return 1
    env = pinned_env()
    if run_quiet([os.path.join(build_dir, "stats_selftest")], timeout=30, env=env) != 0:
        log("error: statistics self-test failed")
        return 1

    work = os.path.join(ROOT, ".bench_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.dirname(work), exist_ok=True)
    trace_out = os.path.join(out_dir, "trace-%s-seed%d.json" % (args.workload, args.seed))
    cmd = [os.path.join(build_dir, "flexvis_e2e"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", work]
    if args.trace:
        cmd += ["--trace-out", trace_out]

    started = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, env=env, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log("error: workload exceeded %ds" % RUN_TIMEOUT_S)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        log("error: workload program exited with %s" % proc.returncode)
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    failed = int(result["failed"])
    attempted = int(result["attempted"])
    digest = source_digest()
    drifted = check_exact(args.workload, args.seed, digest, result["exact"])
    for name in drifted:
        log("FAIL: %s drifted from an earlier run of this seed" % name)
    failed += len(drifted)
    attempted += len(result["exact"])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        got = result["metrics"].get(metric["name"])
        if got is None or got["unit"] != metric["unit"]:
            log("FAIL: metric %s missing or in the wrong unit" % metric["name"])
            failed += 1
            continue
        metrics[metric["name"]] = {"value": got["value"], "unit": metric["unit"]}

    mount, fstype = filesystem_of(os.path.dirname(work))
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "source_digest": digest,
        "build_type": BUILD_TYPE, "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "env": {k: env.get(k, "") for k in (
            "FLEXVIS_THREADS", "FLEXVIS_FAULTS", "FLEXVIS_SHARDS", "FLEXVIS_COMPACT_TICKS",
            "FLEXVIS_COMPACT_BYTES", "FLEXVIS_FORECASTER", "FLEXVIS_BIDDING")},
        "pool_threads": result.get("threads"),
        "reference_kernel_s": result.get("reference_s"),
        "time_scale": result.get("time_scale"),
        "flush_policy": FLUSH_POLICY,
        "checkpoint_fs": "%s on %s" % (fstype, mount),
        "error_ratio": failed / attempted if attempted else 1.0,
        "wall_s": round(time.monotonic() - started, 3),
    }
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, metric in metrics.items():
        print("metric %-28s %16.6g %s" % (name, metric["value"], metric["unit"]))
    print(json.dumps({"correct": bool(result["correct"]) and failed == 0,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
