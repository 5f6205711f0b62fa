#!/usr/bin/env python3
r"""End-to-end serving benchmark for ripple's ModelServer.

Run from the repository root:

    python3 perfbench/run.py --workload edge-forecast --seed 1 --seconds 40 \
        --trace 0

Builds the repository's library and the load generator
(perfbench/serve_load.cpp) from source into $CARGO_TARGET_DIR (default
.bench_build), writes the workload's fixture artifacts from the seed, then
runs the workload in its own process.
With --trace 0 the last stdout line carries the end-to-end metrics named in
BENCHMARK.json; with --trace 1 an untraced and a traced phase run and the
line carries the per-layer metrics, merged with replays timed in child
processes at RIPPLE_THREADS=1 and =nproc. Exits non-zero, without a result
line, when the build fails, the run is invalid (host steal, generator
lateness, growing backlog, too few samples) on every attempt that fits the
deadline, or a response differs from its oracle.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 170.0  # whole run, build excluded


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    binary = os.path.join(build_dir, "serve_load")
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", build_dir, "--target", "serve_load",
                    "-j", jobs], check=True, stdout=sys.stderr, timeout=850)
    return binary


def run_child(cmd, start, env=None):
    left = DEADLINE_S - (time.monotonic() - start)
    if left <= 5:
        raise RuntimeError("out of time before: " + " ".join(cmd))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=left, env=env)
    return proc.returncode, proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    # Workloads are defined in serve_load.cpp, which rejects unknown names;
    # BENCHMARK.json lists the ones steady enough to gate on.
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                 or os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(os.path.join(build_root, "perfbench"))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return 2

    start = time.monotonic()
    out_dir = os.path.join(build_root, "perfbench-runs",
                           f"{args.workload}-{args.seed}-{args.trace}")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--dir", out_dir]
    try:
        code, _ = run_child([binary, "fixtures"] + common, start)
        if code != 0:
            log("fixture build failed")
            return 2
        # An invalid run (exit 3: host steal, generator lateness, backlog,
        # too few samples) reports nothing; it is run again, same seed, while
        # another attempt of the same length still fits the deadline.
        for attempt in range(1, 100):
            began = time.monotonic()
            code, lines = run_child(
                [binary, "serve", "--seconds", str(args.seconds),
                 "--trace", str(args.trace)] + common, start)
            for line in lines[:-1]:
                if not line.startswith("context: "):
                    log(line)
            took = time.monotonic() - began
            if (code != 3 or time.monotonic() - start + 1.2 * took
                    > DEADLINE_S - 10):
                break
            log(f"attempt {attempt} invalid; running the workload again")
        if code not in (0, 1) or not lines or not lines[-1].startswith("{"):
            log(f"serve run failed or invalid (exit {code})")
            return 3
        result = json.loads(lines[-1])
        if not args.trace:
            # setup_s: median over the serving process's set-up and the
            # repetitions run in a process of their own.
            rc, slines = run_child([binary, "setup"] + common, start)
            if rc != 0 or not slines:
                log("set-up repetitions failed")
                return 3
            setups = [result["metrics"]["setup_s"]["value"]]
            setups += json.loads(slines[-1])
            result["metrics"]["setup_s"]["value"] = statistics.median(setups)
            log(f"  setup_s over {len(setups)} set-ups: "
                + " ".join(f"{v:.4f}" for v in setups))
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        context = lines[-2] if len(lines) > 1 else ""
        if args.trace:
            nproc = os.cpu_count() or 1
            for threads, suffix in ((1, "t1"), (nproc, "tN")):
                env = dict(os.environ, RIPPLE_THREADS=str(threads))
                extra = ["--full"] if suffix == "tN" else []
                rc, rlines = run_child([binary, "replay"] + common + extra,
                                       start, env)
                if rc != 0 or not rlines:
                    log(f"replay at RIPPLE_THREADS={threads} failed")
                    return 3
                replay = json.loads(rlines[-1])
                for name, m in replay.items():
                    if name == "session.replay_us":
                        name = f"session.replay_us.{suffix}"
                    result["metrics"][name] = m
                    units[name] = m["unit"]
    except (subprocess.TimeoutExpired, RuntimeError) as e:
        log(f"run aborted: {e}")
        return 3

    metrics = {}
    for m in wanted:
        if m["name"] not in result["metrics"]:
            log(f"metric {m['name']} missing from the run")
            return 3
        if units[m["name"]] != m["unit"]:
            log(f"metric {m['name']} has unit {units[m['name']]}, "
                f"BENCHMARK.json says {m['unit']}")
            return 3
        metrics[m["name"]] = result["metrics"][m["name"]]
    for name, m in result["metrics"].items():
        log(f"  {name:30s} {m['value']:.6g} {m['unit']}")
    print(context)
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
