#!/usr/bin/env python3
"""Repository benchmark entry point (see perfbench/METRICS.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds the CircuitGPS libraries and the cgps_perfbench program from this
checkout (CMake, into $CARGO_TARGET_DIR or .bench_build), runs one workload,
checks that its result carries every metric BENCHMARK.json names for the
mode, and prints that result as the last line of stdout. Build logs and
progress go to stderr. A build failure or a malformed result exits non-zero
without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_interactive", "serve_bulk_screen", "train_fewshot")
RUN_TIMEOUT_S = 170


def log(message):
    print("[run.py] " + message, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def child_env(build):
    """The caller's environment minus every CircuitGPS knob: cgps_perfbench
    pins its own configuration, and nothing inherited may change it."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CIRCUITGPS_") and not k.startswith("CGPS_")}
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def build():
    """Configure (once per build directory) and build cgps_perfbench."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    env = child_env(out)
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if "CMAKE_HOME_DIRECTORY:INTERNAL=" + HERE + "\n" not in f.read():
                shutil.rmtree(out)
                os.makedirs(out)
                env = child_env(out)
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", out, "--target", "cgps_perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env).returncode:
        return None
    binary = os.path.join(out, "cgps_perfbench")
    return binary if os.path.exists(binary) else None


def expected_metrics(trace):
    """{name: unit} of the mode's metrics, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    """Run one workload; returns (parsed result, raw last line) or (None, None)."""
    run_dir = os.path.join(os.path.dirname(binary), "runs",
                           "%s-%d-%d-%d" % (workload, seed, trace, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--run-dir", run_dir] + list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              env=child_env(os.path.dirname(binary)), cwd=run_dir,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
        return None, None
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("%s exited with status %d" % (workload, proc.returncode))
        return None, None
    try:
        return json.loads(lines[-1]), lines[-1]
    except ValueError:
        log("%s printed no JSON result" % workload)
        return None, None


def validate(result, trace):
    """Problems with a result's shape; an empty list means it is well formed."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("keys are %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append("%s is not a count" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("nothing was attempted")
    want = expected_metrics(trace)
    got = result["metrics"]
    if sorted(got) != sorted(want):
        problems.append("metrics differ from BENCHMARK.json: missing %s, extra %s" %
                        (sorted(set(want) - set(got)), sorted(set(got) - set(want))))
    for name, unit in want.items():
        m = got.get(name)
        if m is None:
            continue
        if not isinstance(m.get("value"), (int, float)) or isinstance(m.get("value"), bool):
            problems.append("%s has no numeric value" % name)
        if m.get("unit") != unit:
            problems.append("%s has unit %r, not %r" % (name, m.get("unit"), unit))
    return problems


def self_test(binary):
    """Minimal passes of every workload in both modes must carry every metric
    with its unit and check out clean; with one reply corrupted, the run must
    count a failed operation and report itself incorrect."""
    ok = True
    for workload in WORKLOADS:
        for trace, corrupt in ((0, False), (1, False), (0, True)):
            extra = ["--corrupt"] if corrupt else []
            result, _ = run_binary(binary, workload, 7, 0.25, trace, extra)
            label = "%s trace=%d%s" % (workload, trace, " corrupted" if corrupt else "")
            if result is None:
                log("FAIL %s: no result" % label)
                ok = False
                continue
            problems = validate(result, trace)
            if corrupt and (result["failed"] < 1 or result["correct"]):
                problems.append("the corrupted reply was not counted as failed")
            if not corrupt and (result["failed"] != 0 or not result["correct"]):
                problems.append("a clean run reported failures")
            log("%s %s: attempted %d, failed %d, %d metrics%s" %
                ("ok  " if not problems else "FAIL", label, result["attempted"],
                 result["failed"], len(result["metrics"]),
                 "" if not problems else " -- " + "; ".join(problems)))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if binary is None:
        log("build failed")
        return 1
    if args.self_test:
        return self_test(binary)
    result, line = run_binary(binary, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    problems = validate(result, args.trace)
    if problems:
        log("malformed result: " + "; ".join(problems))
        return 1
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
