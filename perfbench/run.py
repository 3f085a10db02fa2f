#!/usr/bin/env python3
"""perfbench — the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--save FILE]
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py compare OLD.jsonl NEW.jsonl

Run from the root of a checkout.  The first call configures and builds the
perfbench CMake project (the repository libraries, irserve and the irbench
program) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the
variable is unset; later calls only re-check the build.  The workload's
stdout is passed through: a `fingerprint {...}` line, report lines, and as
the last line the result {"correct", "attempted", "failed", "metrics"}.
--save appends one JSON record (workload, seed, trace, fingerprint, result)
per run to FILE; `compare` diffs two such files and refuses when their
machine fingerprints differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
FINGERPRINT_KEYS = {"nproc", "cpu", "compiler", "simd", "simd_compiled", "l2_kb",
                    "l3_kb", "build_type", "ir_telemetry"}
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Configure (once) and build irbench + irserve; returns the build dir."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "irbench", "irserve"])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return out


def parse_output(stdout):
    """(fingerprint dict, result dict) from irbench's stdout."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    fingerprint = None
    for line in lines:
        if line.startswith("fingerprint "):
            fingerprint = json.loads(line[len("fingerprint "):])
    result = json.loads(lines[-1]) if lines else None
    return fingerprint, result


def run_workload(out, workload, seed, seconds, trace, quick=False):
    """Run irbench once; returns (exit code, stdout)."""
    work = os.path.join(out, "work")
    traces = os.path.join(out, "traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(traces, exist_ok=True)
    cmd = [os.path.join(out, "irbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--irserve", os.path.join(out, "irserve"), "--work-dir", work]
    if trace:
        cmd += ["--trace-file", os.path.join(traces, f"{workload}-seed{seed}.json")]
    if quick:
        cmd.append("--quick")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return 2, ""
    return done.returncode, done.stdout


def load_benchmark_json():
    with open(BENCHMARK_JSON) as f:
        return json.load(f)


# --- self-check ---------------------------------------------------------------

def check_result(spec, workload, trace, code, stdout):
    """List of problems with one quick run's output."""
    problems = []
    if code != 0:
        return [f"{workload} trace={trace}: exit code {code}"]
    fingerprint, result = parse_output(stdout)
    if fingerprint is None or set(fingerprint) != FINGERPRINT_KEYS:
        problems.append(f"{workload}: fingerprint line missing or incomplete: {fingerprint}")
    if result is None or set(result) != RESULT_KEYS:
        return problems + [f"{workload} trace={trace}: last line is not a result"]
    if result["correct"] is not True or result["attempted"] < 1:
        problems.append(f"{workload} trace={trace}: correct={result['correct']} "
                        f"attempted={result['attempted']}")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = result["metrics"]
    if set(metrics) != {m["name"] for m in wanted}:
        problems.append(f"{workload} trace={trace}: metric names differ: "
                        f"{sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            problems.append(f"{workload}: {m['name']} = {got}, want unit {m['unit']}")
        elif not trace and not got["value"] > 0:
            problems.append(f"{workload}: end-to-end {m['name']} is {got['value']}")
    return problems


def describe(out):
    done = subprocess.run([os.path.join(out, "irbench"), "--describe"],
                          stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout)


def why_problems(spec, table):
    """BENCHMARK.json's `why` lines must state the settings irbench runs with."""
    problems = []
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    for w in table["workloads"]:
        why = whys.get(w["name"])
        if why is None:
            problems.append(f"{w['name']}: missing from BENCHMARK.json")
            continue
        wanted = [f"tail p{round(w['tail_q'] * 100)}", f"limit {w['limit_ms']:g} ms"]
        if w["open_rps"] > 0:
            wanted.append(f"{w['open_rps']:g}/s")
        if w["rel_tol"] > 0:
            wanted.append(f"tolerance {w['rel_tol']:g}")
        problems += [f"{w['name']}: why does not say '{s}'" for s in wanted if s not in why]
    units = [{"name": m["name"], "unit": m["unit"]} for m in spec["per_layer"]]
    if units != table["per_layer"]:
        problems.append("BENCHMARK.json per_layer differs from irbench's list")
    return problems


def self_check():
    """Every workload at small sizes, untraced and traced: every metric named
    in BENCHMARK.json is emitted with its unit, and every output is correct."""
    spec = load_benchmark_json()
    out = build()
    problems = why_problems(spec, describe(out))
    for w in spec["workloads"]:
        for trace in (False, True):
            code, stdout = run_workload(out, w["name"], 1, 2, trace, quick=True)
            found = check_result(spec, w["name"], trace, code, stdout)
            log(f"self-check {w['name']} trace={int(trace)}: "
                f"{'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        log(problem)
    log("self-check passed" if not problems else f"self-check: {len(problems)} problem(s)")
    return 0 if not problems else 1


# --- compare ------------------------------------------------------------------

def load_records(path):
    records = []
    with open(path) as f:
        for line in f:
            if line.strip():
                records.append(json.loads(line))
    return records


def compare(old_path, new_path, out=sys.stdout):
    """Median per (workload, metric) of two record files.  Refuses (exit 3)
    unless every record on both sides carries one identical fingerprint."""
    old, new = load_records(old_path), load_records(new_path)
    prints = {json.dumps(r.get("fingerprint"), sort_keys=True) for r in old + new}
    if len(prints) != 1 or None in (r.get("fingerprint") for r in old + new):
        print("compare: refusing to diff results from different machines or builds:",
              file=sys.stderr)
        for p in sorted(prints):
            print(f"  {p}", file=sys.stderr)
        return 3
    bounds, better = {}, {}
    if os.path.exists(BENCHMARK_JSON):
        spec = load_benchmark_json()
        for m in spec["end_to_end"]:
            bounds[m["name"]], better[m["name"]] = m["bound"], m["better"]
        for m in spec["per_layer"]:
            better[m["name"]] = m["better"]

    def medians(records):
        values = {}
        for r in records:
            for name, metric in r["result"]["metrics"].items():
                values.setdefault((r["workload"], name), []).append(metric["value"])
        return {key: statistics.median(v) for key, v in values.items()}

    before, after = medians(old), medians(new)
    worse_count = 0
    print(f"{'workload':<14} {'metric':<28} {'old':>14} {'new':>14} {'change':>9}  verdict",
          file=out)
    for key in sorted(set(before) & set(after)):
        a, b = before[key], after[key]
        change = (b - a) / a if a else 0.0
        verdict = ""
        bound = bounds.get(key[1])
        if bound is not None:
            worse = change > bound if better.get(key[1]) == "lower" else change < -bound
            verdict = f"WORSE than bound {bound:g}" if worse else "within bound"
            worse_count += worse
        print(f"{key[0]:<14} {key[1]:<28} {a:>14.6g} {b:>14.6g} {change:>+8.1%}  {verdict}",
              file=out)
    return 1 if worse_count else 0


# --- main ---------------------------------------------------------------------

def main(argv):
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare OLD.jsonl NEW.jsonl", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description="perfbench: the repository benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="append a JSON record of this run to FILE")
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload at small sizes and check every metric")
    args = parser.parse_args(argv)
    try:
        if args.self_check:
            return self_check()
        if not args.workload:
            parser.error("--workload is required")
        out = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as error:
        log(str(error))
        return 1
    code, stdout = run_workload(out, args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(stdout)
    sys.stdout.flush()
    if args.save and code in (0, 1) and stdout.strip():
        fingerprint, result = parse_output(stdout)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "fingerprint": fingerprint, "result": result}
        with open(args.save, "a") as f:
            f.write(json.dumps(record) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
