#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_driver from source, runs one
workload, checks its outputs against the goldens stored with the benchmark
and prints every metric by name and unit. The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload figure_matrix --seed 1 \
        --seconds 20 --trace 0

--trace 0 reports the end-to-end metrics (BENCHMARK.json "end_to_end");
--trace 1 runs the workload half untraced, half traced, and reports the
per-layer metrics (BENCHMARK.json "per_layer"), writing the spans as Chrome
trace-event JSON to .bench_build/traces/<workload>-seed<n>.json.
BENCHMARK.json names every workload and metric with its unit;
metrics.json adds, per per-layer metric, where it is measured and what it
should move.

--workload all runs the three workloads in turn (the result line then
prefixes each metric with its workload). --tiny runs the self-check size;
--write-goldens regenerates goldens/ from the current sources (review the
diff: goldens pin modelled numbers, so any change there is a behaviour
change).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_predictions():
    """metrics.json: per workload its thread plan and seed use; per group
    of per-layer metrics the workloads it is measured on and what it moves."""
    with open(os.path.join(HERE, "metrics.json")) as f:
        return json.load(f)


def measured_on():
    """Per-layer metric name -> the workloads whose traced run measures it."""
    return {name: set(g["measured_on"]) for g in load_predictions()["per_layer"]
            for name in g["metrics"]}


def build_driver():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("repository sources (src/) not found next to perfbench/")
    out = os.path.join(build_dir(), "perfbench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench_driver", "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, "perfbench_driver")


def run_driver(driver, workload, seed, seconds, trace, tiny):
    """Runs one workload; returns (result dict, trace path or None)."""
    bdir = build_dir()
    os.makedirs(os.path.join(bdir, "results"), exist_ok=True)
    out = os.path.join(bdir, "results", f"{workload}-seed{seed}-trace{int(trace)}.json")
    cmd = [driver, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", out]
    trace_path = None
    if trace:
        os.makedirs(os.path.join(bdir, "traces"), exist_ok=True)
        trace_path = os.path.join(bdir, "traces", f"{workload}-seed{seed}.json")
        cmd += ["--trace-file", trace_path]
    if tiny:
        cmd.append("--tiny")
    if os.path.exists(out):
        os.remove(out)
    subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
    with open(out) as f:
        return json.load(f), trace_path


def golden_mismatches(result):
    """Ops whose checked outputs differ from goldens/<workload>.json, one
    entry per op (a record stands for "count" ops with identical output)."""
    path = os.path.join(HERE, "goldens", result["workload"] + ".json")
    if not os.path.isfile(path):
        return []
    with open(path) as f:
        golden = json.load(f)["outputs"]
    bad = []
    for rec in result["records"]:
        want = golden.get(rec["key"])
        if want != rec["fields"]:
            diff = sorted(k for k in set(want or {}) | set(rec["fields"])
                          if (want or {}).get(k) != rec["fields"].get(k))
            bad += [f"{rec['key']}: {', '.join(diff) if want else 'no golden'}"] * rec["count"]
    return bad


def select_metrics(result, trace):
    """The declared metrics for this mode; raises if a measured one is missing."""
    workload = result["workload"]
    got = result["metrics"]
    out = {}
    entries = load_benchmark()["per_layer" if trace else "end_to_end"]
    where = measured_on() if trace else {}
    for m in entries:
        name = m["name"]
        if name in got:
            if got[name]["unit"] != m["unit"]:
                raise RuntimeError(f"{name}: unit {got[name]['unit']} != {m['unit']}")
            out[name] = {"value": got[name]["value"], "unit": m["unit"]}
        elif trace and workload not in where.get(name, ()):
            # The layer does no work on this workload.
            out[name] = {"value": 0, "unit": m["unit"]}
        else:
            raise RuntimeError(f"metric {name} missing from the {workload} run")
    return out


def evaluate(args, workload):
    driver = build_driver()
    result, trace_path = run_driver(driver, workload, args.seed, args.seconds,
                                    args.trace, args.tiny)
    mismatches = golden_mismatches(result)
    for err in result["errors"]:
        log(f"failed op: {err}")
    for bad in mismatches[:8]:
        log(f"golden mismatch: {bad}")
    failed = result["failed"] + len(mismatches)
    metrics = select_metrics(result, args.trace)
    return result, trace_path, failed, metrics


def report(args, workload, result, trace_path, failed, metrics):
    """Prints one workload's thread plan and metrics; returns its result line."""
    t = result["threads"]
    print(f"workload {workload}  seed {args.seed}  trace {args.trace}  "
          f"threads: nproc {t['nproc']}, cell jobs {t['cell_jobs']}, "
          f"sim threads/launch {t['sim_threads_per_launch']}, submitters {t['submitters']}, "
          f"sched workers {t['sched_workers']}, compile threads {t['compile_threads']} "
          f"(busy {t['busy']})")
    attempted = result["attempted"]
    print(f"ops attempted {attempted}  failed {failed}  "
          f"error_rate {failed / max(1, attempted):.6g}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    if trace_path:
        print(f"trace: {trace_path}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def write_goldens():
    driver = build_driver()
    for workload in ("figure_matrix", "cold_compile"):
        # One full-size matrix (figure_matrix) / one round over every GPU
        # config and kernel (cold_compile's tiny size already covers all).
        result, _ = run_driver(driver, workload, 1, 1, False, workload == "cold_compile")
        if result["failed"]:
            raise RuntimeError(f"{workload}: {result['errors']}")
        outputs = {}
        for rec in result["records"]:
            if outputs.setdefault(rec["key"], rec["fields"]) != rec["fields"]:
                raise RuntimeError(f"{workload}: {rec['key']} differs between ops")
        path = os.path.join(HERE, "goldens", workload + ".json")
        with open(path, "w") as f:
            json.dump({"workload": workload, "outputs": outputs}, f, indent=1, sort_keys=True)
            f.write("\n")
        log(f"wrote {path} ({len(outputs)} outputs)")


def main():
    names = [w["name"] for w in load_benchmark()["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=names + ["all"],
                   help="one workload, or all of them in turn")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="self-check size")
    p.add_argument("--write-goldens", action="store_true")
    args = p.parse_args()
    if not args.write_goldens and not args.workload:
        p.error("--workload is required")
    lines = {}
    try:
        if args.write_goldens:
            write_goldens()
            return 0
        for workload in names if args.workload == "all" else [args.workload]:
            lines[workload] = report(args, workload, *evaluate(args, workload))
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1
    if len(lines) == 1:
        line = next(iter(lines.values()))
    else:
        line = {"correct": all(l["correct"] for l in lines.values()),
                "attempted": sum(l["attempted"] for l in lines.values()),
                "failed": sum(l["failed"] for l in lines.values()),
                "metrics": {f"{w}.{n}": m for w, l in lines.items()
                            for n, m in l["metrics"].items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
