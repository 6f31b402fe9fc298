#!/usr/bin/env python3
"""End-to-end benchmark of the hpf90d interpreter: build, run, check, report.

One run:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds perfbench/ (the library from src/ plus the hpfbench program) with CMake
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, prints every metric by name with its unit, and ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ledger. The exit
code is nonzero when any output mismatched the reference path.

Steadiness mode repeats workloads over consecutive seeds and prints each
end-to-end metric's median and quartile spread, with the machine and build
they were measured on:

    python3 perfbench/run.py --steadiness --runs 10 --seed 1000 --seconds 10 \
        [--workloads study_warm,measured_sweep] [--record perfbench/steadiness/x.json]

Everything the runs write stays under the checkout: the build directory and
.bench_run/ (spans, Chrome traces, the served workload's socket and spill).
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A guard against a hung run only: a run takes about 25-35 s, so a commit
# several times slower still finishes and shows as a measured regression.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "api.hpp")):
        raise RuntimeError("no hpf90d sources under %s/src" % ROOT)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "hpfbench")


def run_once(binary, workload, seed, seconds, trace):
    """One hpfbench process; returns (exit code, its JSON result)."""
    out_dir = os.path.join(ROOT, ".bench_run", workload)
    os.makedirs(out_dir, exist_ok=True)
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--out", out_dir],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("hpfbench printed no result (exit %d)" % proc.returncode)
    return proc.returncode, json.loads(lines[-1])


def single(args):
    bench = spec()
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        raise RuntimeError("unknown workload %r (have %s)" % (args.workload, ", ".join(names)))
    binary = build()
    code, res = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        got = res["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise RuntimeError("hpfbench did not report %s in %s" % (m["name"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}

    print("workload %s  seed %d  %s queries in %.2f s timed%s  tail = p%.2f (%d samples beyond it)"
          % (args.workload, args.seed, res["queries"], res["timed_s"],
             " (with the traced twins)" if args.trace else "", res["tail_percentile"],
             10 if res["queries"] > 10 else 0))
    print("build %s  %s  nproc %d" % (res["build_type"], res["cxx_flags"], os.cpu_count() or 0))
    print("failed_frac %.6f (%d of %d queries failed or mismatched the reference)"
          % (res["failed"] / max(res["attempted"], 1), res["failed"], res["attempted"]))
    for name in sorted(res["metrics"]):
        m = res["metrics"][name]
        print("  %-28s %16.6f %s" % (name, m["value"], m["unit"]))

    correct = code == 0 and res["failed"] == 0 and res["attempted"] > 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def steadiness(args):
    bench = spec()
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    binary = build()
    seeds = list(range(args.seed, args.seed + args.runs))
    record = {"nproc": os.cpu_count(), "cpu_model": cpu_model(), "seeds": seeds,
              "seconds": args.seconds, "workloads": {}}
    for w in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        failed = 0
        for seed in seeds:
            t0 = time.time()
            code, res = run_once(binary, w, seed, args.seconds, 0)
            failed += res["failed"] + (code != 0)
            record["build_type"], record["cxx_flags"] = res["build_type"], res["cxx_flags"]
            for name in values:
                values[name].append(res["metrics"][name]["value"])
            log("%s seed %d: %.1f s wall, %s" % (w, seed, time.time() - t0, ", ".join(
                "%s=%.4g" % (n, v[-1]) for n, v in values.items())))
        summary = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "iqr_over_median": spread,
                                  "bound": m["bound"], "values": v}
        record["workloads"][w] = {"failed": failed, "metrics": summary}

    print("nproc %d  cpu %s  build %s  flags %s  seeds %d..%d  %s s per run"
          % (record["nproc"], record["cpu_model"], record.get("build_type"),
             record.get("cxx_flags"), seeds[0], seeds[-1], args.seconds))
    ok = True
    for w, r in record["workloads"].items():
        print("%s (failed %d)" % (w, r["failed"]))
        for name, s in r["metrics"].items():
            # steady: spread within a third of the bound, set-up included
            steady = s["iqr_over_median"] <= s["bound"] / 3
            ok = ok and steady and r["failed"] == 0
            print("  %-16s median %12.5g  q1 %12.5g  q3 %12.5g  spread %6.2f%%  bound %4.0f%%  %s"
                  % (name, s["median"], s["q1"], s["q3"], 100 * s["iqr_over_median"],
                     100 * s["bound"], "ok" if steady else "above bound/3"))
    if args.record:
        with open(args.record, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--workloads", default="")
    p.add_argument("--record", default="")
    args = p.parse_args()
    try:
        if args.steadiness:
            return steadiness(args)
        if not args.workload:
            p.error("--workload is required")
        return single(args)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as e:
        log("run.py: %s" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
