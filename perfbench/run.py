#!/usr/bin/env python3
"""Arcadia benchmark: builds the fleet_bench binary from this checkout's
sources, runs one workload in its own process, checks its outputs and prints
one JSON result as the last line of stdout.

    python3 perfbench/run.py --workload fleet-durable --seed 1 --seconds 55 --trace 0

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
(and writes the Chrome trace-event file of the first traced repetition under
.bench_out/). Exit code 0 only when every output check passed. See
perfbench/README.md for the workloads, metrics and checks.
"""

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fleet-wide", "fleet-durable")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20021  # not used while tuning; re-check claims on it
OUT_DIR = ".bench_out"
BENCH_TIMEOUT_S = 170

# Per-layer counts that must repeat exactly across repetitions of one
# workload/seed. sim.windows is compared between untraced repetitions only:
# traced repetitions run Fleet::run_until in sim-time slices, and each slice
# boundary is one more coordinator barrier.
SLICE_DEPENDENT = {"sim.windows"}


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure once, then build fleet_bench (a no-op when up to date)."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError("no Arcadia source tree at " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr,
        )
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "fleet_bench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr,
    )
    return os.path.join(build_dir, "fleet_bench")


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def compare_runs(reps, traced, plain, failures):
    """Every repetition of one workload/seed, traced or not, must be the
    same simulation. So must one with the durability plane off, which only
    observes: its counts differ by the plane's own events and bytes."""
    ref = reps[0]
    others = [("rep %d" % i, rep) for i, rep in enumerate(reps[1:], 2)]
    others += [("traced rep %d" % i, rep) for i, rep in enumerate(traced, 1)]
    for tag, run in others + [("plain rep %d" % i, rep)
                              for i, rep in enumerate(plain, 1)]:
        for key in ("fingerprint", "issued", "sim"):
            if run[key] != ref[key]:
                failures.append("%s: %s differs from rep 1" % (tag, key))
    for tag, run in others:
        ignored = SLICE_DEPENDENT if tag.startswith("traced") else set()
        diff = sorted(k for k in ref["counts"] if k not in ignored
                      and run["counts"].get(k) != ref["counts"][k])
        if diff:
            failures.append("%s: per-layer counts differ from rep 1: %s"
                            % (tag, diff))


def check_history(out_dir, binary, data, failures):
    """Runs of the same build on the same workload/seed, in separate
    processes, must agree too: keep the first run's outputs and compare."""
    path = os.path.join(out_dir, "fingerprints.json")
    history = {}
    if os.path.isfile(path):
        with open(path) as f:
            history = json.load(f)
    rep = data["reps"][0]
    key = "%s/seed%d%s" % (data["workload"], data["seed"],
                           "/tiny" if data["tiny"] else "")
    entry = {
        "binary": file_digest(binary),
        "fingerprint": rep["fingerprint"],
        "sim": rep["sim"],
        "events": rep["counts"]["sim.events"],
    }
    old = history.get(key)
    if old is not None and old["binary"] == entry["binary"]:
        for field in ("fingerprint", "sim", "events"):
            if old[field] != entry[field]:
                failures.append("%s differs from an earlier run of %s with this build"
                                % (field, key))
        return
    history[key] = entry
    tmp = path + ".tmp"
    with open(tmp, "w") as f:
        json.dump(history, f, indent=1, sort_keys=True)
    os.replace(tmp, path)


def check_trace(path, failures):
    try:
        with open(path) as f:
            trace = json.load(f)
    except (OSError, ValueError) as e:
        failures.append("trace file %s unreadable: %s" % (path, e))
        return
    names = {ev.get("name") for ev in trace.get("traceEvents", [])}
    for want in ("setup.build", "setup.start", "run.slice", "monitor.probe"):
        if want not in names:
            failures.append("trace file has no %s span" % want)


def end_to_end(data):
    reps = data["reps"]
    sim = reps[0]["sim"]
    return {
        "setup_s": statistics.median(data["setups"]),
        "run_s": statistics.median(r["run_s"] for r in reps),
        "peak_rss_mb": data["peak_rss_mb"],
        "req_p50_s": sim["req_p50_s"],
        "req_p99_s": sim["req_p99_s"],
        "req_miss_frac": sim["req_miss_frac"],
        "repair_p50_s": sim["repair_p50_s"],
        "repair_attempts_per_commit": sim["repair_attempts_per_commit"],
    }


def declared_metrics(section):
    """Name -> unit of the metrics BENCHMARK.json declares in `section`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def per_layer(data, names):
    reps = data["reps"]
    traced = data["traced"]
    counts = reps[0]["counts"]
    run_s = statistics.median(r["run_s"] for r in reps)
    # Neighbouring repetitions, paired: traced against untraced, and the
    # plane on against the plane off (durable workload only).
    overhead = statistics.median(
        t["run_s"] / u["run_s"] for u, t in zip(reps, traced))
    plain = data["plain"]
    durability = statistics.median(
        u["run_s"] / p["run_s"] for u, p in zip(reps, plain)) if plain else 1.0
    # durability.* are absent, and read 0, where the plane is off.
    out = {name: counts.get(name, 0.0) for name in names}
    out["sim.ns_per_event"] = run_s / counts["sim.events"] * 1e9
    out["monitor.probe_s"] = statistics.median(t["probe_s"] for t in traced)
    out["core.sweep_s"] = statistics.median(r["sweep_s"] for r in reps)
    out["durability.plane_s"] = statistics.median(r["plane_s"] for r in reps)
    out["durability.overhead_frac"] = durability - 1.0
    out["trace.overhead_frac"] = overhead - 1.0
    return out


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few tenants only (self-test size)")
    ap.add_argument("--corrupt-fingerprint", action="store_true",
                    help="self-test hook: alter one repetition's fingerprint "
                         "before the checks, which must then fail the run")
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    try:
        binary = build(os.path.abspath(build_dir))
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", OUT_DIR]
    if args.tiny:
        cmd.append("--tiny")
    log("running " + " ".join(cmd))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BENCH_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("fleet_bench timed out after %d s" % BENCH_TIMEOUT_S)
        return 2
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("fleet_bench failed with exit code %d" % proc.returncode)
        return 2
    data = json.loads(lines[-1])

    reps = data["reps"]
    traced = data["traced"]
    runs = reps + traced + data["plain"]
    if args.corrupt_fingerprint:
        last = reps[-1]
        last["fingerprint"] = "%x" % (int(last["fingerprint"], 16) ^ 1)

    failures = []
    for i, run in enumerate(runs, start=1):
        failures.extend("rep %d: %s" % (i, f) for f in run["failures"])
    compare_runs(reps, traced, data["plain"], failures)
    if reps[0]["sim"]["repairs_committed"] < 1:
        failures.append("no repair committed")
    if args.trace:
        check_trace(data["trace_file"], failures)
    check_history(OUT_DIR, binary, data, failures)

    if args.trace:
        units = declared_metrics("per_layer")
        metrics = per_layer(data, units)
    else:
        units = declared_metrics("end_to_end")
        metrics = end_to_end(data)
        for name in units:
            value = metrics.get(name)
            if value is None or not math.isfinite(value) or value <= 0:
                failures.append("end-to-end metric %s = %r is not positive"
                                % (name, value))
    for f in failures:
        log("CHECK FAILED: " + f)

    result = {
        "correct": not failures,
        "attempted": sum(r["issued"] for r in runs),
        "failed": sum(r["lost"] for r in runs),
        "metrics": {
            name: {"value": metrics.get(name), "unit": unit}
            for name, unit in units.items()
        },
    }
    sim = reps[0]["sim"]
    log("%s seed %d: %d repetitions%s, %d set-up samples, peak RSS %.1f MB"
        " (%.1f MB of it the benchmark's own request records)" % (
            data["workload"], data["seed"], len(reps),
            " + %d traced -> %s" % (len(traced), data["trace_file"])
            if traced else "",
            len(data["setups"]), data["peak_rss_mb"],
            max(r["harness_mb"] for r in runs)))
    log("%d of %d requests issued by horizon - 2 s missed the bound"
        " (%d unanswered at the horizon)" % (
            sim["requests_missed"], sim["requests_in_window"],
            sim["requests_censored"] + sim["requests_in_transit"]))
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
