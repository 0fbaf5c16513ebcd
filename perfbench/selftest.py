#!/usr/bin/env python3
"""Self-test of the Arcadia benchmark, at a tiny fleet size (about a minute).

    python3 perfbench/selftest.py

For every workload, on the default and the held-out seed, it runs
perfbench/run.py with --tiny and checks that the result line names every
metric BENCHMARK.json declares, with its unit, and that the output checks
pass. It then checks that the run fails when one repetition's fingerprint is
corrupted, and that run.py fails fast, without a result, in a directory that
holds only BENCHMARK.json and perfbench/. Exit code 0 when all of that holds.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402  (run.py's workload list and seeds)

failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print("FAIL: " + msg, flush=True)


def bench(args, cwd=ROOT, timeout=180):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py")] + args,
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, proc.stderr


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    check([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
          "BENCHMARK.json workloads differ from run.py's")

    for workload in run.WORKLOADS:
        for seed, trace in ((run.DEFAULT_SEED, 0), (run.DEFAULT_SEED, 1),
                            (run.HELD_OUT_SEED, 0)):
            tag = "%s seed %d trace %d" % (workload, seed, trace)
            rc, result, err = bench(["--workload", workload, "--seed", str(seed),
                                     "--seconds", "0", "--trace", str(trace),
                                     "--tiny"])
            check(rc == 0, "%s: exit code %d\n%s" % (tag, rc, err[-2000:]))
            if result is None:
                check(False, "%s: no JSON result line" % tag)
                continue
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  "%s: result keys %s" % (tag, sorted(result)))
            check(result.get("correct") is True, "%s: correct is not true" % tag)
            check(result.get("attempted", 0) >= 1, "%s: attempted < 1" % tag)
            printed = {k: v.get("unit") for k, v in result.get("metrics", {}).items()}
            check(printed == declared[trace],
                  "%s: printed metrics/units %s != declared %s"
                  % (tag, printed, declared[trace]))
            for name, m in result.get("metrics", {}).items():
                check(isinstance(m.get("value"), (int, float)),
                      "%s: %s has no numeric value" % (tag, name))
            print("ok: " + tag, flush=True)

    for workload in run.WORKLOADS:
        rc, result, _ = bench(["--workload", workload, "--seconds", "0",
                               "--trace", "0", "--tiny", "--corrupt-fingerprint"])
        check(rc != 0, "%s: a corrupted fingerprint did not fail the run" % workload)
        check(result is not None and result.get("correct") is False,
              "%s: a corrupted fingerprint still reported correct" % workload)
        print("ok: %s fails on a corrupted fingerprint" % workload, flush=True)

    bare = os.path.join(ROOT, run.OUT_DIR, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    rc, result, err = bench(["--workload", "fleet-durable", "--seed", "1",
                             "--seconds", "1", "--trace", "0"],
                            cwd=bare, timeout=60)
    check(rc != 0 and result is None and "no Arcadia source tree" in err,
          "without the source tree run.py must fail without a result")
    shutil.rmtree(bare, ignore_errors=True)
    print("ok: fails without the source tree", flush=True)

    print("selftest: %s" % ("FAILED (%d)" % len(failures) if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
