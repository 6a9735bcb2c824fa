#!/usr/bin/env python3
"""The benchmark's one command: build the harness from source, run a workload,
check its outputs and print the result as one JSON line.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-refs SEED[,SEED...] [--workload W]
    python3 perfbench/run.py --defect-probe SEED[,SEED...]

Run it from the root of a checkout.  The harness (perfbench/harness.cpp) is
built with CMake into .bench_build/perfbench.  With --trace 0 the result holds
the end-to-end metrics; with --trace 1 it runs the untraced harness for half
the time and the traced one for the other half, and holds the per-layer
metrics (spans go to .bench_build/spans/).  Metric names and units come from
BENCHMARK.json.  The exit code is 0 whenever a result is printed, whether
"correct" is true or false; it is not 0 when no result could be made.

--self-test plants a known bug in each workload and fails unless every one
drives ok_share below 1.  --record-refs writes the determinism hashes of the
given seeds to perfbench/refs.json; a later run on one of those seeds fails
if its hash differs.  --defect-probe runs the chaos cell that chaos_grid
leaves out (the known defect in perfbench/README.md) and exits 1 while any
of its specs fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS = os.path.join(ROOT, ".bench_build", "spans")
REFS = os.path.join(HERE, "refs.json")
WORKLOADS = ("alg1_checked", "shards", "chaos_grid")
RUN_BUDGET_S = 170  # one benchmark run must end within 180 s


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no program sources next to perfbench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen,
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "perfbench_traced", "-j", "4"],
                   stdout=sys.stderr, check=True)


def harness(traced, workload, seed, seconds, deadline, mutant=False,
            spans=None):
    """Run one harness process; return its JSON report."""
    exe = os.path.join(BUILD, "perfbench_traced" if traced else "perfbench")
    cmd = [exe, "--workload", workload, "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    if mutant:
        cmd.append("--mutant")
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=max(1.0, deadline - time.time()))
    if proc.returncode != 0:
        raise RuntimeError(f"{os.path.basename(exe)} exited with "
                           f"{proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_refs():
    if not os.path.isfile(REFS):
        return {}
    with open(REFS) as f:
        return json.load(f)


def judge(report, refs):
    """Return (attempted, ok, failures) for one harness report.

    An operation counts as ok when its unit passed the harness's checks and
    its pass hash equals every other pass's hash and the recorded reference
    for this seed, if there is one."""
    workload, seed = report["workload"], report["seed"]
    failures = list(report["failures"])
    hashes = {p["hash"] for p in report["passes"]}
    if len(hashes) > 1:
        failures.append(f"{workload}: passes of one seed differ: "
                        f"{sorted(hashes)}")
    ref = refs.get(workload, {}).get(str(seed))
    attempted = ok = 0
    for p in report["passes"]:
        attempted += p["attempted"]
        if ref is not None and p["hash"] != ref:
            failures.append(f"{workload}: seed {seed} hash {p['hash']} != "
                            f"reference {ref}")
        elif len(hashes) == 1:
            ok += p["ok_ops"]
    return attempted, ok, failures


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def measure(args):
    deadline = time.time() + RUN_BUDGET_S
    spec = load_spec()
    build()
    refs = load_refs()
    if args.trace == 0:
        reports = [harness(False, args.workload, args.seed, args.seconds,
                           deadline)]
        values = dict(reports[0]["metrics"])
    else:
        os.makedirs(SPANS, exist_ok=True)
        spans = os.path.join(SPANS, f"{args.workload}-seed{args.seed}.jsonl")
        half = args.seconds / 2
        plain = harness(False, args.workload, args.seed, half, deadline)
        traced = harness(True, args.workload, args.seed, half, deadline,
                         spans=spans)
        reports = [plain, traced]
        values = dict(traced["layers"])
        values["trace.overhead_share"] = (
            1 - traced["metrics"]["ops_per_s"] / plain["metrics"]["ops_per_s"])
    attempted = ok = 0
    failures = []
    for report in reports:
        a, o, f = judge(report, refs)
        attempted, ok, failures = attempted + a, ok + o, failures + f
    values["ok_share"] = ok / attempted if attempted else 0.0

    wanted = spec["end_to_end"] if args.trace == 0 else spec["per_layer"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        failures.append(f"harness did not report {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                           "unit": m["unit"]} for m in wanted}
    for line in failures:
        log("FAIL:", line)
    correct = not failures and ok == attempted
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": attempted - ok, "metrics": metrics}))
    return 0


def self_test(seconds):
    """Every workload with its planted bug: ok_share must fall below 1, and
    below the same seed's ok_share without the bug."""
    deadline = time.time() + 6 * RUN_BUDGET_S
    build()
    caught = True
    for workload in WORKLOADS:
        shares = []
        for mutant in (False, True):
            report = harness(False, workload, 1, seconds, deadline,
                             mutant=mutant)
            attempted, ok, _ = judge(report, {})
            shares.append(ok / attempted if attempted else 0.0)
        clean, planted = shares
        detected = planted < clean
        caught = caught and detected
        log(f"{workload}: ok_share {clean:.4f} -> {planted:.4f} with the "
            f"planted bug, {'caught' if detected else 'MISSED'}")
    print(json.dumps({"self_test": "pass" if caught else "fail"}))
    return 0 if caught else 1


def record_refs(seeds, workloads):
    """Write each workload's pass hash for `seeds` into refs.json.

    A reference pins what the program does, right or wrong; every run still
    judges its outputs on their own, so a failed check is logged here and
    recorded all the same."""
    build()
    refs = load_refs()
    for workload in workloads:
        for seed in seeds:
            report = harness(False, workload, seed, 0,
                             time.time() + RUN_BUDGET_S)
            for line in judge(report, {})[2]:
                log(f"{workload} seed {seed}: recorded despite: {line}")
            refs.setdefault(workload, {})[str(seed)] = \
                report["passes"][0]["hash"]
            log(f"{workload} seed {seed}: {report['passes'][0]['hash']}")
    with open(REFS, "w") as f:
        json.dump(refs, f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


def defect_probe(seeds):
    """Run the recoverable churn-with-loss chaos cell at `seeds`; list every
    failed spec and return 1 if there is one."""
    build()
    failing_seeds = 0
    for seed in seeds:
        report = harness(False, "recoverable_loss", seed, 0,
                         time.time() + RUN_BUDGET_S)
        for line in report["failures"]:
            log(f"seed {seed}: {line}")
        failing_seeds += bool(report["failures"])
    print(json.dumps({"defect_probe": "fail" if failing_seeds else "pass",
                      "seeds": len(seeds), "failing_seeds": failing_seeds}))
    return 1 if failing_seeds else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-refs", metavar="SEEDS")
    parser.add_argument("--defect-probe", metavar="SEEDS")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test(min(args.seconds, 1))
        if args.record_refs:
            return record_refs([int(s) for s in args.record_refs.split(",")],
                               [args.workload] if args.workload else WORKLOADS)
        if args.defect_probe:
            return defect_probe([int(s) for s in args.defect_probe.split(",")])
        if not args.workload:
            parser.error("--workload is required")
        return measure(args)
    except (RuntimeError, OSError, ValueError, KeyError,
            subprocess.SubprocessError) as err:
        log("perfbench:", err)
        return 2


if __name__ == "__main__":
    sys.exit(main())
