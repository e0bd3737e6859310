"""mfspec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Run from the root of a checkout.  The set-up probes and the calls run in
fresh child interpreters with ``src`` on their path and every thread pool
pinned to one thread.  With ``--trace 0`` the last line of output reports
the end-to-end metrics; with ``--trace 1`` the calls are split between an
untraced and a traced half, and it reports the per-layer metrics.  Lines
before it give every metric by name and unit, the checks and the
environment.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from tracing import COUNT_METRICS, TIME_METRICS  # noqa: E402

PROBES = 5          # timed set-up probes per run, after one warm-up probe
MIN_CALLS = 4       # per run: the median drops a slow first call
DEADLINE = 170      # seconds for the whole run, probes included
THREAD_PINS = ("MFSPEC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")
# counts that must repeat exactly between calls and between runs at a seed
EXACT = ("order_violations", "lower_err_max", "cli.artifact_bytes",
         *COUNT_METRICS)
SCRATCH = os.path.join(ROOT, ".perfbench_out")


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(dict.fromkeys(THREAD_PINS, "1"))
    return env


def run_child(args, stdin: str, deadline: float) -> dict:
    """Run a worker to completion; its last output line is its JSON result.

    A worker still running at ``deadline`` is killed and waited for.
    """
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), *args],
        input=stdin, capture_output=True, text=True, env=child_env(),
        cwd=ROOT, timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited {proc.returncode}:\n"
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(times: list) -> dict:
    """Highest percentile with at least 10 samples beyond it, if any."""
    if len(times) < 11:
        return {"percentile": None, "value": None}
    ranked = sorted(times)
    return {"percentile": 100.0 * (len(ranked) - 11) / (len(ranked) - 1),
            "value": ranked[-11]}


def source_digest() -> str:
    """Hash of the program and benchmark sources: the identity of a build."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def repeat_problems(per_call: list, record_path: str) -> list:
    """Counts that differ between calls, or from an earlier run at this seed.

    Earlier runs are those of the same sources (``record_path`` names their
    digest); this run's counts are added to the record.
    """
    problems = []
    seen: dict = {}
    for i, counts in enumerate(per_call):
        for key in EXACT:
            if key not in counts:
                continue
            if seen.setdefault(key, counts[key]) != counts[key]:
                problems.append(f"{key}: call {i} gave {counts[key]!r}, an "
                                f"earlier call {seen[key]!r}")
    earlier = {}
    if os.path.exists(record_path):
        with open(record_path) as fh:
            earlier = json.load(fh)
    for key in earlier.keys() & seen.keys():
        if earlier[key] != seen[key]:
            problems.append(f"{key}: {seen[key]!r} here, {earlier[key]!r} in "
                            f"an earlier run at this seed")
    merged = {**earlier, **seen}
    os.makedirs(os.path.dirname(record_path), exist_ok=True)
    with open(record_path + ".tmp", "w") as fh:
        json.dump(merged, fh, sort_keys=True)
    os.replace(record_path + ".tmp", record_path)
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "mfspec", "__init__.py")):
        print(f"perfbench: no mfspec sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    name = args.workload
    inputs = workloads.make_inputs(name, args.seed)

    deadline = time.monotonic() + DEADLINE
    run_child(["probe", name], "", deadline)  # warms the file caches
    probes = [run_child(["probe", name], "", deadline) for _ in range(PROBES)]
    os.makedirs(SCRATCH, exist_ok=True)
    tag = f"{name}-{args.seed}"
    with tempfile.TemporaryDirectory(dir=SCRATCH) as workdir:
        spec = {"root": ROOT, "workload": name, "inputs": inputs,
                "seconds": args.seconds, "trace": args.trace,
                # a traced run splits the calls between its two halves
                "min_calls": MIN_CALLS // (2 if args.trace else 1),
                "workdir": workdir,
                "trace_path": os.path.join(SCRATCH, f"trace-{tag}.json")}
        result = run_child(["run"], json.dumps(spec), deadline)

    phases = [result["untraced"]]
    if args.trace:
        phases.append(result["traced"])
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    problems = sorted({p for phase in phases for p in phase["problems"]})
    per_call = list(result["untraced"]["counts"])
    if args.trace:
        per_call += [{**c, **t} for c, t in zip(
            result["traced"]["counts"], result["traced"]["trace_counts"])]
    problems += repeat_problems(per_call, os.path.join(
        SCRATCH, "counts", source_digest(), tag + ".json"))
    counts = {k: v for c in per_call for k, v in c.items()}

    times = result["untraced"]["times"]
    run_s = statistics.median(times)
    setup = [p["import_s"] + p["system_s"] for p in probes]
    end_to_end = {
        "run_s": (run_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "failed_share": (failed / attempted, "share"),
        "order_violations": (counts.get("order_violations", 0), "count"),
    }
    if "lower_err_max" in counts:
        end_to_end["lower_err_max"] = (counts["lower_err_max"], "dim")

    report = {"workload": name, "seed": args.seed, "trace": args.trace,
              "inputs": inputs,
              "env": {"nproc": os.cpu_count(),
                      "affinity": len(os.sched_getaffinity(0)),
                      "machine": platform.machine(),
                      **result["versions"],
                      "thread_pins": {k: "1" for k in THREAD_PINS},
                      "seed": args.seed},
              "run_s": {"median": run_s, "samples": len(times),
                        "tail": tail(times), "closed_loop_clients": 1,
                        "times": times},
              "end_to_end": {k: {"value": v, "unit": u}
                             for k, (v, u) in end_to_end.items()},
              "problems": problems}
    for key, (value, unit) in end_to_end.items():
        print(f"{name} {key} = {value!r} {unit}")
    print(f"{name} run_s samples = {len(times)}, "
          f"tail = {report['run_s']['tail']}")

    if args.trace:
        traced = result["traced"]
        per_layer = layer_metrics(traced, probes, counts, run_s)
        report["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in per_layer.items()}
        report["spans_self_s"] = span_medians(traced)
        for key, (value, unit) in per_layer.items():
            note = " (computed from array sizes)" \
                if key == "geometry.table_bytes" else ""
            print(f"{name} {key} = {value!r} {unit}{note}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: (per_layer if args.trace else end_to_end)[m["name"]]
               for m in listed}
    for problem in problems:
        print(f"{name} PROBLEM: {problem}")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


def span_medians(traced: dict) -> dict:
    """Median over traced calls of each span name's self time per call."""
    calls = list(traced["self_times"].values())
    names = sorted({n for c in calls for n in c})
    return {n: statistics.median(c.get(n, 0.0) for c in calls) for n in names}


def layer_metrics(traced: dict, probes: list, counts: dict,
                  untraced_run_s: float) -> dict:
    calls = list(traced["self_times"].values())
    out = {
        "setup.import_s": (statistics.median(p["import_s"] for p in probes),
                           "s"),
        "geometry.system_s": (statistics.median(p["system_s"] for p in probes),
                              "s"),
    }
    for metric, spans in TIME_METRICS.items():
        out[metric] = (statistics.median(
            math.fsum(c.get(s, 0.0) for s in spans) for c in calls), "s")
    for metric in COUNT_METRICS:
        out[metric] = (counts[metric], "count")
    out["geometry.table_bytes"] = (counts["geometry.table_bytes"], "bytes")
    out["cli.artifact_bytes"] = (counts.get("cli.artifact_bytes", 0), "bytes")
    out["trace.overhead_s"] = (statistics.median(traced["times"])
                               - untraced_run_s, "s")
    return out


if __name__ == "__main__":
    sys.exit(main())
