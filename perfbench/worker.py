"""Worker process of the benchmark; ``run.py`` starts a fresh one per use.

    worker.py probe <workload>   time ``import mfspec.cli`` plus construction
                                 of the workload's system and potential
    worker.py run < spec.json    closed-loop calls; prints one JSON line

Every call starts after the previous one returned and was checked.  The
untraced calls give the end-to-end times; with ``trace`` set, the traced
calls that follow give the spans.  Only the standard library is imported
before the probe's clock starts.
"""

import contextlib
import gc
import json
import os
import resource
import sys
import time
import traceback

import workloads


def probe(name: str) -> None:
    start = time.perf_counter()
    import mfspec.cli  # noqa: F401
    imported = time.perf_counter()
    workloads.construct(name)
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - start,
                      "system_s": built - imported}))


def measure(workload, seconds: float, min_calls: int, tracer=None) -> dict:
    """Call until ``seconds`` have passed and ``min_calls`` were made."""
    times, outcomes = [], []
    start = time.perf_counter()
    while len(times) < min_calls or time.perf_counter() - start < seconds:
        gc.collect()
        index = len(times)
        if tracer is not None:
            tracer.call = index
        try:
            with tracer.span("call") if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                result = workload.call()
                t1 = time.perf_counter()
            outcome = workload.check(result)
        except Exception:  # a failed call is counted, and the loop goes on
            t1 = time.perf_counter()
            outcome = workloads.Outcome(workload.operations)
            outcome.fail_all(traceback.format_exc(limit=3))
        times.append(t1 - t0)
        outcomes.append(outcome)
    return {"times": times,
            "attempted": sum(o.attempted for o in outcomes),
            "failed": sum(o.failed for o in outcomes),
            "problems": sorted({p for o in outcomes for p in o.problems}),
            "counts": [o.counts for o in outcomes]}


def run(spec: dict) -> dict:
    import mfspec
    import numpy
    import scipy
    src = os.path.join(spec["root"], "src")
    if os.path.commonpath([os.path.abspath(mfspec.__file__), src]) != src:
        raise RuntimeError(f"mfspec imported from {mfspec.__file__}, "
                           f"not from {src}")
    name = spec["workload"]
    workload = workloads.CLASSES[name](spec["inputs"], spec["workdir"])
    seconds = spec["seconds"] / (2 if spec["trace"] else 1)
    result = {"versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    result["untraced"] = measure(workload, seconds, spec["min_calls"])
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if spec["trace"]:
        import tracing
        tracer = tracing.Tracer()
        originals = tracing.install(tracer)
        try:
            if workload.system is not None:
                workload.system = tracing.traced_system(workload.system,
                                                        tracer)
            traced = measure(workload, seconds, spec["min_calls"], tracer)
        finally:
            tracing.uninstall(originals)
        traced["self_times"] = {str(k): v for k, v in
                                tracer.self_times().items() if k is not None}
        traced["trace_counts"] = [tracer.counts[i]
                                  for i in range(len(traced["times"]))]
        result["traced"] = traced
        with open(spec["trace_path"], "w") as fh:
            json.dump({"spans": tracer.spans}, fh)
    return result


def main() -> int:
    if sys.argv[1:2] == ["probe"]:
        probe(sys.argv[2])
        return 0
    print(json.dumps(run(json.loads(sys.stdin.read()))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
