"""Record sampler_stream's reference checkpoints for every pool seed.

Run from the repository root, once, on the commit whose values are the
reference:

    PYTHONPATH=src python3 perfbench/record_refs.py

It rewrites ``perfbench/sampler_refs.json``.  Floats are written with
``repr`` precision, so they read back exactly.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def main() -> None:
    refs = {}
    for seed in workloads.SAMPLER_POOL:
        stream = workloads.SamplerStream({"sampler_seed": seed}, "")
        refs[str(seed)] = [[p.stage, p.n, p.f_average, p.g_average]
                           for p in stream.call()]
        print(f"seed {seed}: {len(refs[str(seed)])} checkpoints",
              flush=True)
    with open(workloads.REFS_PATH, "w") as fh:
        json.dump({"checkpoints": refs}, fh)
        fh.write("\n")


if __name__ == "__main__":
    main()
