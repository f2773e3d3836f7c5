"""Record the loss trajectories the benchmark checks runs against.

    python3 bench/make_reference.py --seeds 0-31 [--workload NAME ...]

Runs one repetition per (workload, seed) and stores its per-epoch train
and val losses in ``reference.json`` next to this file, merged into what
is there. Regenerate only for a change that is meant to alter the
engine's float results, and say so in the change description.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range A-B")
    parser.add_argument("--workload", action="append", choices=run.WORKLOAD_NAMES)
    args = parser.parse_args(argv)
    lo, hi = (int(v) for v in args.seeds.split("-"))
    run.import_engine()
    from workloads import REFERENCE_FILE, load_reference, workload

    reference = load_reference()
    workdir = run.WORK / "reference"
    try:
        for name in args.workload or run.WORKLOAD_NAMES:
            wl = workload(name)
            table = reference.setdefault(name, {})
            for seed in range(lo, hi + 1):
                state = wl.setup(seed, workdir)
                outcome = wl.collect(state, workdir / "rep", wl.run(state, workdir / "rep"))
                shutil.rmtree(workdir / "rep", ignore_errors=True)
                failed = [f"{c.name} ({c.detail})" for c in outcome.checks if not c.passed]
                print(f"{name} seed {seed}: {'FAILED ' + str(failed) if failed else 'ok'}",
                      flush=True)
                table[str(seed)] = outcome.trajectory
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # one line per seed keeps diffs of a regenerated file readable
    lines = []
    for name in sorted(reference):
        rows = [f"  {json.dumps(seed)}: {json.dumps(reference[name][seed], sort_keys=True)}"
                for seed in sorted(reference[name], key=int)]
        lines.append(f" {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n }")
    REFERENCE_FILE.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
