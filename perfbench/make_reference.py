"""Regenerate ``perfbench/reference.json`` from the current program.

    python3 perfbench/make_reference.py

Runs each workload once at full size with the default seed and stores
what its checks compare against: the report digest for screen-served,
the band centre for fleet-busy, and frontier keys, recommendations and
axes for provision-long.  Only rerun it when a
change is meant to alter results, and say so in the change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    work = ROOT / ".perfbench_work" / "reference"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    import workloads

    reference = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            spec = workload.build(workloads.DEFAULT_SEED, False)
            opdir = work / name
            opdir.mkdir()
            out = workload.operate(spec, opdir, len(os.sched_getaffinity(0)))
            errors = workload.check(spec, out, workload.expect(spec), None)
            if errors:
                raise SystemExit(f"{name}: {errors}")
            reference[name] = workloads.reference_entry(name, out)
            print(f"{name}: {reference[name] if 'digest' in reference[name] else 'ok'}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(
        json.dumps({"seed": workloads.DEFAULT_SEED, **reference},
                   indent=1, sort_keys=True) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
