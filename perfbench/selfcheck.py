"""Tiny-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs every workload once at a few devices, untraced and traced, and
asserts that each prints exactly the metrics ``BENCHMARK.json`` declares,
each with its declared unit, and passes its output checks.  It also
checks, in this process, that the traced run's wrappers are gone once
their block exits, and that the benchmark refuses to run (non-zero exit,
no result line) in a directory holding only the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "11", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def check_metrics(bench: dict) -> None:
    for workload in bench["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run(name, trace)
            assert done.returncode == 0, done.stderr
            result = json.loads(done.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0, done.stderr
            declared = {m["name"]: m["unit"] for m in bench[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            assert printed == declared, (name, trace, printed, declared)
            for metric in declared:
                assert metric in done.stdout.split(), (name, metric)
            print(f"ok  {name} trace={trace} attempted={result['attempted']}")


def check_wrappers_removed() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing

    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracing.wrappers_present(), "no wrapper was installed"
    assert tracing.wrappers_present() == [], tracing.wrappers_present()
    print("ok  wrappers removed after the traced block")


def check_refuses_bare_directory(bench: dict) -> None:
    bare = ROOT / ".perfbench_work" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in bench["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = run(bench["workloads"][0]["name"], 0, cwd=bare)
        assert done.returncode != 0, done.stdout
        assert '"metrics"' not in done.stdout, done.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  refuses a directory without the program")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_wrappers_removed()
    check_refuses_bare_directory(bench)
    check_metrics(bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
