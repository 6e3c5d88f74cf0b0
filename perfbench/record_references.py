"""Record the outputs every check compares against, at the default seed.

    python3 perfbench/record_references.py

Runs one untimed pass of every workload at both sizes and writes
perfbench/references.json; grid-bench must reproduce the known report.json
of configs/benchmark.yaml. The file is a record of correct outputs: re-run
this only when a change to the package is meant to change them, and say so.
"""

from __future__ import annotations

import json
import os
import shutil

import run

# md5 of report.json from `condinv run --config configs/benchmark.yaml`
SEED_REPORT_MD5 = "1a724965f344501ca9bafcda0069e3b8"


def main() -> None:
    run.import_package()
    from workloads import DEFAULT_SEED, WORKLOADS, OpLog

    workdir = os.path.join(run.OUT_DIR, "record")
    os.makedirs(workdir, exist_ok=True)
    refs = {}
    try:
        for name, cls in WORKLOADS.items():
            refs[name] = {}
            for size in ("full", "tiny"):
                work = cls(run.ROOT, workdir, DEFAULT_SEED, size)
                work.setup()
                outputs, digest = work.run_pass(OpLog())
                refs[name][size] = {"digest": digest, "outputs": outputs}
                print(f"{name} {size}: {len(outputs)} operations")
        if refs["grid-bench"]["full"]["digest"] != SEED_REPORT_MD5:
            raise SystemExit("grid-bench no longer reproduces the known report.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(run.HERE, "references.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
