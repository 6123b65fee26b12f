"""Record the per-operation references in ``refs/`` from the current source.

    python3 cuspbench/make_refs.py [workload ...]

References pin the program's outputs at the commit that defined the
benchmark; every later run is checked against them.  Re-record them only in
a change that deliberately alters outputs, and say so where it is reviewed.
Each file maps every key a workload can generate, whatever the seed, to the
digest of the expected output.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def record(work: workloads.Workload) -> dict[str, str]:
    refs: dict[str, str] = {}
    for key, payload, _ in work.domain():
        workloads.clear_caches()
        digest, broken = work.check(work.run(payload))
        if broken:
            raise SystemExit(f"{work.name} {key}: {broken}")
        refs[key] = digest
    return refs


def main(names: list[str]) -> None:
    for name in names or sorted(workloads.WORKLOADS):
        refs = record(workloads.WORKLOADS[name])
        path = HERE / "refs" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
        print(f"{name}: {len(refs)} references -> {path.relative_to(HERE.parent)}")


if __name__ == "__main__":
    main(sys.argv[1:])
