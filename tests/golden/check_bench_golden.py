#!/usr/bin/env python3
"""Golden oracle for a bench's --smoke results.

Runs BENCH_BINARY --smoke --json into a temporary file and compares the
result sections named in GOLDEN (a JSON object holding exactly those
sections, e.g. {"results": [...], "chaos": [...]}) with the committed copy.
Everything else in the bench's JSON (config, thread counts, gate summaries)
is not compared, so host-dependent fields never make the check flaky.

The simulator is deterministic, so any difference is a behaviour change:
a refactor that claims identical output must leave every golden file
untouched.

  check_bench_golden.py BENCH_BINARY GOLDEN           # compare
  check_bench_golden.py BENCH_BINARY GOLDEN --write   # regenerate GOLDEN
"""

import json
import os
import subprocess
import sys
import tempfile


def run_bench(binary):
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "bench.json")
        proc = subprocess.run([binary, "--smoke", "--json", out],
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                              text=True)
        if proc.returncode != 0:
            sys.stdout.write(proc.stdout)
            sys.exit(f"{binary} exited {proc.returncode}")
        with open(out) as f:
            return json.load(f)


def first_difference(path, want, got):
    """Returns a description of the first place `got` departs from `want`."""
    if type(want) is not type(got):
        return f"{path}: expected {want!r}, got {got!r}"
    if isinstance(want, dict):
        for key in list(want) + [k for k in got if k not in want]:
            if key not in got:
                return f"{path}.{key}: missing"
            if key not in want:
                return f"{path}.{key}: unexpected field"
            diff = first_difference(f"{path}.{key}", want[key], got[key])
            if diff:
                return diff
        return None
    if isinstance(want, list):
        for i, (w, g) in enumerate(zip(want, got)):
            diff = first_difference(f"{path}[{i}]", w, g)
            if diff:
                return diff
        if len(want) != len(got):
            return f"{path}: expected {len(want)} entries, got {len(got)}"
        return None
    return None if want == got else f"{path}: expected {want!r}, got {got!r}"


def main():
    if len(sys.argv) not in (3, 4) or (len(sys.argv) == 4 and
                                       sys.argv[3] != "--write"):
        sys.exit(__doc__)
    binary, golden_path = sys.argv[1], sys.argv[2]
    result = run_bench(binary)
    if len(sys.argv) == 4:
        with open(golden_path) as f:
            sections = list(json.load(f))
        golden = {key: result[key] for key in sections}
        with open(golden_path, "w") as f:
            json.dump(golden, f, indent=1)
            f.write("\n")
        return
    with open(golden_path) as f:
        golden = json.load(f)
    got = {key: result.get(key) for key in golden}
    diff = first_difference(os.path.basename(golden_path), golden, got)
    if diff:
        sys.exit(f"golden mismatch: {diff}")
    print(f"{os.path.basename(binary)}: {', '.join(golden)} match "
          f"{os.path.basename(golden_path)}")


if __name__ == "__main__":
    main()
