#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks byte for byte.

    python3 perfbench/record.py

Writes ``perfbench/expected.json``: the exit code and SHA-256 of every
request the CLI session can draw, and of the generator profiles of the
adjoint columns.  Record on a commit whose outputs are known to be
right; any later change to these bytes then counts as a wrong answer.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    expected = workloads.record()
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"{len(expected['cli'])} requests, {len(expected['profiles'])} columns")
