"""One pass of one workload, in a process of its own.

``run.py`` starts this file once per pass, so every pass begins from the
same heap, pays the whole set-up (interpreter start, imports, input
generation, parse/plan/register, worker fork or server spawn), and
cannot be disturbed by what the orchestrator keeps in memory.  The pass
prints one JSON object on its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--check", type=int, default=0)
    parser.add_argument(
        "--t0", type=float, default=None, help="time.time() at process spawn"
    )
    args = parser.parse_args(argv)
    if args.t0 is None:
        args.t0 = time.time()
    spec = WORKLOADS[args.workload]
    os.makedirs(HERE / "out", exist_ok=True)
    if spec.kind == "serve":
        import serveload

        out = serveload.serve_pass(spec, args)
    else:
        import enginepass

        out = enginepass.engine_pass(spec, args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
