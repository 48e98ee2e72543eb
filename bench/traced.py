"""Run one ltisec CLI call, or one set-up probe, under the tracer.

Usage: python bench/traced.py STATS.json SPANS.npz cli ARGS...
       python bench/traced.py STATS.json SPANS.npz probe SCENARIO...

The tracer is installed after ``import ltisec``, so import time stays out of
the spans (it is measured separately with ``python -X importtime``).  The
per-name stats go to STATS.json for the parent to merge; the raw spans go
to SPANS.npz.  The exit code is the CLI's.
"""

from __future__ import annotations

import json
import sys

import numpy as np

import ltisec
import ltisec.cli
from tracer import Tracer


def main() -> int:
    stats_path, spans_path, mode, *rest = sys.argv[1:]
    tracer = Tracer()
    tracer.install()
    try:
        if mode == "cli":
            rc = ltisec.cli.main(rest)
        elif mode == "probe":
            for path in rest:
                ltisec.load_scenario(path)
            rc = 0
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    finally:
        tracer.uninstall()
        with open(stats_path, "w") as fh:
            json.dump(tracer.stats(), fh)
        np.savez(spans_path, **tracer.spans())
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
