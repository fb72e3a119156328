"""One CLI job in a fresh interpreter.

Usage: python3 perfbench/worker.py SPEC.json

SPEC holds ``argv`` for ``focklattice.cli.main`` (omit it to stop once the
CLI is imported, which is how set-up time is measured), ``trace`` and
``meta``, the path this process writes its measurements to.  The parent
reads ``ready`` (CLOCK_MONOTONIC, shared by all processes on the machine)
to time interpreter start plus import.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import focklattice.cli as cli
    ready = time.monotonic()
    expected = os.path.abspath(spec["package_dir"])
    if os.path.dirname(os.path.abspath(cli.__file__)) != expected:
        raise SystemExit(f"imported {cli.__file__}, expected {expected}")
    out = {"ready": ready}
    if "argv" in spec:
        rec = None
        if spec.get("trace"):
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracing import Recorder
            rec = Recorder()
            rec.install()
        t0 = time.perf_counter()
        try:
            rc = rec.run_root(cli.main, spec["argv"]) if rec else cli.main(spec["argv"])
        finally:
            out["main_s"] = time.perf_counter() - t0
            if rec:
                rec.restore()
        out["rc"] = rc
        out["spans"] = rec.spans if rec else None
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(spec["meta"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
