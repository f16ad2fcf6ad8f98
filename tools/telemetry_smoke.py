#!/usr/bin/env python3
"""CI smoke test for the live telemetry plane.

Launches a real multi-client bench (table3_multiclient) with the
shared-memory publisher enabled in a private segment directory, attaches
aerie_top --json MID-RUN (while the bench is still working), and validates
the document with `tools/validate.py telemetry` — requiring at least one
live process, at least one per-layer span row, a nonzero logical write
byte count so the write-amplification pipeline is proven end to end, and
nonzero lock-wait attribution so the off-CPU wait plane is proven on a
genuinely contended multi-client run. The sampling profiler is enabled
(AERIE_PROF=1) so SIGPROF coexisting with the shm publisher is exercised
here too.

The sample is taken on a condition, not after a fixed delay: table3 flushes
stdout after every data point, so once the single-client Fileserver figure
has printed, the multi-client phase (the one with lock waits) is running.

Stdlib only; wired as the `telemetry_smoke` ctest target.

Usage:
  tools/telemetry_smoke.py --bench build/bench/table3_multiclient \
      --aerie-top build/tools/aerie_top
"""

import argparse
import glob
import json
import os
import re
import select
import subprocess
import sys
import tempfile
import time


# Table 3's first row is "Fileserver (FS) | <1 client> <2 clients> ...";
# a figure after the bar means the 1-client point is done.
MULTI_CLIENT_PHASE = re.compile(rb"Fileserver \(FS\)\s*\|\s*\d+")


def wait_for_multi_client_phase(bench, deadline):
    """Reads the bench's stdout until the multi-client phase has begun.
    Returns None on success, else the reason it never began."""
    out = b""
    fd = bench.stdout.fileno()
    while not MULTI_CLIENT_PHASE.search(out):
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            return "the multi-client phase did not begin within the deadline"
        ready, _, _ = select.select([fd], [], [], remaining)
        if not ready:
            continue
        chunk = os.read(fd, 4096)
        if not chunk:
            return "bench exited (rc=%s) before its multi-client phase" % (
                bench.wait())
        out += chunk
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bench", required=True,
                        help="path to the table3_multiclient binary")
    parser.add_argument("--aerie-top", required=True,
                        help="path to the aerie_top binary")
    parser.add_argument("--seconds", type=float, default=3.0,
                        help="bench seconds per data point (default 3)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="overall deadline in seconds (default 120)")
    args = parser.parse_args()

    tools_dir = os.path.dirname(os.path.abspath(__file__))
    deadline = time.monotonic() + args.timeout

    with tempfile.TemporaryDirectory(prefix="aerie_telemetry_smoke_") as shm:
        env = dict(os.environ)
        env.update({
            "AERIE_OBS": "spans",
            "AERIE_OBS_SHM_DIR": shm,
            "AERIE_OBS_SHM_INTERVAL_MS": "50",
            "AERIE_PROF": "1",
            # Scale 0.05 (not 0.02): the lock-wait gate below needs enough
            # clients per directory tree that acquires actually contend.
            "AERIE_BENCH_SCALE": "0.05",
            "AERIE_BENCH_SECONDS": "%g" % args.seconds,
        })
        bench = subprocess.Popen(
            [args.bench], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            reason = wait_for_multi_client_phase(bench, deadline)
            if reason is not None:
                print("FAIL: " + reason)
                return 1
            if not glob.glob(os.path.join(shm, "aerie.obs.*")):
                print("FAIL: bench published no telemetry segment")
                return 1
            if bench.poll() is not None:
                print("FAIL: bench exited before aerie_top could attach")
                return 1
            top = subprocess.run(
                [args.aerie_top, "--json", "--dir", shm, "--interval",
                 "500"],
                capture_output=True, text=True,
                timeout=max(5.0, deadline - time.monotonic()))
            if top.returncode != 0:
                print("FAIL: aerie_top exited %d\n%s" %
                      (top.returncode, top.stderr))
                return 1
            attached_live = bench.poll() is None
        finally:
            bench.terminate()
            try:
                bench.wait(timeout=30)
            except subprocess.TimeoutExpired:
                bench.kill()
                bench.wait()

        doc_path = os.path.join(shm, "top.json")
        with open(doc_path, "w") as f:
            f.write(top.stdout)

        # Sanity-parse before handing to the validator for nicer errors.
        try:
            doc = json.loads(top.stdout)
        except json.JSONDecodeError as e:
            print("FAIL: aerie_top --json emitted invalid JSON: %s\n%s"
                  % (e, top.stdout[:2000]))
            return 1

        rc = subprocess.call([
            sys.executable, os.path.join(tools_dir, "validate.py"),
            "telemetry", "--min-processes", "1", "--min-layers", "1",
            "--require-logical-writes", "--require-lock-wait", doc_path])
        if rc != 0:
            return rc

        if not attached_live:
            print("FAIL: bench finished before the sample was taken — "
                  "increase --seconds so aerie_top attaches mid-run")
            return 1

        print("OK: attached mid-run; %d process(es), %d layer row(s), "
              "write amp %.2fx over %d logical bytes" % (
                  len(doc["processes"]), len(doc["layers"]),
                  doc["write_amp"]["amplification"],
                  doc["write_amp"]["logical_bytes"]))
        return 0


if __name__ == "__main__":
    sys.exit(main())
