#!/usr/bin/env python3
"""End-to-end benchmark of the Aerie stack.

    python3 perfbench/run.py --workload varmail|webserver|webproxy_flat \
        --seed N --seconds S --trace 0|1

fileserver_mix (concurrent clients) also runs, but is not a BENCHMARK.json
workload: at this commit its clients lose acknowledged appends.

Run from the repository root. Builds perfbench/ (the harness plus the
repository's src/) with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), runs one workload as closed loops, checks that the
file system returned correct data (read-back checksums, fsck, and for
varmail crash recovery of every Fsync'ed file), and prints a header with the
configuration and host, the metrics, and as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of a timed window. --trace 1 splits
the window into a timed half and a traced half (obs spans on) and reports
the per-layer metrics of the traced half plus the tracing overhead. Each run
is PROCESSES harness processes and reports per-metric medians. The record
of each run, and the spans of the latest traced run of each workload, are
kept in <build dir>/results/. Exits non-zero when a correctness check fails
or a metric cannot be measured.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

WORKLOADS = ["varmail", "webserver", "fileserver_mix", "webproxy_flat"]
# Environment knobs that change behaviour, with the program's defaults.
KNOB_DEFAULTS = {"AERIE_DIRECT": "on", "AERIE_OBS": "counters",
                 "AERIE_PROF": "off"}
DEADLINE_S = 175
# Each run is this many harness processes (own system, fileset and seed,
# --seconds split evenly); every metric is the median over them, which
# absorbs the process-to-process offsets a single process cannot.
PROCESSES = 3


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build(root, build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B",
                        str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "aerie_perfbench", "-j", "3"],
                   check=True, stdout=sys.stderr, timeout=840)
    return build_dir / "aerie_perfbench"


def flush_instruction(root):
    """The cache-line flush the program issues, read from its source."""
    src = (root / "src" / "scm" / "pmem.cc").read_text()
    found = re.findall(r"__builtin_ia32_(clwb|clflushopt|clflush)\b", src)
    return ",".join(sorted(set(found))) or "none (fence only)"


def header(args, rec, root):
    s, h = rec["settings"], rec["host"]
    knobs = dict(KNOB_DEFAULTS)
    knobs.update({k: v for k, v in os.environ.items()
                  if k.startswith("AERIE_")})
    knobs["AERIE_OBS_SHM_DIR"] = "<run directory>"
    return [
        "perfbench workload=%s seed=%d seconds=%g trace=%d processes=%d" % (
            args.workload, args.seed, args.seconds, args.trace, PROCESSES),
        "config: clients=%d pxfs + %d flatfs (closed loop, one thread "
        "each), rpc_delay_ns=%d (modelled round trip), scm_write_ns=%d, "
        "program options at defaults" % (
            s["pxfs_clients"], s["flat_clients"], s["rpc_delay_ns"],
            s["scm_write_ns"]),
        "space: region_bytes=%d fileset_bytes=%d fileset_files=%d "
        "log_rotate_bytes=%d" % (s["region_bytes"], rec["fileset_bytes"],
                                 rec["fileset_files"],
                                 s["log_rotate_bytes"]),
        "env: " + " ".join("%s=%s" % kv for kv in sorted(knobs.items())),
        "effective: obs_mode=%s direct_path=%s" % (
            ["off", "counters", "spans"][s["obs_mode"]],
            "on" if s["direct_enabled"] else "off"),
        "host: nproc=%d cpu=%r cpu_flush_support=%s flush_instruction=%s" % (
            h["nproc"], h["cpu_model"], h["cpu_flush_support"],
            flush_instruction(root)),
    ]


def run_harness(binary, args, seed, seconds, run_dir, env, deadline, keep):
    """Runs one harness process; returns (record, windows) or an exit code.
    A traced run's spans are kept as `keep`."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(args.trace), "--out",
           str(run_dir), "--scale", repr(args.scale)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr,
                              timeout=max(10.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            log("perfbench: harness exited with %d" % proc.returncode)
            return 4
        rec = json.loads((run_dir / "result.json").read_text())
        windows = [metrics.Window(w, metrics.load_spans(w["spans_file"]))
                   for w in rec["windows"]]
        if args.trace:
            shutil.copyfile(rec["windows"][-1]["spans_file"], keep)
        return rec, windows
    except subprocess.TimeoutExpired:
        log("perfbench: harness timed out")
        return 4
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def check_line(chk):
    return "%s read-back %d sampled, %d mismatched, %d wrong-size reads, " \
        "%d failed final syncs; fsck: %s%s" % (
            "PASS" if chk["ok"] else "FAIL", chk["sampled"],
            chk["mismatches"], chk["size_mismatches"], chk["sync_failures"],
            chk["fsck_summary"],
            "; recovery: %d Fsync'ed files checked, %d missing, "
            "%d mismatched" % (chk["recovery_checked"],
                               chk["recovery_missing"],
                               chk["recovery_mismatches"])
            if chk["recovery_run"] else "")


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    # Smaller filesets: the harness's own smoke tests only.
    ap.add_argument("--scale", type=float, default=1.0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path(__file__).resolve().parent.parent
    if not (root / "src" / "CMakeLists.txt").exists():
        log("perfbench: no Aerie sources at %s/src; run from a checkout" %
            root)
        return 2
    build_root = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    try:
        binary = build(root, build_root / "perfbench")
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as e:
        log("perfbench: build failed: %s" % e)
        return 2
    # A first run also builds; its measurement still gets the full budget.
    deadline = max(deadline, time.monotonic() + DEADLINE_S - 30)

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    results = build_root / "results"
    results.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    runs = []
    for i in range(PROCESSES):
        run_dir = build_root / "runs" / ("%s-%d-%d" % (tag, os.getpid(), i))
        # The obs telemetry segment (on by default) goes in the run
        # directory rather than /dev/shm, so runs write only in the checkout.
        env["AERIE_OBS_SHM_DIR"] = str(run_dir)
        # Spans of the latest traced run of each workload, per process.
        keep = results / ("%s-traced-p%d.spans" % (args.workload, i))
        got = run_harness(binary, args, args.seed * PROCESSES + i,
                          args.seconds / PROCESSES, run_dir, env, deadline,
                          keep)
        if isinstance(got, int):
            return got
        runs.append(got)

    units = metric_units(root)
    out = header(args, runs[0][0], root)
    per_run = []
    for i, (rec, windows) in enumerate(runs):
        w = windows[-1]
        if args.trace:
            values = metrics.per_layer(w, windows[0])
        else:
            values = metrics.end_to_end(w, rec["setup_s"],
                                        rec["peak_rss_bytes"],
                                        rec["settings"]["region_bytes"])
        per_run.append(values)
        out.append("process %d: seed=%d setup_s=%.3f window_s=%.3f "
                   "attempted=%d failed=%d latency_samples=%d "
                   "fsync_samples=%d used_scm_mb=%.0f..%.0f check: %s" % (
                       i, rec["seed"], rec["setup_s"], w.seconds, w.attempted,
                       w.failed, w.succeeded,
                       sum(len(w.ok_lat[op]) for op in metrics.DURABILITY_OPS),
                       rec["windows"][0]["used_bytes_before"] / 2**20,
                       rec["windows"][-1]["used_bytes_after"] / 2**20,
                       check_line(rec["check"])))
        out.append("  calls (n, p50/p99 us): " + ", ".join(
            "%s %d %s/%s" % (op, n, fmt(p50), fmt(p99))
            for op, (n, p50, p99) in metrics.op_table(w).items()))
        for p in rec["check"]["problems"] + rec["errors"]:
            out.append("  problem: " + p)
    values = metrics.median_of(per_run)
    out.append("metrics (median of %d processes):" % len(runs))
    for name in sorted(values):
        out.append("  %-38s %s %s" % (name, fmt(values[name]), units[name]))
    attempted = sum(r[1][-1].attempted for r in runs)
    failed = sum(r[1][-1].failed for r in runs)
    correct = all(r[0]["check"]["ok"] for r in runs)
    out.append("calls: attempted=%d failed=%d op_fail_ratio=%.6g" % (
        attempted, failed, failed / attempted if attempted else 0.0))
    print("\n".join(out), flush=True)

    (results / (tag + ".json")).write_text(json.dumps(
        {"processes": [r[0] for r in runs], "metrics": values}, indent=1))

    unmeasured = sorted(k for k, v in values.items() if v is None)
    if not args.trace and unmeasured:
        log("perfbench: end-to-end metrics not measurable (too few samples "
            "beyond the percentile): %s" % ", ".join(unmeasured))
        return 3
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": 0.0 if v is None else v, "unit": units[k]}
                    for k, v in sorted(values.items())},
    }), flush=True)
    return 0 if correct else 1


def fmt(v):
    return "n/a" if v is None else "%.6g" % v


def metric_units(root):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
