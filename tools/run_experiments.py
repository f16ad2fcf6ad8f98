#!/usr/bin/env python3
"""Runs every paper bench binary and copies its tables into EXPERIMENTS.md.

    tools/run_experiments.py [--build-dir build] [--raw FILE]

Runs the 12 binaries in bench/ one after another at the scales below (each
sized to finish in a minute or two on a small host; AERIE_BENCH_SCALE=1.0
with longer windows reproduces the paper's sizes), with AERIE_OBS=counters
and AERIE_BENCH_SEED=42. Every other AERIE_* variable passes through, so
AERIE_PROF=1 makes the sweep a profile run. Writes each binary's stdout to
--raw (default <build dir>/experiments_raw.txt), then replaces the fenced
block after each `<!-- MEASURED_* -->` marker in EXPERIMENTS.md with that
binary's stdout (OBS_JSON lines dropped), so a rerun refreshes the same
slots. Exits non-zero, leaving EXPERIMENTS.md untouched, when a binary
fails.
"""

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (binary, EXPERIMENTS.md slot or None, scale, seconds, threads, extra args)
EXPERIMENTS = [
    ("fig1_vfs_breakdown", "MEASURED_FIG1", 0.1, 1, 1, []),
    ("table1_microbench", "MEASURED_TABLE1", 0.25, 1, 1, []),
    ("table2_filebench", "MEASURED_TABLE2", 0.2, 3, 1, []),
    ("fig5_thread_scaling", "MEASURED_FIG5", 0.05, 1.5, 4, []),
    ("table3_multiclient", "MEASURED_TABLE3", 0.15, 2, 1, []),
    ("fig6_write_latency", "MEASURED_FIG6", 0.05, 2, 1, []),
    ("micro_permission_change", "MEASURED_PERM", 0.25, 1, 1, []),
    ("ablation_batching", "MEASURED_BATCHING", 0.1, 2, 1, []),
    ("ablation_name_cache", "MEASURED_NAMECACHE", 0.2, 2, 1, []),
    ("ablation_lock_modes", "MEASURED_LOCKMODES", 0.1, 2, 1, []),
    ("ablation_rpc_cost", "MEASURED_RPC", 0.05, 1, 1, []),
    ("gbench_primitives", "MEASURED_GBENCH", 0.1, 1, 1,
     ["--benchmark_min_time=0.2"]),
]


def fill(markdown, slot, body):
    """Replaces the fenced block after `<!-- slot -->` (or inserts one)."""
    pattern = re.compile(r"(<!-- %s -->\n)(```\n.*?\n```\n)?" % slot,
                         re.DOTALL)
    block = "```\n" + body.strip("\n") + "\n```\n"
    return pattern.sub(lambda m: m.group(1) + block, markdown, count=1)


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", default=str(ROOT / "build"))
    ap.add_argument("--raw", help="raw output file "
                    "(default <build dir>/experiments_raw.txt)")
    args = ap.parse_args(argv)
    bench_dir = Path(args.build_dir) / "bench"
    raw_path = Path(args.raw or Path(args.build_dir) / "experiments_raw.txt")
    md_path = ROOT / "EXPERIMENTS.md"
    for _, slot, *_ in EXPERIMENTS:
        if slot and "<!-- %s -->\n" % slot not in md_path.read_text():
            print("run_experiments: EXPERIMENTS.md has no <!-- %s --> "
                  "marker" % slot, file=sys.stderr)
            return 2

    outputs = {}
    with open(raw_path, "w") as raw:
        for name, slot, scale, seconds, threads, extra in EXPERIMENTS:
            env = dict(os.environ, AERIE_OBS="counters",
                       AERIE_BENCH_SEED="42",
                       AERIE_BENCH_SCALE="%g" % scale,
                       AERIE_BENCH_SECONDS="%g" % seconds,
                       AERIE_BENCH_THREADS=str(threads))
            header = "=== %s (scale=%g seconds=%g threads=%d) ===" % (
                name, scale, seconds, threads)
            print(header, file=sys.stderr, flush=True)
            proc = subprocess.run([str(bench_dir / name), *extra], env=env,
                                  stdout=subprocess.PIPE, text=True)
            raw.write("%s\n%s\n" % (header, proc.stdout))
            raw.flush()
            if proc.returncode != 0:
                print("run_experiments: %s exited %d; EXPERIMENTS.md left "
                      "as it was" % (name, proc.returncode), file=sys.stderr)
                return 1
            if slot:
                outputs[slot] = "\n".join(
                    line for line in proc.stdout.splitlines()
                    if not line.startswith("OBS_JSON "))

    markdown = md_path.read_text()
    for slot, body in outputs.items():
        markdown = fill(markdown, slot, body)
    md_path.write_text(markdown)
    print("run_experiments: filled %d slots in %s; raw output in %s" % (
        len(outputs), md_path, raw_path), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
