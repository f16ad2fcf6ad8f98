#!/usr/bin/env python3
"""Runs perfbench on a parent and a change, and judges the change.

    tools/bench_pair.py --base SIDE [--head SIDE] [--pairs N] [--out FILE]

A SIDE is a git revision followed by optional NAME=VALUE environment
assignments, as one argument: `d82faab`, `HEAD`, `'HEAD AERIE_DIRECT=off'`.
--head defaults to HEAD. A side is a commit: uncommitted edits are not run.

Each side is checked out as a git worktree under .bench_build/pair/ (one
worktree serves both sides when they name the same commit) and builds into
its own CARGO_TARGET_DIR there. For pair i = 1..N and every BENCHMARK.json
workload, the tool runs `python3 perfbench/run.py --workload W --seed i
--seconds <run_seconds>` once per side, the base first in odd pairs and the
change first in even ones. Run length is BENCHMARK.json's run_seconds. Each
run's stdout and stderr are kept in .bench_build/pair/runs/; the last
stdout line, the JSON summary, is what the tool reads.

Every BENCHMARK.json end-to-end metric on every workload gets a verdict from
the metric's `better` direction and relative `bound`:

  regression  the change's median is worse than the base's by more than
              the bound (relative to the base median);
  unresolved  the base's interquartile range is wider than the bound
              (relative to its median), unless every change run is better
              than every base run;
  ok          otherwise.

The record (sides, SHAs, host, every run's value, medians, the base's IQR,
the change's win count and the verdict) goes to --out, by default
BENCH_<yyyymmdd>.json at the repository root. The tool exits 1 on any
regression, on any run whose summary says "correct": false, or when the
change fails a larger share of its attempted operations than the base on
some workload; 2 when a run gives no summary; 0 otherwise. It reads
perfbench/ and BENCHMARK.json and never edits them.
"""

import argparse
import datetime
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "pair"
SIDES = ("base", "head")
# One run measures for run_seconds; the first run of a side also builds.
RUN_TIMEOUT_S = 1800


def parse_side(text):
    words = text.split()
    if not words:
        raise ValueError("empty side")
    env = {}
    for word in words[1:]:
        name, sep, value = word.partition("=")
        if not sep or not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name):
            raise ValueError("%r is not a NAME=VALUE assignment" % word)
        env[name] = value
    return {"spec": text, "rev": words[0], "env": env}


def git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def quantile(values, q):
    """Linear interpolation between the closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def relative(delta, reference):
    if reference:
        return delta / abs(reference)
    return float("inf") if delta > 0 else 0.0


def compare(base, head, better, bound):
    """Verdict for one metric; `base` and `head` are per-pair values."""
    sign = 1 if better == "higher" else -1
    base_median, head_median = quantile(base, 0.5), quantile(head, 0.5)
    base_iqr = quantile(base, 0.75) - quantile(base, 0.25)
    if relative((base_median - head_median) * sign, base_median) > bound:
        verdict = "regression"
    elif (relative(base_iqr, base_median) > bound and
          min(v * sign for v in head) <= max(v * sign for v in base)):
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {
        "base": base, "head": head,
        "base_median": base_median, "head_median": head_median,
        "base_iqr": base_iqr,
        "wins": sum(1 for b, h in zip(base, head) if (h - b) * sign > 0),
        "verdict": verdict,
    }


def judge(spec, runs):
    """runs[workload][side] lists the run summaries in pair order. Returns
    the per-workload record and the reasons the change fails the gate."""
    failures = []
    record = {}
    for workload, sides in runs.items():
        entry = {"correct": {}, "attempted": {}, "failed": {}, "metrics": {}}
        for side in SIDES:
            entry["correct"][side] = [r["correct"] for r in sides[side]]
            entry["attempted"][side] = sum(r["attempted"]
                                           for r in sides[side])
            entry["failed"][side] = sum(r["failed"] for r in sides[side])
            if not all(entry["correct"][side]):
                failures.append("%s: a %s run returned wrong data "
                                "(\"correct\": false)" % (workload, side))
        share = {side: relative(entry["failed"][side],
                                entry["attempted"][side]) for side in SIDES}
        if share["head"] > share["base"]:
            failures.append("%s: the change fails %d of %d operations, the "
                            "base %d of %d" % (
                                workload, entry["failed"]["head"],
                                entry["attempted"]["head"],
                                entry["failed"]["base"],
                                entry["attempted"]["base"]))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = compare(
                [r["metrics"][name]["value"] for r in sides["base"]],
                [r["metrics"][name]["value"] for r in sides["head"]],
                metric["better"], metric["bound"])
            row.update(unit=metric["unit"], better=metric["better"],
                       bound=metric["bound"])
            entry["metrics"][name] = row
            if row["verdict"] == "regression":
                failures.append("%s %s: median %.6g -> %.6g %s, worse by "
                                "more than the %g bound" % (
                                    workload, name, row["base_median"],
                                    row["head_median"], metric["unit"],
                                    metric["bound"]))
        record[workload] = entry
    return record, failures


def load_summary(path):
    """The JSON summary a perfbench run prints as its last line, or None."""
    lines = Path(path).read_text().strip().splitlines()
    try:
        summary = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return summary if isinstance(summary, dict) else None


def host():
    models = re.findall(r"^model name\s*:\s*(.*)$",
                        Path("/proc/cpuinfo").read_text(), re.M)
    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu": models[0] if models else "unknown"}


def run_once(side, workload, seed, seconds, out_path):
    env = dict(os.environ)
    env.update(side["env"])
    env["CARGO_TARGET_DIR"] = str(side["target"])
    err_path = out_path.with_suffix(".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(seed), "--seconds", "%g" % seconds],
            cwd=side["tree"], env=env, stdout=out, stderr=err,
            timeout=RUN_TIMEOUT_S)
    summary = load_summary(out_path)
    if summary is None:
        raise RuntimeError("%s run exited %d without a summary; see %s" % (
            workload, proc.returncode, err_path))
    return summary


def print_table(record):
    print("%-14s %-14s %12s %12s %8s %8s %5s  %s" % (
        "workload", "metric", "base", "change", "delta", "base IQR",
        "wins", "verdict"))
    for workload, entry in record.items():
        for name, row in entry["metrics"].items():
            base = row["base_median"]
            print("%-14s %-14s %12.6g %12.6g %+7.1f%% %7.1f%% %2d/%-2d  %s" % (
                workload, name, base, row["head_median"],
                100 * relative(row["head_median"] - base, base),
                100 * relative(row["base_iqr"], base), row["wins"],
                len(row["head"]), row["verdict"]))


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter, epilog=__doc__)
    ap.add_argument("--base", required=True, help="parent side")
    ap.add_argument("--head", default="HEAD", help="change side")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", help="record path (default BENCH_<date>.json)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    try:
        sides = {"base": parse_side(args.base), "head": parse_side(args.head)}
    except ValueError as e:
        ap.error(str(e))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    today = datetime.date.today()
    out = Path(args.out or ROOT / ("BENCH_%s.json" % today.strftime("%Y%m%d")))

    runs_dir = WORK / "runs"
    shutil.rmtree(runs_dir, ignore_errors=True)
    runs_dir.mkdir(parents=True)
    trees = []
    try:
        for name, side in sides.items():
            side["sha"] = git("rev-parse", "--verify",
                              side["rev"] + "^{commit}")
            side["tree"] = WORK / ("tree-" + side["sha"][:12])
            side["target"] = WORK / ("%s-%s" % (name, side["sha"][:12]))
            if side["tree"] not in trees:
                shutil.rmtree(side["tree"], ignore_errors=True)
                git("worktree", "prune")
                git("worktree", "add", "--detach", "--force",
                    str(side["tree"]), side["sha"])
                trees.append(side["tree"])

        runs = {w["name"]: {s: [] for s in SIDES} for w in spec["workloads"]}
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for workload in runs:
                for name in order:
                    path = runs_dir / ("%s-%s-%d.out" % (workload, name, pair))
                    summary = run_once(sides[name], workload, pair,
                                       spec["run_seconds"], path)
                    runs[workload][name].append(summary)
                    print("pair %d/%d %-14s %-4s ops_per_s=%.6g correct=%s" % (
                        pair, args.pairs, workload, name,
                        summary["metrics"]["ops_per_s"]["value"],
                        summary["correct"]), file=sys.stderr, flush=True)
    except (RuntimeError, subprocess.SubprocessError) as e:
        print("bench_pair: %s %s" % (e, getattr(e, "stderr", None) or ""),
              file=sys.stderr)
        return 2
    finally:
        for tree in trees:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                            "--force", str(tree)], capture_output=True)

    record, failures = judge(spec, runs)
    out.write_text(json.dumps({
        "date": today.isoformat(),
        "host": host(),
        "run_seconds": spec["run_seconds"],
        "pairs": args.pairs,
        "base": {k: sides["base"][k] for k in ("spec", "sha", "env")},
        "head": {k: sides["head"][k] for k in ("spec", "sha", "env")},
        "workloads": record,
        "failures": failures,
    }, indent=1) + "\n")
    print_table(record)
    print("record: %s" % out)
    for failure in failures:
        print("FAIL: " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
