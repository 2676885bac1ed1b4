#!/usr/bin/env python3
"""Interleaved A/B run of the end-to-end benchmark: HEAD against the working
tree.

    python3 scripts/perf_ab.py

HEAD is exported with `git archive`; the working tree's files (tracked, plus
untracked files that are not ignored) are copied as they are on disk, so
uncommitted edits are measured.  Both copies live in a temporary directory
and each side builds perfbench into its own CARGO_TARGET_DIR there; nothing
is written under the repository.

For seeds 1 and 7777, every workload BENCHMARK.json lists runs PAIRS
interleaved base/change pairs of its `command` with `--seconds <run_seconds>
--trace 0`.  Pair i of every workload and seed runs before pair i + 1 of any,
so each workload's pairs spread across the session, and the side that goes
first alternates from pair to pair.  Every run is pinned to one CPU, the
same one for both sides.

For each seed the report is a markdown table: per workload and end-to-end
metric, the median of each side, change/base, pairs won by the change (ties
count for neither side; `better` gives the direction), the base's IQR,
"resolved" when the medians differ by more than that IQR, and whether the
change is within the metric's `bound`.  A second table gives failed ops per
side and whether sim_fingerprint matched.  Exit status 1 when a run fails
or prints "correct": false, when the change side fails a larger share of
the ops it attempted than the base side (runs are time-bounded, so the two
sides attempt different numbers of ops), or when a resolved metric is worse
than its bound.  A full session takes about 80 minutes.
"""
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile

PAIRS = 10
SEEDS = (1, 7777)
SIDES = ("base", "change")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FINGERPRINT = re.compile(r"^sim_fingerprint (0x[0-9a-f]+)$", re.M)


def git(*args, **kw):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          stdout=subprocess.PIPE, **kw).stdout


def parse_run(rc, stdout):
    """One benchmark run: its exit status and stdout, whose last line is the
    JSON result and which prints `sim_fingerprint 0x...` above it."""
    run = {"ok": False, "failed": 0, "attempted": 0, "metrics": {},
           "fingerprint": None, "error": ""}
    m = FINGERPRINT.search(stdout)
    if m:
        run["fingerprint"] = m.group(1)
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        run["error"] = "exit %d, no JSON result" % rc
        return run
    run["failed"] = int(result.get("failed", 0))
    run["attempted"] = int(result.get("attempted", 0))
    run["metrics"] = {k: v["value"] for k, v in result["metrics"].items()}
    run["ok"] = rc == 0 and result.get("correct") is True
    if not run["ok"]:
        run["error"] = "exit %d, correct: %s" % (rc, result.get("correct"))
    return run


def iqr(xs):
    """Q3 - Q1, quartiles by linear interpolation between order statistics."""
    if len(xs) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q3 - q1


def worse_by(base, change, better):
    """How much worse the change is than the base, as a fraction of it
    (negative when better)."""
    gap = change - base if better == "lower" else base - change
    if base == 0:
        return 0.0 if gap <= 0 else float("inf")
    return gap / abs(base)


def metric_row(pairs, metric):
    """pairs: [(base value, change value)] of one metric."""
    base = [b for b, _ in pairs]
    change = [c for _, c in pairs]
    mb, mc = statistics.median(base), statistics.median(change)
    sign = 1 if metric["better"] == "higher" else -1
    spread = iqr(base)
    return {
        "metric": metric["name"],
        "base": mb,
        "change": mc,
        "ratio": mc / mb if mb else float("nan"),
        "wins": sum(1 for b, c in pairs if sign * (c - b) > 0),
        "pairs": len(pairs),
        "iqr": spread,
        "resolved": abs(mc - mb) > spread,
        "within": worse_by(mb, mc, metric["better"]) <= metric["bound"],
    }


def summarize(results, spec):
    """results: {workload: [(base run, change run)]} of one seed, runs as
    parse_run returns them.  Returns (metric rows, workload rows, problems);
    any problem makes the session exit 1."""
    rows, health, problems = [], [], []
    for wl, pairs in results.items():
        for i, pair in enumerate(pairs):
            for side, run in zip(SIDES, pair):
                if not run["ok"]:
                    problems.append("%s: %s run of pair %d failed (%s)"
                                    % (wl, side, i + 1, run["error"]))
        good = [(b, c) for b, c in pairs if b["ok"] and c["ok"]]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            vals = [(b["metrics"][name], c["metrics"][name]) for b, c in good
                    if name in b["metrics"] and name in c["metrics"]]
            if not vals:
                continue
            row = dict(metric_row(vals, metric), workload=wl)
            rows.append(row)
            if row["resolved"] and not row["within"]:
                problems.append("%s: %s is worse than its bound %g"
                                % (wl, name, metric["bound"]))
        failed = [sum(p[k]["failed"] for p in pairs) for k in range(2)]
        attempted = [sum(p[k]["attempted"] for p in pairs) for k in range(2)]
        # failed[1] / attempted[1] > failed[0] / attempted[0], undivided.
        if failed[1] * attempted[0] > failed[0] * attempted[1]:
            problems.append("%s: change failed %d of %d ops, base %d of %d"
                            % (wl, failed[1], attempted[1], failed[0],
                               attempted[0]))
        prints = [{p[k]["fingerprint"] for p in pairs} for k in range(2)]
        health.append({"workload": wl, "failed": failed,
                       "attempted": attempted, "fingerprints": prints})
    return rows, health, problems


def fingerprint_cell(prints):
    base, change = prints
    if len(base) == 1 and base == change and None not in base:
        return "match " + next(iter(base))
    return "DIFFER: base %s, change %s" % (
        " ".join(sorted(map(str, base))), " ".join(sorted(map(str, change))))


def format_tables(title, rows, health):
    yes = {True: "yes", False: "**no**"}
    out = [title, "",
           "| workload | metric | base median | change median | change/base "
           "| change wins | base IQR | resolved | within bound |",
           "|---|---|---:|---:|---:|---:|---:|---|---|"]
    for r in rows:
        out.append("| %s | %s | %.6g | %.6g | %.4f | %d/%d | %.3g | %s | %s |"
                   % (r["workload"], r["metric"], r["base"], r["change"],
                      r["ratio"], r["wins"], r["pairs"], r["iqr"],
                      "yes" if r["resolved"] else "no", yes[r["within"]]))
    out += ["", "| workload | failed ops, base | failed ops, change "
            "| sim_fingerprint |", "|---|---:|---:|---|"]
    for h in health:
        out.append("| %s | %d of %d | %d of %d | %s |"
                   % (h["workload"], h["failed"][0], h["attempted"][0],
                      h["failed"][1], h["attempted"][1],
                      fingerprint_cell(h["fingerprints"])))
    return "\n".join(out) + "\n"


def report(results, spec, header):
    """results: {seed: {workload: [(base run, change run)]}}; header(seed)
    titles that seed's tables.  Returns (markdown, exit status)."""
    text, status = [], 0
    for seed, by_workload in results.items():
        rows, health, problems = summarize(by_workload, spec)
        text.append(format_tables(header(seed), rows, health))
        text += ["FAIL: seed %d: %s" % (seed, p) for p in problems]
        status = 1 if problems else status
    return "\n".join(text), status


def snapshot_working_tree(dest):
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for rel in sorted(set(names.decode().split("\0")) - {""}):
        src = os.path.join(ROOT, rel)
        if not os.path.lexists(src) or os.path.isdir(src):
            continue  # deleted in the working tree, or a submodule
        dst = os.path.join(dest, rel)
        os.makedirs(os.path.dirname(dst), exist_ok=True)
        shutil.copy2(src, dst, follow_symlinks=False)


def run_side(spec, tree, target, workload, seed, seconds, timeout):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    try:
        p = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return dict(parse_run(-1, ""), error="timed out after %g s" % timeout)
    run = parse_run(p.returncode, p.stdout)
    if not run["ok"]:
        run["error"] += "; stderr tail: " + " | ".join(
            p.stderr.strip().splitlines()[-3:])
    return run


def main(argv):
    if argv:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sha = git("rev-parse", "--verify", "HEAD^{commit}").decode().strip()
    cpus = sorted(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(prefix="perf_ab-") as tmp:
        trees = {s: os.path.join(tmp, s) for s in SIDES}
        targets = {s: os.path.join(tmp, s + "-target") for s in SIDES}
        for path in trees.values():
            os.makedirs(path)
        subprocess.run(["tar", "-x", "-C", trees["base"]], check=True,
                       input=git("archive", "--format=tar", sha))
        snapshot_working_tree(trees["change"])
        # One short run per side builds its perfbench before any timing.
        for side in SIDES:
            print("perf_ab: building %s" % side, file=sys.stderr, flush=True)
            run = run_side(spec, trees[side], targets[side], workloads[0], 1,
                           1, None)
            if not run["ok"]:
                print("perf_ab: %s build run failed: %s"
                      % (side, run["error"]), file=sys.stderr)
                return 1
        os.sched_setaffinity(0, {cpus[-1]})
        results = {seed: {wl: [] for wl in workloads} for seed in SEEDS}
        total, done = PAIRS * len(SEEDS) * len(workloads), 0
        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for seed in SEEDS:
                for wl in workloads:
                    runs = {s: run_side(spec, trees[s], targets[s], wl, seed,
                                        seconds, 10 * seconds + 120)
                            for s in order}
                    results[seed][wl].append((runs["base"], runs["change"]))
                    done += 1
                    print("perf_ab: pair %d/%d  seed %d  %s  wall_s %s / %s"
                          % (done, total, seed, wl,
                             runs["base"]["metrics"].get("wall_s"),
                             runs["change"]["metrics"].get("wall_s")),
                          file=sys.stderr, flush=True)

    def header(seed):
        return ("### seed %d: HEAD (%s) vs working tree\n\ncpus=%d, affinity "
                "set %s; both sides pinned to CPU %d; %d pairs per workload, "
                "--seconds %g --trace 0"
                % (seed, sha[:12], os.cpu_count(),
                   ",".join(map(str, cpus)), cpus[-1], PAIRS, seconds))
    text, status = report(results, spec, header)
    print(text)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
