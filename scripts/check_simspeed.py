#!/usr/bin/env python3
"""Guard against simulator-throughput regressions.

Regression gate: compares the newest point of the BENCH_simspeed.json
trajectory against a baseline point on the scenarios they share: if any
scenario's sim_cycles_per_sec dropped by more than the tolerance (default
10%), exit non-zero.  The baseline is the newest earlier sequential-kernel
point, or the newest such point carrying --baseline=<label> when given.  A
sequential point is one with "shards": 1 or no "shards" field: the
trajectory keeps historical points of a since-removed multi-threaded
kernel (shards > 1), which are never a baseline.  Scenarios present in only
one of the two compared points get a warning on stderr; new scenarios
cannot regress, but scenarios dropped from the newest point fail the check
(a silently deleted benchmark would otherwise hide a regression).

Duplicate detection: a (label, scenario, shards) triple appearing on more
than one trajectory point draws a warning on stderr — re-running a benchmark
under an already-used label silently shadows the older numbers, which makes
"newest earlier point" baselines ambiguous.  The right fix is either a new
label for the new measurement or --latest-only.

--latest-only: before any gate runs, thin the trajectory to the NEWEST point
per (label, shards) pair, preserving file order.  This makes re-measured
labels well-defined (the latest measurement wins) and silences the duplicate
warnings for points the thinning removed.

Usage:
    scripts/check_simspeed.py [--trajectory BENCH_simspeed.json]
                              [--tolerance 0.10] [--baseline LABEL]
                              [--latest-only]
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys


def load_points(path: pathlib.Path) -> list[dict]:
    data = json.loads(path.read_text())
    points = data.get("points", [])
    if len(points) < 2:
        sys.exit(f"{path}: need at least 2 trajectory points, got {len(points)}")
    return points


def rates(point: dict) -> dict[str, float]:
    return {
        r["name"]: float(r["sim_cycles_per_sec"]) for r in point.get("results", [])
    }


def shards_of(point: dict) -> int:
    """Thread count of a historical multi-threaded-kernel point, else 1."""
    return int(point.get("shards", 1))


def label_of(point: dict) -> str:
    """A point's label, tolerating hand-edited files with the key missing.

    Every accessor goes through here so a malformed trajectory produces a
    readable comparison (against '<unlabelled>') rather than a KeyError
    traceback.
    """
    return str(point.get("label", "<unlabelled>"))


def warn_duplicates(points: list[dict]) -> int:
    """Warn (stderr) about (label, scenario, shards) triples measured twice.

    Returns the number of duplicated triples.  Duplicates are legal — the
    trajectory is append-only history — but they make label-based baselines
    ambiguous, so they deserve a loud note.
    """
    seen: dict[tuple[str, str, int], list[int]] = {}
    for i, p in enumerate(points):
        for r in p.get("results", []):
            key = (label_of(p), str(r["name"]), shards_of(p))
            seen.setdefault(key, []).append(i)
    dups = sorted(k for k, v in seen.items() if len(v) > 1)
    for label, name, shards in dups:
        idxs = seen[(label, name, shards)]
        print(f"check_simspeed: warning: duplicate trajectory point for "
              f"label '{label}' scenario '{name}' shards={shards} "
              f"(points {', '.join(str(i) for i in idxs)}); label-based "
              f"baselines use the newest — consider --latest-only or a "
              f"fresh label", file=sys.stderr)
    return len(dups)


def thin_to_latest(points: list[dict]) -> list[dict]:
    """Keep only the newest point per (label, shards), preserving order."""
    newest: dict[tuple[str, int], int] = {}
    for i, p in enumerate(points):
        newest[(label_of(p), shards_of(p))] = i
    keep = set(newest.values())
    kept = [p for i, p in enumerate(points) if i in keep]
    if len(kept) < len(points):
        print(f"check_simspeed: --latest-only kept {len(kept)} of "
              f"{len(points)} trajectory points (newest per label+shards)")
    return kept


def check_regression(points: list[dict], baseline_label: str | None,
                     tolerance: float) -> int:
    new = points[-1]
    if shards_of(new) != 1:
        print(f"check_simspeed: newest point '{label_of(new)}' is not a "
              f"sequential-kernel point; skipping regression gate")
        return 0
    candidates = [p for p in points[:-1] if shards_of(p) == 1]
    if baseline_label is not None:
        candidates = [p for p in candidates if label_of(p) == baseline_label]
        if not candidates:
            known = sorted({label_of(p) for p in points[:-1]
                            if shards_of(p) == 1})
            sys.exit(f"check_simspeed: no sequential baseline point labelled "
                     f"'{baseline_label}'; known points: {', '.join(known)}")
    if not candidates:
        print(f"check_simspeed: no earlier sequential point to compare "
              f"'{label_of(new)}' against; skipping regression gate")
        return 0
    prev = candidates[-1]
    prev_rates, new_rates = rates(prev), rates(new)

    for name in sorted(set(prev_rates) - set(new_rates)):
        print(f"check_simspeed: warning: scenario '{name}' present only in "
              f"baseline '{label_of(prev)}'", file=sys.stderr)
    for name in sorted(set(new_rates) - set(prev_rates)):
        print(f"check_simspeed: warning: scenario '{name}' present only in "
              f"newest point '{label_of(new)}'", file=sys.stderr)

    print(f"check_simspeed: '{label_of(prev)}' -> '{label_of(new)}' "
          f"(tolerance {tolerance:.0%})")

    failures = []
    for name in sorted(prev_rates):
        if name not in new_rates:
            failures.append(f"  {name}: present in '{label_of(prev)}' but "
                            f"missing from '{label_of(new)}'")
            continue
        old_v, new_v = prev_rates[name], new_rates[name]
        ratio = new_v / old_v if old_v > 0 else float("inf")
        marker = "OK "
        if ratio < 1.0 - tolerance:
            marker = "FAIL"
            failures.append(
                f"  {name}: {old_v:.6g} -> {new_v:.6g} cyc/s "
                f"({(ratio - 1.0) * 100:+.1f}%)")
        print(f"  [{marker}] {name}: {old_v:.6g} -> {new_v:.6g} cyc/s "
              f"({(ratio - 1.0) * 100:+.1f}%)")
    for name in sorted(set(new_rates) - set(prev_rates)):
        print(f"  [NEW ] {name}: {new_rates[name]:.6g} cyc/s")

    if failures:
        print(f"check_simspeed: FAILED — {len(failures)} regression(s) "
              f"beyond {tolerance:.0%}:")
        for f in failures:
            print(f)
        return 1
    print("check_simspeed: OK")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--trajectory",
        type=pathlib.Path,
        default=pathlib.Path(__file__).resolve().parent.parent
        / "BENCH_simspeed.json",
    )
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="max fractional sim_cycles_per_sec drop (default 0.10)")
    ap.add_argument("--baseline", metavar="LABEL", default=None,
                    help="compare against the newest sequential point with "
                         "this label instead of the newest sequential point")
    ap.add_argument("--latest-only", action="store_true",
                    help="thin the trajectory to the newest point per "
                         "(label, shards) pair before running the gates")
    args = ap.parse_args()

    points = load_points(args.trajectory)
    if args.latest_only:
        points = thin_to_latest(points)
        if len(points) < 2:
            sys.exit("check_simspeed: --latest-only left fewer than 2 points")
    else:
        warn_duplicates(points)
    return check_regression(points, args.baseline, args.tolerance)


if __name__ == "__main__":
    sys.exit(main())
