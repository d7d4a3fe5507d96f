#!/usr/bin/env python3
"""Paired end-to-end benchmark runs of a base revision against the working tree.

Usage (from the repository root):

    python3 tools/benchpair.py --pairs 10                 # base = HEAD
    python3 tools/benchpair.py --rev main~1 --workloads frame_cnn_f32 \\
        --claim frame_cnn_f32:decisions_per_s
    python3 tools/benchpair.py --base-tree ../other-checkout --pairs 4
    python3 tools/benchpair.py --analyze runs.jsonl       # no build, no runs

The base side is a checkout of `--rev`, made with `git worktree` (no
network) under the scratch directory, or an existing tree given with
`--base-tree`. The head side is the working tree. Each side builds its own
e2ebench binary (`CARGO_TARGET_DIR` under the scratch directory). Every
pair runs `e2ebench/run.py` once per side, at BENCHMARK.json's run length
by default, and alternates which side runs first, so run order cannot
favour one side. Every run is appended to `--out` as one JSON line.

For each workload and each BENCHMARK.json end-to-end metric the report
gives the median of the per-pair ratios head/base with its quartiles and
one verdict against the metric's bound:

    met         the median ratio is worse than 1 by at most the bound
    not met     the median ratio is worse than 1 by more than the bound
    unresolved  the ratios' interquartile spread exceeds the bound

A `--claim workload:metric` is met when head is better in at least 90% of
the pairs and the medians differ, in the better direction, by more than the
interquartile distance of the base side's runs.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quartiles(xs):
    """(q1, median, q3) by linear interpolation; needs at least one value."""
    s = sorted(xs)
    if len(s) == 1:
        return s[0], s[0], s[0]
    q = statistics.quantiles(s, n=4, method="inclusive")
    return q[0], q[1], q[2]


def worse_by(ratio, better):
    """How much worse than 1 a head/base ratio is (negative = better)."""
    return 1.0 - ratio if better == "higher" else ratio - 1.0


def metric_verdict(ratios, better, bound):
    """One BENCHMARK.json end-to-end metric over the pairs' ratios."""
    q1, med, q3 = quartiles(ratios)
    if q3 - q1 > bound:
        verdict = "unresolved"
    elif worse_by(med, better) > bound:
        verdict = "not met"
    else:
        verdict = "met"
    return {"median": med, "q1": q1, "q3": q3, "verdict": verdict}


def claim_verdict(base, head, better):
    """A claimed gain: head better in >= 90% of the pairs, and the medians
    apart by more than the base runs' interquartile distance."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    bq1, bmed, bq3 = quartiles(base)
    hmed = statistics.median(head)
    met = wins >= 0.9 * len(base) and sign * (hmed - bmed) > bq3 - bq1
    return {"wins": wins, "pairs": len(base), "base_median": bmed,
            "head_median": hmed, "base_iqr": bq3 - bq1,
            "verdict": "met" if met else "not met"}


def pair_up(records, workload):
    """Pairs (base, head) result records of one workload, by pair index."""
    sides = {}
    for r in records:
        if r["workload"] == workload:
            sides.setdefault(r["pair"], {})[r["side"]] = r
    return [(p["base"], p["head"]) for _, p in sorted(sides.items())
            if "base" in p and "head" in p]


def analyze(records, spec, claims):
    """Verdict lines for every workload/metric, and whether every metric
    and claim is met (an unresolved metric does not count as met)."""
    lines, all_met = [], True
    for w in spec["workloads"]:
        pairs = pair_up(records, w["name"])
        if not pairs:
            continue
        ok = all(b["correct"] and h["correct"] for b, h in pairs)
        lines.append(f"{w['name']}: {len(pairs)} pairs, "
                     f"correct={'yes' if ok else 'NO'}")
        all_met = all_met and ok
        for m in spec["end_to_end"]:
            base = [b["metrics"][m["name"]] for b, _ in pairs]
            head = [h["metrics"][m["name"]] for _, h in pairs]
            ratios = [h / b if b != 0 else (1.0 if h == 0 else float("inf"))
                      for b, h in zip(base, head)]
            v = metric_verdict(ratios, m["better"], m["bound"])
            all_met = all_met and v["verdict"] == "met"
            lines.append(
                f"  {m['name']:<20} ratio {v['median']:.3f} "
                f"[{v['q1']:.3f}, {v['q3']:.3f}] bound {m['bound']} "
                f"({m['better']} is better): {v['verdict']}")
            if (w["name"], m["name"]) in claims:
                c = claim_verdict(base, head, m["better"])
                all_met = all_met and c["verdict"] == "met"
                lines.append(
                    f"  claim {m['name']}: head better in {c['wins']}/"
                    f"{c['pairs']} pairs, median {c['base_median']:.6g} -> "
                    f"{c['head_median']:.6g}, base IQR "
                    f"{c['base_iqr']:.6g}: {c['verdict']}")
    return lines, all_met


def run_once(tree, target_dir, workload, seed, seconds):
    """One e2ebench run; returns its result record (metrics as values)."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    cmd = [sys.executable, os.path.join(tree, "e2ebench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True,
                          text=True, check=False)
    last = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
    try:
        res = json.loads(last)
    except json.JSONDecodeError:
        sys.stderr.write(done.stderr[-2000:])
        raise SystemExit(f"benchpair: {workload} in {tree} gave no result")
    return {"correct": bool(res.get("correct")) and done.returncode == 0,
            "metrics": {k: v["value"] for k, v in res["metrics"].items()}}


def base_checkout(args):
    if args.base_tree:
        return os.path.abspath(args.base_tree)
    tree = os.path.join(args.scratch, "base")
    if not os.path.isdir(tree):
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                        tree, args.rev], check=True)
    return tree


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rev", default="HEAD", help="base revision")
    ap.add_argument("--base-tree", help="existing base checkout to use")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workloads", help="comma list (default: all)")
    ap.add_argument("--seconds", type=float, help="default: run_seconds")
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0")
    ap.add_argument("--claim", action="append", default=[],
                    help="workload:metric claimed as a gain")
    ap.add_argument("--scratch", default=os.path.join(ROOT, ".benchpair"))
    ap.add_argument("--out", help="JSON lines file (default: scratch)")
    ap.add_argument("--analyze", help="report on an existing JSON lines file")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    claims = {tuple(c.split(":", 1)) for c in args.claim}
    if args.workloads:
        keep = set(args.workloads.split(","))
        spec["workloads"] = [w for w in spec["workloads"]
                             if w["name"] in keep]

    if args.analyze:
        with open(args.analyze) as f:
            records = [json.loads(line) for line in f if line.strip()]
    else:
        os.makedirs(args.scratch, exist_ok=True)
        out = args.out or os.path.join(args.scratch, "runs.jsonl")
        seconds = args.seconds or spec["run_seconds"]
        trees = {"base": base_checkout(args), "head": ROOT}
        targets = {s: os.path.join(args.scratch, "target-" + s)
                   for s in trees}
        records = []
        with open(out, "a") as log:
            for i in range(args.pairs):
                order = ["base", "head"] if i % 2 == 0 else ["head", "base"]
                for w in spec["workloads"]:
                    for side in order:
                        r = run_once(trees[side], targets[side], w["name"],
                                     args.seed + i, seconds)
                        r.update(side=side, pair=i, workload=w["name"],
                                 seed=args.seed + i, first=order[0])
                        records.append(r)
                        log.write(json.dumps(r) + "\n")
                        log.flush()
        print(f"runs: {out}")

    lines, all_met = analyze(records, spec, claims)
    print("\n".join(lines))
    return 0 if all_met else 1


if __name__ == "__main__":
    sys.exit(main())
