#!/usr/bin/env python3
"""Records a before/after comparison of two checkouts as BENCH_<workload>.json.

    python3 bench/record_pairs.py --base ../parent --head . \\
        --workload serve-cold --pairs 8 --seconds 20 --seed 1 \\
        --out BENCH_serve-cold.json
    python3 bench/record_pairs.py ... --seed 2 --pool-seed 12 --pairs 4 \\
        --out BENCH_serve-cold.json      # adds a second set to the record

Runs `perfbench/run.py` of each checkout in alternating pairs (the side that
goes first swaps every pair, so a drifting host loads both sides alike) and
writes, for every end-to-end metric of BENCHMARK.json, each side's median and
quartiles, the per-pair values and how many pairs the head side won. A set
also holds the pair count, `--seed`, `--pool-seed`, `--seconds`, both sides'
`result_sum` and `result_digest`, and the checkouts' git SHAs and source
digests (perfbench's digest of src/ and perfbench/) and the host's `nproc`.

The record is keyed on the two source digests: running again with the same
checkouts adds or replaces the set of the same seeds; other checkouts start
a new record. A run that reports a failed or incorrect query stops the
recording (exit 1). The first run of a checkout builds its perfbench, which
is not timed by the pairs that follow.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout, args):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0"]
    if args.pool_seed is not None:
        cmd += ["--pool-seed", str(args.pool_seed)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"record_pairs: {' '.join(cmd)} exited {proc.returncode}")
    source = info = result = None
    for line in proc.stdout.splitlines():
        if not line.startswith("{"):
            continue
        obj = json.loads(line)
        if "source" in obj:
            source = obj["source"]
        elif "info" in obj:
            info = obj["info"]
        elif "metrics" in obj:
            result = obj
    if source is None or info is None or result is None:
        raise SystemExit(f"record_pairs: unexpected output of {' '.join(cmd)}")
    if not result["correct"] or result["failed"] != 0:
        raise SystemExit(f"record_pairs: {checkout}: {result['failed']} failed, "
                         f"correct={result['correct']}")
    return source, info, {k: v["value"] for k, v in result["metrics"].items()}


def quartiles(values):
    """Median and quartiles, linear interpolation between order statistics."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True, help="checkout measured as before")
    parser.add_argument("--head", required=True, help="checkout measured as after")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pool-seed", type=int, default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.pairs < 1:
        raise SystemExit("record_pairs: --pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        end_to_end = json.load(f)["end_to_end"]
    sides = {"base": os.path.abspath(args.base), "head": os.path.abspath(args.head)}
    runs = {"base": [], "head": []}
    sources, infos = {}, {}
    for pair in range(args.pairs):
        order = ("base", "head") if pair % 2 == 0 else ("head", "base")
        for side in order:
            source, info, metrics = run_once(sides[side], args)
            sources[side], infos[side] = source, info
            runs[side].append(metrics)
        line = "  ".join(f"{side} qps {runs[side][-1].get('qps', 0):.1f}"
                         for side in ("base", "head"))
        print(f"pair {pair + 1}/{args.pairs}: {line}", file=sys.stderr)

    metrics = {}
    for spec in end_to_end:
        name, higher = spec["name"], spec["better"] == "higher"
        base = [m[name] for m in runs["base"]]
        head = [m[name] for m in runs["head"]]
        wins = sum(1 for b, h in zip(base, head) if (h > b if higher else h < b))
        metrics[name] = {
            "unit": spec["unit"], "better": spec["better"],
            "base": quartiles(base), "head": quartiles(head),
            "head_wins": wins, "base_runs": base, "head_runs": head,
        }
    pool_seed = infos["head"]["pool_seed"]
    record_set = {
        "seed": args.seed, "pool_seed": pool_seed, "pairs": args.pairs,
        "seconds": args.seconds,
        "result_sum": {s: infos[s]["result_sum"] for s in sides},
        "result_digest": {s: infos[s]["result_digest"] for s in sides},
        "metrics": metrics,
    }
    identity = {s: {"git_sha": sources[s]["git_sha"],
                    "source_digest": sources[s]["source_digest"]} for s in sides}
    record = None
    if os.path.exists(args.out):
        with open(args.out) as f:
            record = json.load(f)
        if record.get("base") != identity["base"] or record.get("head") != identity["head"]:
            record = None
    if record is None:
        record = {"workload": args.workload,
                  "command": f"python3 perfbench/run.py --workload {args.workload} "
                             f"--seconds {args.seconds} --trace 0",
                  "nproc": infos["head"]["nproc"],
                  "base": identity["base"], "head": identity["head"], "sets": []}
    record["sets"] = [s for s in record["sets"]
                      if (s["seed"], s["pool_seed"]) != (args.seed, pool_seed)]
    record["sets"].append(record_set)
    record["sets"].sort(key=lambda s: (s["seed"], s["pool_seed"]))
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    qps = metrics.get("qps")
    if qps is not None:
        print(f"{args.workload} seed {args.seed} pool {pool_seed}: qps median "
              f"{qps['base']['median']:.1f} -> {qps['head']['median']:.1f}, "
              f"head won {qps['head_wins']}/{args.pairs}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
