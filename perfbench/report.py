"""Print every end-to-end and per-layer metric of each workload, by name
with its unit, and optionally record them.  Run from the repository root:

    python3 perfbench/report.py --seed N [--workload NAME|all] [--record PATH]

Each workload runs twice as a child ``perfbench/run.py``, for the
``run_seconds`` that BENCHMARK.json gives: with --trace 0 (end-to-end
metrics) and with --trace 1 (per-layer metrics).  --record
writes the results, with the environment block, as one JSON file;
perfbench/baseline.json was recorded this way at the commit that added the
benchmark.  Exits 1 if any run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run.py failed on {workload} with exit code {proc.returncode}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["environment"]


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join("src", "joinlab", "__init__.py")):
        print("error: src/joinlab not found; run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.abspath("src"))
    from workloads import NAMES

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", default="all", choices=("all", *NAMES))
    parser.add_argument("--record", metavar="PATH")
    args = parser.parse_args(argv)
    selected = NAMES if args.workload == "all" else (args.workload,)
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    record = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    all_correct = True
    for name in selected:
        entry = {}
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            result, env = run_once(name, args.seed, seconds, trace)
            record["environment"] = env
            entry[kind] = result
            all_correct &= result["correct"]
            print(f"{name} {kind}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
            for metric, m in result["metrics"].items():
                print(f"  {metric:26s} {m['value']:>14.6g} {m['unit']}")
        record["workloads"][name] = entry
    print(json.dumps({"environment": record.get("environment")}))
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
