"""Self-tests of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

1. Every generated input stays inside the program's caps.
2. A traced run of every workload is correct: its two or more traced
   passes give identical counts, and every traced report is
   byte-identical to the untraced one (run.py fails the run otherwise).
3. The certify and optimize counts repeat across seeds 1 and 2; on certify
   simplex.lps = 208 and simplex.lps_per_coord = 2.
4. A deliberately wrong expected value shows up as a failed run, not as
   a crash.

Exits 1 if any test fails.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction

CONTENT_COUNTS = ("serialize.bytes_in", "report.bytes_out")
SEED, OTHER_SEED = 1, 2


def main() -> int:
    if not os.path.isfile(os.path.join("src", "joinlab", "__init__.py")):
        print("error: src/joinlab not found; run from the repository root", file=sys.stderr)
        return 2
    import run

    with run.start_spawner() as spawner:
        sys.path.insert(0, os.path.abspath("src"))
        return selftest(run, spawner)


def selftest(run, spawner) -> int:
    import workloads

    failures = []

    def check(name, ok, detail=""):
        print(f"{'PASS' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
        if not ok:
            failures.append(name)

    for name in workloads.NAMES:
        built = workloads.build(name, SEED, os.path.join(".perfbench", f"selftest-{name}"))
        check(f"{name}: inputs within caps", not built.cap_violations(), "; ".join(built.cap_violations()))

    counts = {}
    for name in workloads.NAMES:
        for seed in (SEED, OTHER_SEED) if name in ("certify", "optimize") else (SEED,):
            result, _ = run.measure(name, seed, 0, True, spawner)
            check(f"{name} seed {seed}: traced run correct, counts repeat, reports identical",
                  result["correct"], f"{result['failed']} of {result['attempted']} failed")
            counts[name, seed] = {
                m: v["value"] for m, v in result["metrics"].items()
                if v["unit"] in ("count", "ratio") and m not in CONTENT_COUNTS and m != "trace.overhead_frac"
            }
    for name in ("certify", "optimize"):
        a, b = counts[name, SEED], counts[name, OTHER_SEED]
        check(f"{name}: counts repeat across seeds", a == b, f"{a} != {b}")
    lps, per = counts["certify", SEED]["simplex.lps"], counts["certify", SEED]["simplex.lps_per_coord"]
    check("certify: simplex.lps = 208, lps_per_coord = 2", (lps, per) == (208, 2), f"{lps}, {per}")

    saved = workloads.CERTIFY
    workloads.CERTIFY = saved[:-1] + ((saved[-1][0], False, Fraction(1, 32)),)
    try:
        result, _ = run.measure("certify", SEED, 0, False, spawner)
        check("wrong expected value counts as a failed run", not result["correct"] and result["failed"] > 0,
              f"correct={result['correct']}, failed={result['failed']}")
    except Exception as exc:  # the point of the test: this must not happen
        check("wrong expected value counts as a failed run", False, f"raised {exc!r}")
    finally:
        workloads.CERTIFY = saved

    print(f"{len(failures)} self-test(s) failed" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
