"""Byte-for-byte pins of the reports on the demo configs.

Every ``cocycle``, ``mixing`` and ``sample --analyze`` invocation of the
README's examples, plus the other statistics on the same configs, has its
full report (digest included) stored under ``tests/golden/``, as have the
small ``polytope`` certificates and objectives and ``eta --k 2 --verify``,
whose witnesses and defects are built on product weights.  A faster path
that changes any byte of any of them fails here.

To re-record after an intended report change, run from the repository root

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden/``.
"""

import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

SKEW = ("--config", "configs/skew_demo.json")
MIXING = ("--config", "configs/mixing_demo.json")
K1 = ("--config", "configs/polytope_k1.json")
K2 = ("--config", "configs/polytope_k2.json")

INVOCATIONS = {
    "cocycle_rigidity_alternating": (
        "cocycle", *SKEW, "--cocycle", "alternating", "--stat", "rigidity",
        "--set", "low", "--sequence", "times", "--n-param", "2"),
    "cocycle_rigidity_product": (
        "cocycle", *SKEW, "--cocycle", "product", "--stat", "rigidity",
        "--set", "low", "--sequence", "times", "--n-param", "2"),
    "cocycle_rigidity_alternating_n8": (
        "cocycle", *SKEW, "--cocycle", "alternating", "--stat", "rigidity",
        "--set", "low", "--sequence", "times", "--n-param", "8"),
    "cocycle_fraction_alternating_half": (
        "cocycle", *SKEW, "--cocycle", "alternating", "--stat", "fraction",
        "--sequence", "times", "--eps", "1/2"),
    "cocycle_fraction_product_two": (
        "cocycle", *SKEW, "--cocycle", "product", "--stat", "fraction",
        "--sequence", "times", "--eps", "2/1"),
    "cocycle_average_alternating": (
        "cocycle", *SKEW, "--cocycle", "alternating", "--stat", "average",
        "--fiber-set-a", "top", "--fiber-set-b", "top", "--horizon", "4"),
    "cocycle_average_product": (
        "cocycle", *SKEW, "--cocycle", "product", "--stat", "average",
        "--fiber-set-a", "top", "--fiber-set-b", "top", "--horizon", "7"),
    "mixing_sweep_low_mixed": (
        "mixing", *MIXING, "--automorphism", "rot4", "--sets", "low,mixed",
        "--sweep", "3"),
    "mixing_sweep_three_sets": (
        "mixing", *MIXING, "--automorphism", "rot4", "--sets", "low,mixed,high",
        "--sweep", "6"),
    "mixing_offsets": (
        "mixing", *MIXING, "--automorphism", "rot4", "--sets", "low,mixed,high",
        "--offsets", "1,2"),
    "mixing_sweep_skew_demo": (
        "mixing", *SKEW, "--automorphism", "rot4", "--sets", "low,low",
        "--sweep", "5"),
    "sample_iid_analyze": (
        "sample", *SKEW, "--base", "rot4", "--fiber", "pair", "--seed", "7",
        "--mode", "iid-cocycle", "--analyze"),
    "sample_coboundary_analyze": (
        "sample", *SKEW, "--base", "rot4", "--fiber", "pair", "--seed", "7",
        "--mode", "random-coboundary", "--analyze"),
    "polytope_certify_k1_flip": (
        "polytope", *K1, "--action", "flip", "--order", "3",
        "--independence", "2", "--certify"),
    "polytope_certify_k1_trivial": (
        "polytope", *K1, "--action", "trivial", "--order", "4",
        "--independence", "2", "--certify"),
    "polytope_certify_k2_full": (
        "polytope", *K2, "--action", "full", "--order", "3",
        "--independence", "2", "--certify"),
    "polytope_objective_k2_corner_max": (
        "polytope", *K2, "--action", "full", "--order", "3",
        "--independence", "2", "--objective", "corner"),
    "polytope_objective_k2_corner_min": (
        "polytope", *K2, "--action", "full", "--order", "3",
        "--independence", "2", "--objective", "corner", "--minimize"),
    "eta_k2_verify": ("eta", "--k", "2", "--verify"),
}


def report_bytes(argv) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "joinlab", *argv], capture_output=True, cwd=REPO
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_report_matches_golden_bytes(name):
    assert report_bytes(INVOCATIONS[name]) == (GOLDEN / f"{name}.json").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in sorted(INVOCATIONS.items()):
        (GOLDEN / f"{name}.json").write_bytes(report_bytes(argv))
        print(f"recorded {name}")
