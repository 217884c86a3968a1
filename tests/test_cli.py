"""End-to-end command line tests run through subprocess, including report
determinism and exit-code behaviour.  Tests that bound the time of the
work itself call ``main`` in-process instead."""

import gc
import importlib.util
import json
import math
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from joinlab.rationals import format_rational

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "joinlab", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert proc.returncode == expect, (
        f"exit {proc.returncode} != {expect}\nstdout: {proc.stdout}\n"
        f"stderr: {proc.stderr}"
    )
    return proc


def test_eta_frozen_report():
    proc = run_cli("eta", "--k", "1")
    report = json.loads(proc.stdout)
    assert report["command"] == "eta"
    assert report["three_face_defect"] == "0/1"
    assert report["edge_marginal_defect"] == "0/1"
    assert report["invariance_defect"] == "0/1"
    assert report["mass"] == "1/1"
    assert report["sup_distance_to_product"] == "1/16"
    assert report["pass"] is True
    assert re.search(r"wall time: \d+\.\d{3} s", proc.stderr)


def test_eta_k2_sup_distance():
    report = json.loads(run_cli("eta", "--k", "2", "--verify").stdout)
    assert report["sup_distance_to_product"] == "3/256"


def test_eta_bad_k_exits_2():
    proc = run_cli("eta", "--k", "0", expect=2)
    assert "error:" in proc.stderr


@pytest.mark.parametrize(
    "argv, flag, text",
    [
        (("eta", "--k", " \u0663"), "--k", "' \u0663'"),
        (("sample", "--config", "configs/skew_demo.json", "--base", "rot4", "--fiber",
          "pair", "--seed", "1_0", "--mode", "iid-cocycle"), "--seed", "'1_0'"),
        (("sample", "--config", "configs/skew_demo.json", "--base", "rot4", "--fiber",
          "pair", "--seed", "1" * 5000, "--mode", "iid-cocycle"), "--seed",
         repr("1" * 5000)),
    ],
    ids=["k-arabic-three", "seed-underscore", "seed-5000-digits"],
)
def test_int_flags_take_ascii_digits_only(argv, flag, text):
    # int() alone reads " \u0663" (an Arabic-Indic three) as 3 and "1_0" as 10,
    # and raises ValueError past 4,300 digits
    proc = run_cli(*argv, expect=2)
    assert proc.stdout == ""
    assert f"error: argument {flag}: {text} is not an int" in proc.stderr


def test_start_up_imports_no_dataclasses_typing_or_inspect():
    # -S: no site hook, which may load typing on its own
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import joinlab.cli, joinlab; "
        "print(*[m for m in ('dataclasses', 'inspect', 'ast', 'typing') "
        "if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(REPO / "src")],
        capture_output=True, text=True, check=True,
    )
    assert proc.stdout.split() == []


BUILTIN_SHA256 = any(
    importlib.util.find_spec(m) is not None for m in ("_sha2", "_sha256")
)
COLD_COMMANDS = {
    "eta": ("eta", "--k", "1", "--verify"),
    "polytope": ("polytope", "--config", "configs/polytope_k1.json", "--action",
                 "flip", "--order", "3", "--independence", "2", "--certify"),
    "joining": ("joining", "verify", "--file", "tests/golden/tensors/eta_k1.json",
                "--config", "configs/polytope_k1.json", "--action", "flip"),
    "mixing": ("mixing", "--config", "configs/mixing_demo.json", "--automorphism",
               "rot4", "--sets", "low,mixed", "--sweep", "3"),
    "cocycle": ("cocycle", "--config", "configs/skew_demo.json", "--cocycle",
                "alternating", "--stat", "average", "--fiber-set-a", "top",
                "--fiber-set-b", "top", "--horizon", "4"),
    "sample": ("sample", "--config", "configs/skew_demo.json", "--base", "rot4",
               "--fiber", "pair", "--seed", "7", "--mode", "iid-cocycle",
               "--analyze"),
}


def _cold_modules(argv) -> set[str]:
    """The modules a fresh process holds after ``main(argv)`` returns 0."""
    # -S: no site hook, which may load random through tempfile, or json
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); from joinlab.cli import main; "
        "code = main(sys.argv[2:]); print('loaded:', *sys.modules); sys.exit(code)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, str(REPO / "src"), *argv],
        capture_output=True, text=True, cwd=REPO,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split()[1:])


@pytest.mark.parametrize("command", sorted(COLD_COMMANDS))
def test_cold_run_loads_neither_openssl_nor_random_unless_sampling(command):
    loaded = _cold_modules(COLD_COMMANDS[command])
    assert ("random" in loaded) == (command == "sample")
    if BUILTIN_SHA256:
        assert not loaded & {"hashlib", "_hashlib"}


# what eta and --help never call: the config and tensor-file layers
NOT_FOR_ETA = {"json", "joinlab.config", "joinlab.serialize", "joinlab.skew",
               "joinlab.mixing", "joinlab.polytope", "joinlab.simplex"}
# what the commands that read a config and no tensor never call
TENSOR_LAYER = {"joinlab.joinings", "joinlab.operators", "joinlab.serialize"}


@pytest.mark.parametrize("command", [*sorted(COLD_COMMANDS), "--help"])
def test_cold_run_loads_only_what_its_subcommand_calls(command):
    loaded = _cold_modules(COLD_COMMANDS.get(command, (command,)))
    if command in ("eta", "--help"):
        assert not loaded & NOT_FOR_ETA
    if command in ("cocycle", "mixing", "sample"):
        assert not loaded & TENSOR_LAYER
    lp_layer = loaded & {"joinlab.polytope", "joinlab.simplex"}
    assert len(lp_layer) == (2 if command == "polytope" else 0)
    assert ("joinlab.torus" in loaded) == (command == "eta")


def test_importing_the_package_loads_no_submodule():
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import joinlab; "
        "print(*[m for m in sys.modules if m.startswith('joinlab.')])"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code, str(REPO / "src")],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == []


@pytest.mark.parametrize("command", sorted(COLD_COMMANDS))
def test_cold_run_matches_in_process_main(command, tmp_path, capsys, monkeypatch):
    # the same argv, --out path included, so the digests agree too
    monkeypatch.chdir(REPO)
    out = tmp_path / "report.json"
    argv = [*COLD_COMMANDS[command], "--out", str(out)]
    proc = subprocess.run([sys.executable, "-m", "joinlab", *argv],
                          capture_output=True, text=True, cwd=REPO)
    cold = (proc.returncode, proc.stdout, out.read_text())
    out.unlink()
    from joinlab.cli import main

    code = main(argv)
    assert (code, capsys.readouterr().out, out.read_text()) == cold
    assert code == 0


# argv and exit code: a pass, a failed verification, an argparse error and
# a library check's error
ENTRY_CASES = {
    "pass": (COLD_COMMANDS["eta"], 0),
    "fail": (("joining", "verify", "--file", "tests/golden/tensors/damaged.json"), 1),
    "usage": (("frobnicate",), 2),
    "invalid": (("eta", "--k", "0"), 2),
}


@pytest.mark.parametrize("case", sorted(ENTRY_CASES))
def test_run_freezes_the_import_heap_and_returns_mains_code(case, capsys, monkeypatch):
    argv, want = ENTRY_CASES[case]
    # run is called in a child only: in this process it would freeze
    # pytest's heap
    code = (
        "import gc, sys; from joinlab.cli import run; code = run(sys.argv[1:]); "
        "print('frozen:', gc.get_freeze_count(), file=sys.stderr); sys.exit(code)"
    )
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, cwd=REPO)
    monkeypatch.chdir(REPO)
    from joinlab.cli import main

    assert proc.returncode == main(list(argv)) == want
    assert proc.stdout == capsys.readouterr().out
    assert int(proc.stderr.splitlines()[-1].removeprefix("frozen: ")) > 0


def test_package_entry_ends_with_the_collector_enabled_and_frozen():
    # __main__ holds the collector off while it imports; run enables it
    code = (
        "import gc, runpy, sys; sys.argv[1:] = ['eta', '--k', '1']\n"
        "try: runpy.run_module('joinlab', run_name='__main__')\n"
        "except SystemExit as exc: code = exc.code\n"
        "print(code, gc.isenabled(), gc.get_freeze_count() > 0)"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True, cwd=REPO)
    assert proc.stdout.splitlines()[-1] == "0 True True"


def test_import_and_main_leave_the_collector_alone(capsys, monkeypatch):
    code = (
        "import gc; import joinlab, joinlab.cli; "
        "joinlab.cli.main(['eta', '--k', '1']); "
        "print(gc.get_freeze_count(), gc.isenabled())"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, check=True)
    assert proc.stdout.splitlines()[-1] == "0 True"
    from joinlab.cli import main

    frozen = gc.get_freeze_count()
    monkeypatch.chdir(REPO)
    for argv, _ in ENTRY_CASES.values():
        main(list(argv))
    capsys.readouterr()
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, True)


def test_both_process_entries_call_run():
    # read as text: tomllib is 3.11+
    main_py = (REPO / "src" / "joinlab" / "__main__.py").read_text()
    assert "from .cli import run\n" in main_py
    assert "sys.exit(run())" in main_py
    scripts = (REPO / "pyproject.toml").read_text().split("[project.scripts]\n")[1]
    assert scripts.split("\n[")[0].strip() == 'joinlab = "joinlab.cli:run"'


SKEW_FRACTION = ("cocycle", "--config", "configs/skew_demo.json", "--cocycle",
                 "alternating", "--stat", "fraction", "--sequence", "times")
MIXING_LOW_HIGH = ("mixing", "--config", "configs/mixing_demo.json",
                   "--automorphism", "rot4", "--sets", "low,high")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("eta", "--k", "0"), "--k"),
        ((*SKEW_FRACTION, "--eps", "1.5"), "--eps"),
        ((*SKEW_FRACTION, "--eps", "0"), "--eps"),
        ((*MIXING_LOW_HIGH, "--offsets", "0"), "--offsets"),
        ((*MIXING_LOW_HIGH, "--sweep", "0"), "--sweep"),
    ],
)
def test_bad_flag_values_name_the_flag(argv, flag):
    proc = run_cli(*argv, expect=2)
    assert proc.stderr.startswith(f"error: {flag}: ")


def test_reports_are_byte_identical_across_runs():
    invocations = [
        ("eta", "--k", "1"),
        (
            "polytope",
            "--config",
            "configs/polytope_k1.json",
            "--action",
            "flip",
            "--order",
            "3",
            "--independence",
            "2",
            "--certify",
        ),
        (
            "mixing",
            "--config",
            "configs/mixing_demo.json",
            "--automorphism",
            "rot4",
            "--sets",
            "low,mixed",
            "--sweep",
            "3",
        ),
        (
            "sample",
            "--config",
            "configs/skew_demo.json",
            "--base",
            "rot4",
            "--fiber",
            "pair",
            "--seed",
            "5",
            "--mode",
            "iid-cocycle",
            "--analyze",
        ),
    ]
    for argv in invocations:
        first = run_cli(*argv).stdout
        second = run_cli(*argv).stdout
        assert first == second
        assert first.endswith("\n")


def test_polytope_objective_parity_optimum():
    proc = run_cli(
        "polytope",
        "--config",
        "configs/polytope_k1.json",
        "--action",
        "trivial",
        "--order",
        "3",
        "--independence",
        "2",
        "--objective",
        "corner",
    )
    report = json.loads(proc.stdout)
    assert report["optimum"] == "1/4"
    assert report["sense"] == "max"
    assert report["status"] == "optimal"
    witness = report["witness"]
    assert [[0, 0, 0], "1/4"] in witness["nonzero"]
    assert len(witness["nonzero"]) == 4


def test_polytope_certify_k1_trivial():
    report = json.loads(
        run_cli(
            "polytope",
            "--config",
            "configs/polytope_k1.json",
            "--action",
            "flip",
            "--order",
            "3",
            "--independence",
            "2",
            "--certify",
        ).stdout
    )
    assert report["trivial"] is True
    assert report["max_deviation"] == "0/1"
    assert report["witness"] is None


def test_polytope_certify_k2_nontrivial():
    report = json.loads(
        run_cli(
            "polytope",
            "--config",
            "configs/polytope_k2.json",
            "--action",
            "full",
            "--order",
            "3",
            "--independence",
            "2",
            "--certify",
        ).stdout
    )
    assert report["trivial"] is False
    assert report["max_deviation"] == "3/64"
    assert report["witness"] is not None


def test_polytope_flag_validation():
    run_cli(
        "polytope",
        "--config",
        "configs/polytope_k1.json",
        "--action",
        "flip",
        "--order",
        "3",
        "--independence",
        "2",
        expect=2,
    )
    proc = run_cli(
        "polytope",
        "--config",
        "configs/polytope_k1.json",
        "--action",
        "flip",
        "--order",
        "3",
        "--independence",
        "2",
        "--certify",
        "--minimize",
        expect=2,
    )
    assert "--minimize" in proc.stderr


def test_polytope_unknown_action_exits_2():
    proc = run_cli(
        "polytope",
        "--config",
        "configs/polytope_k1.json",
        "--action",
        "absent",
        "--order",
        "2",
        "--independence",
        "1",
        "--certify",
        expect=2,
    )
    assert "unknown action 'absent'" in proc.stderr


def test_cocycle_rigidity_frozen():
    report = json.loads(
        run_cli(
            "cocycle",
            "--config",
            "configs/skew_demo.json",
            "--cocycle",
            "product",
            "--stat",
            "rigidity",
            "--set",
            "low",
            "--sequence",
            "times",
            "--n-param",
            "2",
        ).stdout
    )
    assert report["values"] == [
        [1, "1/4"],
        [2, "0/1"],
        [4, "1/2"],
        [8, "1/2"],
    ]


def test_cocycle_missing_flags_named():
    proc = run_cli(
        "cocycle",
        "--config",
        "configs/skew_demo.json",
        "--cocycle",
        "product",
        "--stat",
        "rigidity",
        "--set",
        "low",
        expect=2,
    )
    assert "--sequence" in proc.stderr
    assert "--n-param" in proc.stderr


def test_cocycle_fraction_and_average():
    report = json.loads(
        run_cli(
            "cocycle",
            "--config",
            "configs/skew_demo.json",
            "--cocycle",
            "product",
            "--stat",
            "fraction",
            "--sequence",
            "times",
            "--eps",
            "2/1",
        ).stdout
    )
    assert all(value == "1/1" for _, value in report["values"])
    report = json.loads(
        run_cli(
            "cocycle",
            "--config",
            "configs/skew_demo.json",
            "--cocycle",
            "product",
            "--stat",
            "average",
            "--fiber-set-a",
            "top",
            "--fiber-set-b",
            "top",
            "--horizon",
            "4",
        ).stdout
    )
    assert report["value"] == "1/16"


def test_mixing_correlation_frozen():
    report = json.loads(
        run_cli(
            "mixing",
            "--config",
            "configs/mixing_demo.json",
            "--automorphism",
            "rot4",
            "--sets",
            "low,low",
            "--offsets",
            "2",
        ).stdout
    )
    assert report["value"] == "0/1"
    assert report["product_value"] == "1/4"
    assert report["deviation"] == "1/4"


def test_mixing_sweep_mode():
    report = json.loads(
        run_cli(
            "mixing",
            "--config",
            "configs/mixing_demo.json",
            "--automorphism",
            "rot4",
            "--sets",
            "low,low",
            "--sweep",
            "3",
        ).stdout
    )
    assert report["mode"] == "sweep"
    assert report["max_deviation"] == "1/4"
    assert report["argmax_offsets"] == [2]
    assert report["product_value"] == "1/4"


def test_mixing_needs_two_sets():
    proc = run_cli(
        "mixing",
        "--config",
        "configs/mixing_demo.json",
        "--automorphism",
        "rot4",
        "--sets",
        "low",
        "--sweep",
        "2",
        expect=2,
    )
    assert "--sets" in proc.stderr


def test_sample_seed_determinism_and_analysis():
    argv = (
        "sample",
        "--config",
        "configs/skew_demo.json",
        "--base",
        "rot4",
        "--fiber",
        "pair",
        "--seed",
        "11",
        "--mode",
        "random-coboundary",
        "--analyze",
    )
    a = json.loads(run_cli(*argv).stdout)
    b = json.loads(run_cli(*argv).stdout)
    assert a == b
    assert a["skew"]["base_perm"] == [1, 2, 3, 0]
    assert len(a["skew"]["cocycle"]) == 4
    analysis = a["analysis"]
    assert set(analysis) == {"orbit_count", "ergodic", "fiber_square_ergodic"}
    other = json.loads(
        run_cli(*[arg if arg != "11" else "12" for arg in argv]).stdout
    )
    assert other["digest"] != a["digest"]


def test_joining_verify_pass_tamper_and_malformed(tmp_path):
    from joinlab import Z2kContext, triple_sum_joining
    from joinlab.serialize import joining_to_data

    data = joining_to_data(triple_sum_joining(Z2kContext(1)))
    good = tmp_path / "eta.json"
    good.write_text(json.dumps(data))
    report = json.loads(
        run_cli("joining", "verify", "--file", str(good)).stdout
    )
    assert report["pass"] is True
    assert report["mass"] == "1/1"
    assert report["marginal_defect"] == "0/1"
    assert report["invariance_defect"] is None

    # invariance against the full one-bit action via the config
    report = json.loads(
        run_cli(
            "joining",
            "verify",
            "--file",
            str(good),
            "--config",
            "configs/polytope_k1.json",
            "--action",
            "flip",
        ).stdout
    )
    assert report["pass"] is True
    assert report["invariance_defect"] == "0/1"

    tampered = dict(data)
    tampered["nonzero"] = [
        [idx, ("1/4" if idx == [0, 0, 0, 0] else value)]
        for idx, value in data["nonzero"]
    ]
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(tampered))
    proc = run_cli("joining", "verify", "--file", str(bad), expect=1)
    report = json.loads(proc.stdout)
    assert report["pass"] is False
    assert report["mass"] != "1/1"

    ugly = tmp_path / "broken.json"
    ugly.write_text("{nope")
    run_cli("joining", "verify", "--file", str(ugly), expect=2)
    run_cli("joining", "verify", "--file", str(tmp_path / "ghost.json"), expect=2)


def test_joining_verify_reports_exact_defects(tmp_path):
    # v(0,0)=1/3, v(0,1)=1/4, v(1,0)=-1/6, v(1,1)=1/2 on two uniform pairs:
    # mass 11/12; marginal sums 7/12, 1/3 on coordinate 0 and 1/6, 3/4 on
    # coordinate 1, against 1/2 each; flip swaps (0,0)<->(1,1) and
    # (0,1)<->(1,0)
    data = {
        "factors": [["1/2", "1/2"], ["1/2", "1/2"]],
        "nonzero": [
            [[0, 0], "1/3"], [[0, 1], "1/4"], [[1, 0], "-1/6"], [[1, 1], "1/2"]
        ],
    }
    path = tmp_path / "defective.json"
    path.write_text(json.dumps(data))
    proc = run_cli(
        "joining", "verify", "--file", str(path),
        "--config", "configs/polytope_k1.json", "--action", "flip", expect=1,
    )
    report = json.loads(proc.stdout)
    assert report["pass"] is False
    assert report["mass"] == "11/12"
    assert report["min_entry"] == "-1/6"
    assert report["mass_defect"] == "1/12"
    assert report["marginal_defect"] == "1/3"
    assert report["invariance_defect"] == "5/12"


def test_out_file_matches_stdout(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("eta", "--k", "1", "--out", str(out))
    assert out.read_text() == proc.stdout


def test_threads_flag_removed():
    proc = run_cli("eta", "--k", "1", "--threads", "0", expect=2)
    assert "unrecognized arguments" in proc.stderr


def test_unknown_command_exits_2():
    run_cli("frobnicate", expect=2)


def test_internal_error_exits_3_without_traceback(monkeypatch, capsys):
    from joinlab import cli, polytope

    # a re-check that always fails stands in for a solver bug
    monkeypatch.setattr(
        polytope, "diagonal_invariance_defect", lambda tensor, action: Fraction(1)
    )
    code = cli.main(
        ["polytope", "--config", str(CONFIGS / "polytope_k1.json"), "--action",
         "trivial", "--order", "3", "--independence", "2", "--certify"]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("internal error: ")
    assert "Traceback" not in err


def test_joining_verify_oversized_shape_exits_2_fast(tmp_path):
    # 40 two-atom factors declare 2**40 entries in a file of under 1 kB
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"factors": [["1/2", "1/2"]] * 40, "nonzero": []}))
    started = time.perf_counter()
    proc = run_cli("joining", "verify", "--file", str(huge), expect=2)
    assert time.perf_counter() - started < 10
    assert f"{huge}.factors" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_joining_verify_oversized_literal_exits_2(tmp_path):
    # a 5,000-digit numerator is past Python's int-conversion limit
    data = {"factors": [["1/2", "1/2"]], "nonzero": [[[0], "1" * 5000 + "/2"]]}
    path = tmp_path / "long.json"
    path.write_text(json.dumps(data))
    proc = run_cli("joining", "verify", "--file", str(path), expect=2)
    assert f"{path}.nonzero[0]" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_config_oversized_weight_exits_2(tmp_path):
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps({"spaces": {"s": {"weights": ["1" * 5000 + "/3", "1/3"]}}}))
    proc = run_cli(
        "polytope", "--config", str(cfg), "--action", "a", "--order", "2",
        "--independence", "1", "--certify", expect=2,
    )
    assert "spaces.s.weights[0]" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_config_weights_past_the_form_cap_exit_2(tmp_path):
    # 512 weights with distinct 100-digit denominators would need an
    # integer form of about 85 M bits
    from joinlab.spaces import FORM_BITS_CAP

    weights = [f"1/{10**99 + 2 * i + 1}" for i in range(512)]
    cfg = tmp_path / "dense.json"
    cfg.write_text(json.dumps({"spaces": {"s": {"weights": weights}}}))
    proc = run_cli(
        "polytope", "--config", str(cfg), "--action", "a", "--order", "2",
        "--independence", "1", "--certify", expect=2,
    )
    assert "spaces.s.weights: 512 entries" in proc.stderr
    assert f"cap of {FORM_BITS_CAP} bits" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "index, problem",
    [([0, 0], "tuple (0, 0) does not match shape (2, 2, 2)"),
     ([0, 2, 0], "coordinate 2 outside 0..1")],
)
def test_polytope_objective_index_errors_name_the_objective(tmp_path, index, problem):
    data = json.loads((CONFIGS / "polytope_k1.json").read_text())
    data["objectives"]["bad"] = {"entries": [[index, "1/1"]]}
    cfg = tmp_path / "objective.json"
    cfg.write_text(json.dumps(data))
    proc = run_cli(
        "polytope", "--config", str(cfg), "--action", "flip", "--order", "3",
        "--independence", "2", "--objective", "bad", expect=2,
    )
    assert f"objective 'bad': {problem}" in proc.stderr


def test_joining_verify_denominator_budget_exits_2_fast(tmp_path):
    # 512 entries with distinct 100-digit denominators (a file of about
    # 100 kB) would need an integer form of about 87 M bits
    from joinlab.spaces import FORM_BITS_CAP

    base = 10**99
    nonzero = [
        [[(i >> (8 - b)) & 1 for b in range(9)], f"1/{base + 2 * i + 1}"]
        for i in range(512)
    ]
    path = tmp_path / "dense.json"
    path.write_text(json.dumps({"factors": [["1/2", "1/2"]] * 9, "nonzero": nonzero}))
    assert path.stat().st_size < 120_000
    started = time.perf_counter()
    proc = run_cli("joining", "verify", "--file", str(path), expect=2)
    assert time.perf_counter() - started < 10
    assert f"{path}.nonzero" in proc.stderr
    assert f"cap of {FORM_BITS_CAP} bits" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_eta_k4_verifies_within_the_form_cap():
    from joinlab.spaces import FORM_BITS_CAP

    # the largest tensor the program builds: 65,536 entries over 2**16
    assert 65536 * (2**16).bit_length() <= FORM_BITS_CAP
    report = json.loads(run_cli("eta", "--k", "4", "--verify").stdout)
    assert report["pass"] is True
    assert report["sup_distance_to_product"] == "15/65536"


def _fiber_257_config(tmp_path):
    ident = list(range(257))
    cfg = tmp_path / "fiber257.json"
    cfg.write_text(json.dumps({
        "spaces": {"base": {"uniform": 2}, "fiber": {"uniform": 257}},
        "automorphisms": {"s": {"space": "base", "perm": [1, 0]}},
        "cocycles": {"r": {"base_map": "s", "fiber": "fiber", "maps": [ident, ident]}},
        "sequences": {"times": [1]},
    }))
    return str(cfg)


def test_fiber_square_is_capped_and_fraction_is_not(tmp_path):
    # 2 x 257 x 257 fiber-square atoms: over the cap; the fraction builds no
    # 257 x 257 kernel and gives the closed form, 0 for eps <= 256/257
    cfg = _fiber_257_config(tmp_path)
    sample = ["sample", "--config", cfg, "--base", "s", "--fiber", "fiber",
              "--seed", "1", "--mode", "iid-cocycle"]
    run_cli(*sample)
    proc = run_cli(*sample, "--analyze", expect=2)
    assert "shape 2 x 257 x 257 exceeds the cap of 65536" in proc.stderr
    assert "Traceback" not in proc.stderr
    proc = run_cli("cocycle", "--config", cfg, "--cocycle", "r", "--stat", "fraction",
                   "--sequence", "times", "--eps", "1/2")
    assert json.loads(proc.stdout)["values"] == [[1, "0/1"]]


# each literal is under the 4,300-digit limit; their sum is not
UNPRINTABLE_PAIR = ["1/" + str(3**8000), "1/" + str(7**5000)]


def test_joining_verify_unprintable_result_exits_2(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({
        "factors": [["1/2", "1/2"]],
        "nonzero": [[[0], UNPRINTABLE_PAIR[0]], [[1], UNPRINTABLE_PAIR[1]]],
    }))
    proc = run_cli("joining", "verify", "--file", str(path), expect=2)
    assert proc.stderr.startswith("error: cannot print a rational of 4226/8043 digits")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_config_weights_with_an_unprintable_sum_exit_2(tmp_path):
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({"spaces": {"s": {"weights": UNPRINTABLE_PAIR}}}))
    proc = run_cli(
        "polytope", "--config", str(cfg), "--action", "a", "--order", "2",
        "--independence", "1", "--certify", expect=2,
    )
    assert "spaces.s.weights: weights must sum to 1, got a rational of" in proc.stderr
    assert "Traceback" not in proc.stderr


def timed_main(capsys, *argv):
    """Exit code, stdout, stderr and seconds of one in-process CLI run."""
    from joinlab.cli import main

    started = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - started
    out = capsys.readouterr()
    return code, out.out, out.err, elapsed


FAR = [10**12, 10**12 + 1, 10**12 + 2, 10**12 + 3]


def _far_config(tmp_path):
    """The skew demo with sequence times far past every period, and a
    cocycle whose period product C(x, 4) has order 3."""
    data = json.loads((CONFIGS / "skew_demo.json").read_text())
    data["spaces"]["three"] = {"uniform": 3}
    data["cocycles"]["cyclic"] = {
        "base_map": "rot4", "fiber": "three",
        "maps": [[1, 2, 0], [0, 1, 2], [2, 0, 1], [2, 0, 1]],
    }
    data["sets"]["first"] = {"space": "three", "atoms": [0]}
    data["sequences"]["far"] = FAR
    cfg = tmp_path / "far.json"
    cfg.write_text(json.dumps(data))
    return str(cfg)


def test_cocycle_huge_times_and_horizons_finish_with_the_reduced_values(tmp_path, capsys):
    import skew_oracle as oracle
    from joinlab.config import load_config

    cfg = _far_config(tmp_path)
    config, _ = load_config(cfg)
    low = config.lookup("sets", "low")
    for name in ("product", "alternating", "cyclic"):
        r = config.lookup("cocycles", name)
        period = 1
        for x in r.base.atoms():
            period = math.lcm(period, oracle.cocycle_period(r, x))
        for stat, flags, value in (
            ("rigidity", ["--set", "low", "--n-param", "2"],
             lambda p: oracle.rigidity_statistic(r, low, 2, p)),
            ("fraction", ["--eps", "1/2"],
             lambda p: oracle.relative_mixing_fraction(r, p, Fraction(1, 2))),
        ):
            code, out, err, elapsed = timed_main(
                capsys, "cocycle", "--config", cfg, "--cocycle", name,
                "--stat", stat, "--sequence", "far", *flags)
            assert code == 0, err
            assert elapsed < 1
            want = [[p, format_rational(value(p % period))] for p in FAR]
            assert json.loads(out)["values"] == want
        # a horizon of whole periods averages what one period does
        fiber_set = "first" if name == "cyclic" else "top"
        code, out, err, elapsed = timed_main(
            capsys, "cocycle", "--config", cfg, "--cocycle", name, "--stat", "average",
            "--fiber-set-a", fiber_set, "--fiber-set-b", fiber_set,
            "--horizon", str(10**12 * period))
        assert code == 0, err
        assert elapsed < 1
        a = config.lookup("sets", fiber_set)
        want = oracle.relative_weak_mixing_average(r, a, a, period)
        assert json.loads(out)["value"] == format_rational(want)


def test_mixing_sweep_past_the_order_equals_the_sweep_at_the_order(capsys):
    reports = []
    for k in ("100000", "4"):
        code, out, err, elapsed = timed_main(
            capsys, "mixing", "--config", str(CONFIGS / "mixing_demo.json"),
            "--automorphism", "rot4", "--sets", "low,low,low", "--sweep", k)
        assert code == 0, err
        assert elapsed < 1
        reports.append(json.loads(out))
    huge, at_order = reports
    assert huge.pop("k_range") == 100000 and at_order.pop("k_range") == 4
    assert huge.pop("digest") != at_order.pop("digest")
    assert huge == at_order


def test_mixing_sweep_grid_past_the_cap_exits_2_fast(tmp_path, capsys):
    cfg = tmp_path / "cycle64.json"
    cfg.write_text(json.dumps({
        "spaces": {"s": {"uniform": 64}},
        "automorphisms": {"t": {"space": "s", "perm": [(i + 1) % 64 for i in range(64)]}},
        "sets": {"a": {"space": "s", "atoms": list(range(32))}},
    }))
    code, out, err, elapsed = timed_main(
        capsys, "mixing", "--config", str(cfg), "--automorphism", "t",
        "--sets", "a,a,a,a", "--sweep", "64")
    assert code == 2
    assert elapsed < 1
    assert out == ""
    assert err.startswith("error: --sweep: offset grid shape 64 x 64 x 64 exceeds")


def test_mixing_sweep_work_past_the_cap_exits_2_fast(tmp_path, capsys):
    # 256 x 256 grid points fit the cap, but points times 256 atoms do not
    cfg = tmp_path / "cycle256.json"
    cfg.write_text(json.dumps({
        "spaces": {"s": {"uniform": 256}},
        "automorphisms": {"t": {"space": "s", "perm": [(i + 1) % 256 for i in range(256)]}},
        "sets": {"a": {"space": "s", "atoms": list(range(128))}},
    }))
    code, out, err, elapsed = timed_main(
        capsys, "mixing", "--config", str(cfg), "--automorphism", "t",
        "--sets", "a,a,a", "--sweep", "256")
    assert code == 2
    assert elapsed < 1
    assert out == ""
    assert err.startswith("error: --sweep: ")
    assert "65536 points on 256 atoms" in err


def test_consecutive_in_process_calls_match_fresh_processes(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process: flags set by one call must
    # not leak into the next, and an argparse exit must leave it usable
    from joinlab.cli import main

    monkeypatch.chdir(REPO)
    out = tmp_path / "report.json"
    corner = ("polytope", "--config", "configs/polytope_k2.json", "--action", "full",
              "--order", "3", "--independence", "2", "--objective", "corner")
    calls = [
        (*corner, "--minimize", "--out", str(out)),
        (*corner, "--certify"),  # --certify and --objective exclude each other
        corner,
    ]
    fresh = []
    for argv in calls:
        proc = subprocess.run([sys.executable, "-m", "joinlab", *argv],
                              capture_output=True, text=True, cwd=REPO)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    out.unlink()
    codes = []
    for argv, (code, stdout, stderr) in zip(calls, fresh):
        got = main(list(argv))
        captured = capsys.readouterr()
        codes.append(got)
        assert (got, captured.out) == (code, stdout)
        if code == 2:
            assert captured.err == stderr
        if argv is calls[0]:
            assert out.read_text() == stdout
            out.unlink()
    assert codes == [0, 2, 0]
    assert json.loads(fresh[0][1])["sense"] == "min"
    assert json.loads(fresh[2][1])["sense"] == "max"
    assert not out.exists()
