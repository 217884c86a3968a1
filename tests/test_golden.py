"""Byte-for-byte pins of the reports on the demo configs.

Every ``cocycle``, ``mixing`` and ``sample --analyze`` invocation of the
README's examples, plus the other statistics on the same configs, has its
full report (digest included) stored under ``tests/golden/``, as have the
small ``polytope`` certificates and objectives (among them the order-4
certificates of the flip on two atoms, whose optima are not unique, and one
on the two-weight-class action of ``tests/golden/tensors/two_class.json``),
``eta --k 2 --verify`` and ``eta --k 3 --verify`` and ``eta --k 4 --verify``,
whose witnesses and defects are built on product weights, and ``joining
verify`` runs on the tensor files under ``tests/golden/tensors/``: eta at
k = 1 and k = 3, the
latter under the full Z_2^3 action of ``z2k3_full.json`` as in the tensor
benchmark, two damaged tensors, and under the full Z_2^2 action a sparse
tensor whose support carries both signs and one with an empty support.
A faster path that changes any byte of any of them fails here, and eta and
``joining verify`` at k = 3 must print theirs with every dense flat index
map refused, and every eta and ``joining verify`` run must print its own
with ``support_cells`` refused: eta lists its support as it builds its
entries, and the decoder hands over the cells it read.  Every ``sample
--analyze`` run must print its own with the product automorphism and the
orbit labelling refused, as its orbits are read off the return maps.

Two ``polytope --certify`` reports too large to store, the pairwise
independent order-4 certificates on the full Z_2^3 and Z_2^4 actions, are
pinned by their sha256 in ``HASHED``.

``tests/golden/errors.json`` pins the exit code and stderr (minus the
wall-time line) of each invalid-input case in ``ERROR_CASES``: one or more
per place that names the failing input, a config field, a tensor file
field or a command line flag.  Each case runs in a fresh directory holding
a copy of ``configs/`` and the case's own files, so a file path in a
message is the bare name.  Where a flag comes from a library check's
``param``, ``MOVED_CHECKS`` also calls that library function directly
with the case's bad input: the text after the flag is the library's own.

To re-record after an intended report or message change, run from the
repository root

    PYTHONPATH=src python tests/test_golden.py

and review the diff of ``tests/golden/``.
"""

import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from hashlib import sha256
from pathlib import Path

import pytest

from joinlab import (
    InvalidInputError,
    PolytopeSpec,
    Z2kContext,
    cli,
    correlation,
    full_action,
    joinings,
    mixing_deviation_sweep_detail,
    relative_mixing_fraction,
    relative_weak_mixing_average,
    rigidity_statistic,
    skew,
    spaces,
)
from joinlab.cli import main
from joinlab.config import parse_config

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

SKEW = ("--config", "configs/skew_demo.json")
MIXING = ("--config", "configs/mixing_demo.json")
K1 = ("--config", "configs/polytope_k1.json")
K2 = ("--config", "configs/polytope_k2.json")
# the full action on Z_2^3 that the tensor benchmark checks eta against
K3 = ("--config", "tests/golden/tensors/z2k3_full.json")
# two weight classes, 1/6 and 1/3, each swapped: its product targets differ
# from orbit to orbit
TWO_CLASS = ("--config", "tests/golden/tensors/two_class.json")

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
    "polytope_certify_k1_flip_order4_m2": (
        "polytope", *K1, "--action", "flip", "--order", "4",
        "--independence", "2", "--certify"),
    "polytope_certify_k1_flip_order4_m3": (
        "polytope", *K1, "--action", "flip", "--order", "4",
        "--independence", "3", "--certify"),
    "polytope_certify_two_class": (
        "polytope", *TWO_CLASS, "--action", "swap", "--order", "3",
        "--independence", "2", "--certify"),
    "polytope_objective_k2_corner_max": (
        "polytope", *K2, "--action", "full", "--order", "3",
        "--independence", "2", "--objective", "corner"),
    "polytope_objective_k2_corner_min": (
        "polytope", *K2, "--action", "full", "--order", "3",
        "--independence", "2", "--objective", "corner", "--minimize"),
    "eta_k2_verify": ("eta", "--k", "2", "--verify"),
    "joining_verify_eta_k1": (
        "joining", "verify", "--file", "tests/golden/tensors/eta_k1.json",
        *K1, "--action", "flip"),
    "joining_verify_damaged": (
        "joining", "verify", "--file", "tests/golden/tensors/damaged.json",
        *K1, "--action", "flip"),
    "eta_k3_verify": ("eta", "--k", "3", "--verify"),
    "joining_verify_eta_k3": (
        "joining", "verify", "--file", "tests/golden/tensors/eta_k3.json",
        *K3, "--action", "full"),
    "joining_verify_eta_k3_damaged": (
        "joining", "verify", "--file", "tests/golden/tensors/eta_k3_damaged.json",
        *K3, "--action", "full"),
    "eta_k4_verify": ("eta", "--k", "4", "--verify"),
    "joining_verify_signed_k2": (
        "joining", "verify", "--file", "tests/golden/tensors/signed_k2.json",
        *K2, "--action", "full"),
    "joining_verify_empty_k2": (
        "joining", "verify", "--file", "tests/golden/tensors/empty_k2.json",
        *K2, "--action", "full"),
}

# reports of a verification that fails, printed with exit code 1
FAILING = {
    "joining_verify_damaged",
    "joining_verify_eta_k3_damaged",
    "joining_verify_signed_k2",
    "joining_verify_empty_k2",
}


def report_bytes(name) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "joinlab", *INVOCATIONS[name]],
        capture_output=True, cwd=REPO,
    )
    assert proc.returncode == (1 if name in FAILING else 0), proc.stderr.decode()
    return proc.stdout


def _config(**sections) -> str:
    return json.dumps(sections)


def _cycle(n: int) -> str:
    return _config(
        spaces={"s": {"uniform": n}},
        automorphisms={"t": {"space": "s", "perm": [(i + 1) % n for i in range(n)]}},
        sets={"a": {"space": "s", "atoms": list(range(n // 2))}},
    )


PAIR = {"pair": {"uniform": 2}}
SWAP = {"swap": {"space": "pair", "perm": [1, 0]}}
TENSOR = {"factors": [["1/2", "1/2"]], "nonzero": [[[0], "1/2"], [[1], "1/2"]]}
# 512 distinct 100-digit denominators: an integer form of about 85 M bits
DENSE = [f"1/{10**99 + 2 * i + 1}" for i in range(512)]
DENSE_TENSOR = {
    "factors": [["1/2", "1/2"]] * 9,
    "nonzero": [
        [[(i >> (8 - b)) & 1 for b in range(9)], w] for i, w in enumerate(DENSE)
    ],
}

CERTIFY = ("polytope", "--config", "c.json", "--action", "a", "--order", "2",
           "--independence", "1", "--certify")
VERIFY = ("joining", "verify", "--file", "t.json")
SKEW_MIX = ("mixing", *SKEW, "--automorphism", "rot4")
DEMO_MIX = ("mixing", *MIXING, "--automorphism", "rot4")
FRACTION = ("cocycle", *SKEW, "--cocycle", "alternating", "--stat", "fraction",
            "--sequence", "times")
RIGIDITY = ("cocycle", *SKEW, "--cocycle", "alternating", "--stat", "rigidity",
            "--sequence", "times")
AVERAGE = ("cocycle", *SKEW, "--cocycle", "alternating", "--stat", "average")
K1_FLIP = ("polytope", *K1, "--action", "flip", "--certify")


def _tensor(**fields) -> dict:
    return {"t.json": json.dumps({**TENSOR, **fields})}


def _spaces(**spaces) -> dict:
    return {"c.json": _config(spaces=spaces)}


ERROR_CASES = {
    # config fields
    "config_automorphism_perm": (CERTIFY, {"c.json": _config(
        spaces=PAIR, automorphisms={"a": {"space": "pair", "perm": [0, 0]}})}),
    "config_automorphism_weights": (CERTIFY, {"c.json": _config(
        spaces={"s": {"weights": ["1/3", "2/3"]}},
        automorphisms={"a": {"space": "s", "perm": [1, 0]}})}),
    "config_action_perms": (CERTIFY, {"c.json": _config(
        spaces=PAIR, actions={"a": {"space": "pair", "perms": [[0, 1], [2, 0]]}})}),
    "config_cocycle_maps": (CERTIFY, {"c.json": _config(
        spaces=PAIR, automorphisms=SWAP,
        cocycles={"r": {"base_map": "swap", "fiber": "pair", "maps": [[1, 0], [1]]}})}),
    "config_uniform_cap": (CERTIFY, _spaces(big={"uniform": 70000})),
    "config_uniform_zero": (CERTIFY, _spaces(x={"uniform": 0})),
    "config_weight_item": (CERTIFY, _spaces(s={"weights": ["1/2", "0.5"]})),
    "config_weight_literal_cap": (CERTIFY, _spaces(s={"weights": ["1" * 5000 + "/3"]})),
    "config_weights_sum": (CERTIFY, _spaces(s={"weights": ["1/2", "1/3"]})),
    "config_weights_form_cap": (CERTIFY, _spaces(s={"weights": DENSE})),
    "config_set_atoms": (CERTIFY, {"c.json": _config(
        spaces=PAIR, sets={"a": {"space": "pair", "atoms": [0, 2]}})}),
    "config_sequence_order": (CERTIFY, {"c.json": _config(sequences={"s": [2, 1]})}),
    "config_sequence_empty": (CERTIFY, {"c.json": _config(sequences={"s": []})}),
    "config_objective_coefficient": (CERTIFY, {"c.json": _config(
        objectives={"o": {"entries": [[[0, 0], "1/2"], [[0, 1], "1.5"]]}})}),
    "config_space_ref": (CERTIFY, {"c.json": _config(
        spaces=PAIR, actions={"a": {"space": "nope", "perms": [[1, 0]]}})}),
    "config_space_ref_not_a_name": (CERTIFY, {"c.json": _config(
        sets={"a": {"space": 5, "atoms": [0]}})}),
    "config_base_map": (CERTIFY, {"c.json": _config(
        spaces=PAIR, automorphisms=SWAP,
        cocycles={"r": {"base_map": "nope", "fiber": "pair", "maps": []}})}),
    "config_name_trailing_newline": (CERTIFY, _spaces(**{"b\n": {"uniform": 2}})),
    # tensor file fields
    "tensor_factor_item": (VERIFY, _tensor(factors=[["1/2", "x"]])),
    "tensor_factor_weights": (VERIFY, _tensor(factors=[["1/2", "1/3"]])),
    "tensor_factors_cap": (VERIFY, _tensor(factors=[["1/2", "1/2"]] * 17)),
    "tensor_nonzero_pair": (VERIFY, _tensor(nonzero=[[[0], "1/2"], [[1]]])),
    "tensor_nonzero_index": (VERIFY, _tensor(nonzero=[[[0, 1], "1/2"]])),
    "tensor_nonzero_range": (VERIFY, _tensor(nonzero=[[[2], "1/2"]])),
    "tensor_nonzero_duplicate": (VERIFY, _tensor(nonzero=[[[0], "1/2"], [[0], "1/2"]])),
    "tensor_nonzero_value": (VERIFY, _tensor(nonzero=[[[0], "1/2"], [[1], "1e0"]])),
    # values that are not strings, after a string literal: never looked up
    # among the parsed literals (a list or an object is not hashable)
    **{
        f"tensor_nonzero_value_{kind}": (VERIFY, _tensor(nonzero=[[[0], "1/2"], [[1], value]]))
        for kind, value in (("list", [1]), ("object", {}), ("null", None),
                            ("float", 0.5), ("bool", True))
    },
    "tensor_nonzero_form_cap": (VERIFY, {"t.json": json.dumps(DENSE_TENSOR)}),
    # command line flags and the names they look up
    "lookup_unknown_action": (
        ("polytope", *K1, "--action", "nope", "--order", "2",
         "--independence", "1", "--certify"), {}),
    "lookup_none_defined": (
        ("mixing", *K1, "--automorphism", "t", "--sets", "a,b", "--sweep", "2"), {}),
    "lookup_unknown_set": ((*DEMO_MIX, "--sets", "low,nope", "--sweep", "2"), {}),
    "lookup_unknown_fiber_set_b": (
        (*AVERAGE, "--fiber-set-a", "top", "--fiber-set-b", "nope", "--horizon", "2"), {}),
    "joining_verify_config_without_action": ((*VERIFY, *K1), _tensor()),
    "joining_verify_action_space": (
        (*VERIFY, "--config", "c.json", "--action", "a"),
        {**_tensor(), "c.json": _config(
            spaces={"s": {"uniform": 3}},
            actions={"a": {"space": "s", "perms": [[1, 2, 0]]}})}),
    "polytope_objective_index": (
        ("polytope", "--config", "c.json", "--action", "a", "--order", "3",
         "--independence", "2", "--objective", "o"),
        {"c.json": _config(
            spaces=PAIR, actions={"a": {"space": "pair", "perms": [[1, 0]]}},
            objectives={"o": {"entries": [[[0, 0], "1/1"]]}})}),
    "mixing_sets_empty": ((*DEMO_MIX, "--sets", ",", "--sweep", "2"), {}),
    "mixing_sets_empty_entry": ((*DEMO_MIX, "--sets", "low,,mixed,", "--sweep", "2"), {}),
    "mixing_sets_one": ((*DEMO_MIX, "--sets", "low", "--sweep", "2"), {}),
    "mixing_sets_space": ((*SKEW_MIX, "--sets", "low,top", "--sweep", "2"), {}),
    "mixing_offsets_empty": ((*DEMO_MIX, "--sets", "low,high", "--offsets", ","), {}),
    "mixing_offsets_empty_entry": ((*DEMO_MIX, "--sets", "low,high", "--offsets", "1,,"), {}),
    "mixing_offsets_not_int": ((*DEMO_MIX, "--sets", "low,high", "--offsets", "x"), {}),
    "mixing_offsets_underscore": (
        (*DEMO_MIX, "--sets", "low,high", "--offsets", "1_0"), {}),
    "mixing_offsets_past_digit_limit": (
        (*DEMO_MIX, "--sets", "low,high", "--offsets", "1" * 4301), {}),
    "mixing_offsets_zero": ((*DEMO_MIX, "--sets", "low,high", "--offsets", "0"), {}),
    "mixing_offsets_count": ((*DEMO_MIX, "--sets", "low,high", "--offsets", "1,1"), {}),
    "mixing_sweep_zero": ((*DEMO_MIX, "--sets", "low,high", "--sweep", "0"), {}),
    "mixing_sweep_grid_cap": (
        ("mixing", "--config", "c.json", "--automorphism", "t", "--sets", "a,a,a,a",
         "--sweep", "64"), {"c.json": _cycle(64)}),
    "mixing_sweep_work_cap": (
        ("mixing", "--config", "c.json", "--automorphism", "t", "--sets", "a,a,a",
         "--sweep", "256"), {"c.json": _cycle(256)}),
    "eta_k_zero": (("eta", "--k", "0"), {}),
    "cocycle_eps_literal": ((*FRACTION, "--eps", "1.5"), {}),
    "cocycle_eps_zero": ((*FRACTION, "--eps", "0"), {}),
    "cocycle_n_param_zero": ((*RIGIDITY, "--set", "low", "--n-param", "0"), {}),
    "cocycle_set_on_fiber": ((*RIGIDITY, "--set", "top", "--n-param", "2"), {}),
    "cocycle_horizon_zero": (
        (*AVERAGE, "--fiber-set-a", "top", "--fiber-set-b", "top", "--horizon", "0"), {}),
    "cocycle_fiber_set_a_on_base": (
        (*AVERAGE, "--fiber-set-a", "low", "--fiber-set-b", "top", "--horizon", "2"), {}),
    "cocycle_fiber_set_b_on_base": (
        (*AVERAGE, "--fiber-set-a", "top", "--fiber-set-b", "low", "--horizon", "2"), {}),
    "cocycle_stat_ignored_flags": (
        (*FRACTION, "--eps", "2/1", "--set", "low", "--horizon", "4", "--n-param", "9",
         "--fiber-set-a", "nope"), {}),
    "polytope_order_one": ((*K1_FLIP, "--order", "1", "--independence", "1"), {}),
    "polytope_order_past_cap": ((*K1_FLIP, "--order", "5", "--independence", "1"), {}),
    "polytope_shape_past_cap": (
        ("polytope", "--config", "c.json", "--action", "a", "--order", "4",
         "--independence", "2", "--certify"),
        {"c.json": _config(
            spaces={"s": {"uniform": 20}},
            actions={"a": {"space": "s", "perms": [[(i + 1) % 20 for i in range(20)]]}})}),
    "polytope_independence_order": ((*K1_FLIP, "--order", "3", "--independence", "3"), {}),
    "polytope_independence_zero": ((*K1_FLIP, "--order", "3", "--independence", "0"), {}),
    "sample_analyze_past_cap": (
        ("sample", "--config", "c.json", "--base", "s", "--fiber", "f", "--seed", "3",
         "--mode", "iid-cocycle", "--analyze"),
        {"c.json": _config(
            spaces={"b": {"uniform": 257}, "f": {"uniform": 256}},
            automorphisms={"s": {"space": "b", "perm": [(i + 1) % 257 for i in range(257)]}})}),
}


def error_entry(name) -> dict:
    """Exit code and stderr, minus the wall-time line, of one error case."""
    argv, files = ERROR_CASES[name]
    err = io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(REPO / "configs", Path(tmp) / "configs")
        for path, text in files.items():
            (Path(tmp) / path).write_text(text)
        os.chdir(tmp)
        try:
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = main(list(argv))
        finally:
            os.chdir(home)
    lines = err.getvalue().splitlines(keepends=True)
    return {
        "exit": code,
        "stderr": "".join(x for x in lines if not x.startswith("wall time:")),
    }


@pytest.mark.parametrize("name", sorted(INVOCATIONS))
def test_report_matches_golden_bytes(name):
    assert report_bytes(name) == (GOLDEN / f"{name}.json").read_bytes()


# pairwise-independent order-4 certificates on the full Z_2^3 and Z_2^4
# actions, pinned by the sha256 of their reports: the Z_2^4 witness alone
# holds 65,536 entries
HASHED = {
    "z2k3_full.json": "e7271eab8bdc693ec81c74143a13d2b6e8615013d1b0de55f92014daf8b2ee77",
    "z2k4_full.json": "b10e42296b363b8a9db6cbf2b1bcc7e6749185b0658d9284e5758e71bad159e6",
}


def test_large_certificates_match_pinned_hashes(tmp_path, monkeypatch, capsys):
    shutil.copy(REPO / "tests/golden/tensors/z2k3_full.json", tmp_path)
    perms = [list(g.perm) for g in full_action(Z2kContext(4)).generators]
    config = {"spaces": {"g": {"uniform": 16}},
              "actions": {"full": {"space": "g", "perms": perms}}}
    (tmp_path / "z2k4_full.json").write_text(json.dumps(config))
    monkeypatch.chdir(tmp_path)
    for name, digest in HASHED.items():
        argv = ["polytope", "--config", name, "--action", "full", "--order", "4",
                "--independence", "2", "--certify"]
        assert main(argv) == 0
        assert sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_tensor_commands_build_no_dense_index_map(monkeypatch, capsys):
    """eta and joining verify read only the support: with every dense flat
    index map refused, they still print their golden reports."""

    def refuse(*args):
        raise AssertionError("a dense flat index map was built")

    for name, module in list(sys.modules.items()):
        if name.startswith("joinlab") and hasattr(module, "flat_index_map"):
            monkeypatch.setattr(module, "flat_index_map", refuse)
    monkeypatch.chdir(REPO)
    for name in ("eta_k3_verify", "joining_verify_eta_k3"):
        assert main(list(INVOCATIONS[name])) == 0
        golden = (GOLDEN / f"{name}.json").read_bytes()
        assert capsys.readouterr().out.encode() == golden


def test_tensor_commands_read_in_part_faces_without_support_maps(monkeypatch, capsys):
    """The marginal checks read every 1-face off the two parts of the
    support's split: eta maps the support only for its four 3-faces and
    five generators, joining verify only for its five generators."""
    calls = []
    real = joinings.support_map

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(joinings, "support_map", counted)
    monkeypatch.chdir(REPO)
    for name, maps in (("eta_k3_verify", 4 + 5), ("joining_verify_eta_k3", 5)):
        calls.clear()
        assert main(list(INVOCATIONS[name])) == 0
        golden = (GOLDEN / f"{name}.json").read_bytes()
        assert capsys.readouterr().out.encode() == golden
        assert len(calls) == maps, name


def test_tensor_commands_scan_no_numerators_for_the_support(monkeypatch, capsys):
    """eta builds its support with its entries and joining verify takes the
    decoder's: with ``support_cells`` refused, every eta and joining verify
    run prints its golden report with its exit code."""

    def refuse(*args):
        raise AssertionError("the support was listed by a scan of the numerators")

    monkeypatch.setattr(joinings, "support_cells", refuse)
    monkeypatch.chdir(REPO)
    for name in sorted(INVOCATIONS):
        if name.startswith(("eta_", "joining_verify_")):
            assert main(list(INVOCATIONS[name])) == (1 if name in FAILING else 0)
            golden = (GOLDEN / f"{name}.json").read_bytes()
            assert capsys.readouterr().out.encode() == golden, name


def test_sample_analyze_builds_no_product_automorphism(monkeypatch, capsys):
    """sample --analyze counts the skew product's orbits from the return
    maps over each base orbit: with the product automorphism and the orbit
    labelling refused, every sample run prints its golden report."""

    def refuse(*args):
        raise AssertionError("the orbits were read off a product automorphism")

    monkeypatch.setattr(skew, "as_automorphism", refuse)
    monkeypatch.setattr(spaces, "orbit_labels", refuse)
    monkeypatch.chdir(REPO)
    runs = [name for name in sorted(INVOCATIONS) if name.startswith("sample_")]
    assert runs
    for name in runs:
        assert "--analyze" in INVOCATIONS[name]
        assert main(list(INVOCATIONS[name])) == 0
        golden = (GOLDEN / f"{name}.json").read_bytes()
        assert capsys.readouterr().out.encode() == golden, name


@pytest.fixture(scope="module")
def errors():
    return json.loads((GOLDEN / "errors.json").read_text())


def test_error_table_covers_every_case(errors):
    assert sorted(errors) == sorted(ERROR_CASES)


@pytest.mark.parametrize("name", sorted(ERROR_CASES))
def test_error_matches_golden(errors, name):
    assert error_entry(name) == errors[name]


def _moved_checks() -> dict:
    """Error case -> (the library call it makes, with the case's bad input,
    and the ``param`` its check carries), for every case whose flag a
    handler's ``naming`` mapping supplies: each check runs once, in the
    library, and the CLI only maps its param to the flag."""
    skew_cfg, mix_cfg, k1_cfg = (
        parse_config(json.loads((REPO / "configs" / name).read_text()))
        for name in ("skew_demo.json", "mixing_demo.json", "polytope_k1.json")
    )
    r = skew_cfg.lookup("cocycles", "alternating")
    low, top = skew_cfg.lookup("sets", "low"), skew_cfg.lookup("sets", "top")
    times = skew_cfg.lookup("sequences", "times").times
    flip = k1_cfg.lookup("actions", "flip")
    mix_sets = [mix_cfg.lookup("sets", name) for name in ("low", "high")]
    rot4, demo_rot4 = (cfg.lookup("automorphisms", "rot4") for cfg in (skew_cfg, mix_cfg))
    return {
        "eta_k_zero": (lambda: Z2kContext(0), "k"),
        "polytope_order_one": (lambda: PolytopeSpec(flip, 1, 1), "order"),
        "polytope_order_past_cap": (lambda: PolytopeSpec(flip, 5, 1), "order"),
        "polytope_independence_order": (lambda: PolytopeSpec(flip, 3, 3), "independence"),
        "polytope_independence_zero": (lambda: PolytopeSpec(flip, 3, 0), "independence"),
        "cocycle_n_param_zero": (lambda: rigidity_statistic(r, low, 0, times), "n_param"),
        "cocycle_set_on_fiber": (lambda: rigidity_statistic(r, top, 2, times), "set"),
        "cocycle_eps_zero": (lambda: relative_mixing_fraction(r, times[0], 0), "eps"),
        "cocycle_horizon_zero": (
            lambda: relative_weak_mixing_average(r, top, top, 0), "horizon"),
        "cocycle_fiber_set_a_on_base": (
            lambda: relative_weak_mixing_average(r, low, top, 2), "a"),
        "cocycle_fiber_set_b_on_base": (
            lambda: relative_weak_mixing_average(r, top, low, 2), "b"),
        "mixing_sets_space": (
            lambda: mixing_deviation_sweep_detail(rot4, [low, top], 2), "sets"),
        "mixing_sweep_zero": (
            lambda: mixing_deviation_sweep_detail(demo_rot4, mix_sets, 0), "k_range"),
        "mixing_offsets_count": (lambda: correlation(demo_rot4, mix_sets, (1, 1)), "k"),
    }


MOVED_CHECKS = _moved_checks()


@pytest.mark.parametrize("name", sorted(MOVED_CHECKS))
def test_library_checks_supply_the_flagged_errors(errors, name, monkeypatch):
    call, param = MOVED_CHECKS[name]
    flag, text = errors[name]["stderr"].removeprefix("error: ").split(": ", 1)
    with pytest.raises(InvalidInputError) as err:
        call()
    assert (f"{err.value}\n", err.value.param) == (text, param)
    # the handler's mapping sends that param to the flag
    mappings = []

    class spy(cli.naming):
        def __exit__(self, kind, exc, tb):
            if exc is not None and not isinstance(self.field, str):
                mappings.append(self.field.get(exc.param, self.field.get(None)))
            return super().__exit__(kind, exc, tb)

    monkeypatch.setattr(cli, "naming", spy)
    assert error_entry(name) == errors[name]
    assert mappings == [flag]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(INVOCATIONS):
        (GOLDEN / f"{name}.json").write_bytes(report_bytes(name))
        print(f"recorded {name}")
    table = {name: error_entry(name) for name in sorted(ERROR_CASES)}
    (GOLDEN / "errors.json").write_text(json.dumps(table, indent=1) + "\n")
    print(f"recorded {len(table)} error cases")
