"""The one-subcommand parser against the full one.

``main`` builds only the subcommand its argv names.  Every golden
invocation, report or error case, and every edge case of argparse here
must parse, print and exit alike through ``build_parser(argv[0])`` and
``build_parser()``: the same namespace, or the same exit code, stdout and
stderr.  The edge cases that exit also run through ``main``, which picks
the parser itself."""

import pytest
from test_golden import ERROR_CASES, INVOCATIONS

from joinlab.cli import _COMMANDS, build_parser, main

POLYTOPE = ("polytope", "--config", "configs/polytope_k1.json", "--action", "flip",
            "--order", "3", "--independence", "2")
MIXING = ("mixing", "--config", "configs/mixing_demo.json", "--automorphism", "rot4",
          "--sets", "low,high")
COCYCLE = ("cocycle", "--config", "configs/skew_demo.json", "--cocycle", "alternating")

# argv that end in an argparse exit: help, usage errors and bad values
EDGE_CASES = {
    "root-help": ("--help",),
    **{f"{name}-help": (name, "--help") for name in _COMMANDS},
    "joining-verify-help": ("joining", "verify", "--help"),
    "empty": (),
    "unknown-command": ("frobnicate",),
    "option-before-command": ("--out", "x", "eta", "--k", "3"),
    "unrecognized": ("eta", "--k", "3", "--bogus"),
    "missing-required": ("polytope", "--config", "configs/polytope_k1.json",
                         "--action", "flip", "--order", "3", "--certify"),
    "offsets-and-sweep": (*MIXING, "--offsets", "1", "--sweep", "2"),
    "bad-stat-choice": (*COCYCLE, "--stat", "bogus"),
    "joining-without-verify": ("joining",),
}
# argv that parse: the golden invocations and two spellings argparse accepts
PARSED_CASES = {
    **{f"golden-{name}": argv for name, argv in INVOCATIONS.items()},
    **{f"error-{name}": argv for name, (argv, _) in ERROR_CASES.items()},
    "equals-sign": ("eta", "--k=3"),
    "abbreviation": (*POLYTOPE, "--cert"),
}


def _outcome(parser, argv, capsys):
    """(namespace, "", "") if ``argv`` parses, else (code, stdout, stderr)."""
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err
    return vars(args), "", ""


@pytest.mark.parametrize("argv", [*PARSED_CASES.values(), *EDGE_CASES.values()],
                         ids=[*PARSED_CASES, *EDGE_CASES])
def test_one_subcommand_parser_matches_the_full_parser(argv, capsys):
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    got = _outcome(build_parser(command), argv, capsys)
    assert got == _outcome(build_parser(), argv, capsys)


@pytest.mark.parametrize("argv", EDGE_CASES.values(), ids=EDGE_CASES)
def test_main_prints_and_exits_as_the_full_parser(argv, capsys):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == _outcome(build_parser(), argv, capsys)
