"""The benchmark's per-layer tracer against the live package.

``perfbench/tracer.py`` wraps joinlab functions by name and reads some of
their arguments by parameter name.  A renamed function or parameter would
leave a layer untimed or break its counter, so the tracer is installed
here on the package as it is: every target must be found, every argument
a counter reads must be a parameter of its target, a traced command must
count, and uninstalling must put every original back.  The tracer is read
from its file; nothing under ``perfbench/`` is changed.
"""

import importlib.util
import inspect
import sys
from pathlib import Path
from unittest.mock import MagicMock

import joinlab.cli
from joinlab.simplex import RationalSimplex
from joinlab.torus import Z2kContext, full_action

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("joinlab_bench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _keys_read(counter) -> list[str]:
    """The argument names a counter looks up, recorded by calling it on a
    mapping that answers every name with a mock."""
    seen = []

    class Arguments(dict):
        def __missing__(self, key):
            seen.append(key)
            return MagicMock()

    counter(Arguments(), MagicMock())
    return seen


def _target(module, attr):
    owner_name, _, name = attr.rpartition(".")
    owner = sys.modules[module]
    if owner_name:
        owner = getattr(owner, owner_name)
    return vars(owner)[name]


def _bindings() -> dict:
    """Every function or class attribute of a joinlab module, and the two
    wrapped simplex methods, by where it is looked up."""
    out = {
        (name, key): value
        for name, module in list(sys.modules.items())
        if name == "joinlab" or name.startswith("joinlab.")
        for key, value in vars(module).items()
        if callable(value)
    }
    for key in ("__init__", "solve_for"):
        out[("RationalSimplex", key)] = vars(RationalSimplex)[key]
    return out


def test_every_counted_argument_is_a_parameter_of_its_target():
    tracer = _load_tracer()
    read = set()
    for _, module, attr, counter in tracer.TARGETS:
        if counter is None:
            continue
        keys = _keys_read(counter)
        params = inspect.signature(_target(module, attr)).parameters
        assert set(keys) <= set(params), (attr, keys, list(params))
        read.update(keys)
    assert {"rows", "num_vars", "spec", "v", "action"} <= read


def test_tracer_installs_on_the_live_package_and_restores_it(capsys):
    module = _load_tracer()
    generators = full_action(Z2kContext(2)).generators
    before = _bindings()
    tracer = module.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
        wrapped = joinlab.cli.diagonal_invariance_defect
        assert wrapped is not before[("joinlab.joinings", "diagonal_invariance_defect")]
        assert joinlab.cli.main(["eta", "--k", "2"]) == 0
        # eta's one traced kernel read: invariance, 256 entries per generator
        assert tracer.counts["joinings.entries"] == 256 * len(generators)
        assert tracer.self_times()["joinings.invariance_s"] > 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert _bindings() == before
