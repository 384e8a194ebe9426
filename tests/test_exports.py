import argparse
import importlib
import inspect
import io
import pathlib
import pkgutil
import sys
from types import ModuleType

import pytest

import nblab
from nblab.cli import build_parser, run

SUBMODULES = sorted(
    m.name for m in pkgutil.iter_modules(nblab.__path__) if m.name != "__main__"
)

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", SUBMODULES)
def test_module_exports_resolve(name):
    module = importlib.import_module(f"nblab.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_package_exports_match_imports():
    imported = {
        n for n, v in vars(nblab).items()
        if not n.startswith("_") and not isinstance(v, ModuleType)
    }
    assert len(set(nblab.__all__)) == len(nblab.__all__)
    assert set(nblab.__all__) == imported


def test_test_only_oracles_are_not_exported():
    # step profiles, the Euler-Maclaurin gamma and the single-term moment
    # quadrature serve only as oracles, in tests/conftest.py
    oracles = {"step_profile", "StepProfile", "euler_gamma", "dilated_frac_moment_quad"}
    for name in ("fracsum", "gammafn", "moments"):
        assert not oracles & set(dir(importlib.import_module(f"nblab.{name}")))
    # no subcommand reaches pair_product_integral: it stays in nblab.gram,
    # unexported, beside the hook nblab.zeta.gamma, as bench/tracing.py wraps both
    assert not (oracles | {"pair_product_integral"}) & set(dir(nblab))
    assert callable(importlib.import_module("nblab.gram").pair_product_integral)
    assert callable(importlib.import_module("nblab.zeta").gamma)


def readme_argv() -> list[list[str]]:
    """The argv of each line of README's command-line block."""
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    return [line.split("#")[0].split()[1:] for line in block.splitlines()
            if line.startswith("nblab ")]


def test_every_public_function_is_reached_by_a_subcommand(tmp_path, monkeypatch):
    # README's argv, every subcommand among them, run in-process: each plain
    # function of nblab.__all__ must be entered (exceptions and dataclasses
    # are exempt)
    argvs = readme_argv()
    subparsers = next(a for a in build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in argvs} == set(subparsers.choices)
    (tmp_path / "phi.json").write_text(
        '{"terms": [{"h": -1, "l": 1}, {"h": 2, "l": 2}], "constrained": true}')
    monkeypatch.chdir(tmp_path)
    entered = set()

    def profile(frame, event, _arg):
        if event == "call":
            entered.add(frame.f_code)

    saved = sys.getprofile()
    sys.setprofile(profile)
    try:
        codes = [run(argv, io.StringIO(), io.StringIO()) for argv in argvs]
    finally:
        sys.setprofile(saved)
    assert codes == [0] * len(argvs)
    functions = {n: getattr(nblab, n) for n in nblab.__all__}
    unreached = [n for n, f in functions.items()
                 if inspect.isfunction(f) and f.__code__ not in entered]
    assert unreached == []
