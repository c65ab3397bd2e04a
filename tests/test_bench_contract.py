"""The benchmark's tracer wraps package attributes by name; keep them resolvable."""

import importlib
import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracer")


def _resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
        return owner.__dict__[attr]
    return getattr(owner, attr)


def _package_attributes(tracer):
    """Every sp4mono module attribute and every traced class attribute."""
    snapshot = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "sp4mono" or name.startswith("sp4mono.")):
            snapshot.update(((name, alias), value) for alias, value in vars(mod).items())
    for module_name, attr in tracer.TRACED.values():
        if "." in attr:
            snapshot[module_name, attr] = _resolve(module_name, attr)
    return snapshot


def test_every_traced_attribute_resolves(tracer):
    for name, (module_name, attr) in tracer.TRACED.items():
        assert callable(_resolve(module_name, attr)), name
    power = _resolve("sp4mono.monodromy", "MonodromyTriple.power")
    assert tracer.TRACED["monodromy.power"] == ("sp4mono.monodromy", "MonodromyTriple.power")
    assert list(inspect.signature(power).parameters) == ["self", "gen", "exp"]


def test_install_then_uninstall_restores_every_attribute(tracer):
    before = _package_attributes(tracer)
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = _resolve("sp4mono.search", "find_gamma")
        assert wrapped is not before["sp4mono.search", "find_gamma"]
    finally:
        t.uninstall()
    after = _package_attributes(tracer)
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
