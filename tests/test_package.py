"""Package-level smoke tests: public API integrity."""

import importlib

import pytest

import repro

SUBPACKAGES = (
    "repro.isa",
    "repro.frontend",
    "repro.workloads",
    "repro.memsys",
    "repro.oracle",
    "repro.multiscalar",
    "repro.core",
    "repro.experiments",
)


def test_version():
    assert repro.__version__ == "1.1.0"


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_subpackage_imports(name):
    module = importlib.import_module(name)
    assert module.__doc__, name


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    for symbol in getattr(module, "__all__", ()):
        assert hasattr(module, symbol), "%s.%s missing" % (name, symbol)


def test_docstring_quickstart_is_runnable():
    """The usage example in the package docstring must actually work."""
    from repro.workloads import get_workload
    from repro.multiscalar import simulate, MultiscalarConfig, make_policy

    trace = get_workload("compress").trace("tiny")
    stats = simulate(trace, MultiscalarConfig(stages=8), make_policy("esync"))
    summary = stats.summary()
    assert summary["instructions"] == len(trace)


def test_public_entry_points_exist():
    from repro.cli import main
    from repro.experiments.report import write_report

    assert callable(main)
    assert callable(write_report)
