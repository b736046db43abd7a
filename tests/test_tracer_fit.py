"""The benchmark's tracer (perfbench/spans.py) still fits the package.

The tracer wraps the functions named in its ``PUBLIC`` table and reads some
of their arguments by position and name. A public signature change that
breaks those assumptions would break only the traced benchmark run, so the
assumptions are checked here. ``spans.py`` is imported read-only: no
bytecode is written next to it.
"""

import importlib
import inspect
import sys
import typing
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def public():
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        spans = importlib.import_module("spans")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        sys.modules.pop("spans", None)
    return spans.PUBLIC


def _function(module: str, name: str):
    return getattr(importlib.import_module(f"ultraband.{module}"), name)


def _parameters(module: str, name: str) -> list:
    return list(inspect.signature(_function(module, name)).parameters)


def test_every_traced_name_is_a_function_of_its_module(public):
    for module, names in public.items():
        for name in names:
            assert inspect.isfunction(_function(module, name)), f"{module}.{name}"


def test_arguments_the_tracer_reads_keep_name_and_position(public):
    assert {"read_wav", "write_wav"} <= set(public["wavio"])
    assert {"apply_filter", "hilbert", "design_lowpass"} <= set(public["kernels"])
    assert _parameters("wavio", "read_wav")[0] == "path"
    assert _parameters("wavio", "write_wav")[0] == "path"
    assert _parameters("kernels", "apply_filter")[1] == "signal"
    assert _parameters("kernels", "hilbert")[0] == "signal"


def test_design_lowpass_parameters_are_numeric():
    # the tracer keys distinct designs on float() of every bound argument
    design_lowpass = _function("kernels", "design_lowpass")
    hints = typing.get_type_hints(design_lowpass)
    for name in inspect.signature(design_lowpass).parameters:
        assert hints[name] in (int, float), name
