"""The installed metadata agrees with the package the suite imports.

The suite runs from ``src/`` on the path, never from an install, so
nothing else checks the console script or the version in
``pyproject.toml``.
"""

import importlib
from pathlib import Path

import pytest

import forestdom
from forestdom import cli

tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _project():
    with PYPROJECT.open("rb") as handle:
        return tomllib.load(handle)["project"]


def test_console_script_resolves_to_cli_main():
    target = _project()["scripts"]["forestdom"]
    module_name, _, attribute = target.partition(":")
    entry = getattr(importlib.import_module(module_name), attribute)
    assert callable(entry)
    assert entry is cli.main


def test_project_version_is_the_package_version():
    assert _project()["version"] == forestdom.__version__
