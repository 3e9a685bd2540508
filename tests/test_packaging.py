"""Packaging guard: every on-disk ``repro`` subpackage ships in the wheel.

``pyproject.toml`` discovers packages with setuptools' ``find_packages``
over ``src``; this test pins that discovery to the actual directory
tree, so adding a subpackage (as the store/service PR does with
``repro.store`` and ``repro.service``) without an ``__init__.py`` — or
with one that fails to import — breaks loudly here instead of silently
shipping an incomplete distribution.  It also requires the version in
``pyproject.toml`` to equal ``repro.__version__``, so a version bump
moves both, and ``import repro`` to leave networkx unimported.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def on_disk_packages() -> set:
    """Every directory under ``src/repro`` that contains python modules."""
    found = set()
    for current, dirs, files in os.walk(os.path.join(SRC, "repro")):
        dirs[:] = [d for d in dirs if d != "__pycache__"]
        if any(name.endswith(".py") for name in files):
            relative = os.path.relpath(current, SRC)
            found.add(relative.replace(os.sep, "."))
    return found


def test_find_packages_matches_directory_tree():
    setuptools = pytest.importorskip("setuptools")
    discovered = {
        name
        for name in setuptools.find_packages(SRC)
        if name == "repro" or name.startswith("repro.")
    }
    assert discovered == on_disk_packages()


def test_new_subpackages_are_discovered_and_import():
    setuptools = pytest.importorskip("setuptools")
    discovered = set(setuptools.find_packages(SRC))
    for name in ("repro.store", "repro.service"):
        assert name in discovered, f"{name} missing from find_packages"
        importlib.import_module(name)


def test_every_package_has_init():
    for name in on_disk_packages():
        path = os.path.join(SRC, name.replace(".", os.sep), "__init__.py")
        assert os.path.exists(path), f"{name} lacks __init__.py"


def pyproject_version() -> str:
    """``[project] version`` from ``pyproject.toml``, read without tomllib
    (Python 3.9 has none)."""
    section = None
    with open(os.path.join(REPO_ROOT, "pyproject.toml")) as handle:
        for line in handle:
            line = line.strip()
            if line.startswith("["):
                section = line
            elif section == "[project]" and line.startswith("version"):
                key, _, value = line.partition("=")
                if key.strip() == "version":
                    return value.strip().strip("\"'")
    raise AssertionError("pyproject.toml has no [project] version")


def test_pyproject_version_is_the_package_version():
    import repro

    assert pyproject_version() == repro.__version__


def test_import_repro_leaves_networkx_unimported():
    """networkx is imported by ``to_networkx`` alone, so the package
    import (and every process that only runs the flow) stays light."""
    code = "import sys, repro; print('networkx' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "False"
