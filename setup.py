"""Setuptools shim for offline editable installs (``pip install -e .``).

The execution environment has no network and no ``wheel`` package, which
breaks PEP 660 editable builds; the classic ``setup.py develop`` path used
by pip for projects with a ``setup.py`` works without it.  All metadata
lives here.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "PRIMA reproduction: a DBMS kernel implementing the "
        "Molecule-Atom Data model (VLDB 1987)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
