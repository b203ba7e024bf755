"""Setuptools shim.

Kept alongside ``pyproject.toml`` so that ``pip install -e .`` works in
offline environments whose setuptools/pip combination lacks the ``wheel``
package required by PEP 660 editable builds.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Sprinkler (HPCA 2014) reproduction: resource-driven scheduling for "
        "many-chip SSDs"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.11",
)
