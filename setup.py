"""Package metadata: ``pip install -e .`` (or ``python setup.py
develop`` where setuptools predates PEP 660 editable installs) makes
``src/repro`` importable.  This file is the only packaging metadata."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
)
