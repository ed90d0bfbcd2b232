"""Setuptools entry point.

A setup.py is kept (alongside pyproject.toml metadata) so that editable
installs work in fully offline environments that lack the `wheel` package
required by the PEP 517 editable-install path.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Chronos: a graph engine for temporal graph analysis "
        "(EuroSys 2014) — full reproduction"
    ),
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # The native library's C sources are compiled on first use.
    package_data={"repro": ["lint/py.typed", "native/*.c"]},
    install_requires=["numpy>=1.25"],
)
