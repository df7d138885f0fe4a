"""Build configuration: a pure-Python package under ``src/``.

Nothing is compiled; ``PYTHONPATH=src python -m repro ...`` runs a checkout
as it stands.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
