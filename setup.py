"""Packaging shim.

Everything is declared in ``pyproject.toml``; this file exists so that
``python setup.py develop`` (the offline fallback of ``make install``)
still works.
"""

from setuptools import setup

setup()
