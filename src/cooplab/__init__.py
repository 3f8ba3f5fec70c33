"""Finitely-repeated bimatrix games with private types: equilibrium
enumeration, regret accounting, handshake-coordination and
imitate-then-commit agents, population datasets, and a verification harness
for the associated concentration and performance bounds.

The package root exports no names: import them from their modules.  It
imports ``imitation_commit`` and ``population`` because they register the
``IC`` and ``Flattened`` agent kinds with ``agents`` as they load.
"""

from . import imitation_commit, population  # noqa: F401

__version__ = "0.1.0"
