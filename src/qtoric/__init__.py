"""Exact classification of quasitoric manifolds over a product of two
simplices (second Betti number 2), with integer-lattice and polynomial
machinery, closed-form homeomorphism decisions, and independent brute-force
oracles.

The package exports the public names of its five library layers, each
declared once, in its module's ``__all__``."""

from . import classify, lattice, oracle, polyring, quasitoric
from .lattice import *
from .polyring import *
from .quasitoric import *
from .classify import *
from .oracle import *

__version__ = "1.0.0"

__all__ = (
    lattice.__all__
    + polyring.__all__
    + quasitoric.__all__
    + classify.__all__
    + oracle.__all__
    + ["__version__"]
)
