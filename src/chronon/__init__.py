"""Operator-algebra checks for quantized spacetime and free Dirac wave-packet dynamics.

The layers compute in Compton units (hbar = c = m = 1), with the one parameter
a' = a m c/hbar; :mod:`chronon.config` converts the user's units at the edge.
"""

__version__ = "0.1.0"
