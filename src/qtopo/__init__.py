"""Quantum topological invariants of 3-manifolds via quadratic Gauss sums."""

__version__ = "0.1.0"
