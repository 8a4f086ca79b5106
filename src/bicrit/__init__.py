"""Exact-arithmetic certificates for bicritical polynomial dynamics.

Subpackages cover: arbitrary-precision scalars and p-adic valuations
(:mod:`bicrit.arith`), polynomial rings, resultants and Newton polygons
(:mod:`bicrit.polyring`), critical-point normal forms (:mod:`bicrit.belyi`),
index-divisor-free prime search (:mod:`bicrit.idf`), min-plus valuation
dynamics (:mod:`bicrit.valdyn`), and locus / transversality certificates
(:mod:`bicrit.pcf`).  The command line lives in :mod:`bicrit.cli`.  Each
name is imported from its module, e.g. ``from bicrit.idf import
find_idf_prime``; importing the package loads none of them.
"""

__version__ = "0.1.0"
