"""Exact polynomial and algebraic-number arithmetic over the rationals.

The package re-exports nothing: import from its modules, unipoly, bipoly,
factor and numberfield. orthoscope re-exports the names the pipeline uses.
"""
