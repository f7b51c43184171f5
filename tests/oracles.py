"""Calculus on rational functions, the tests' reference for witnesses.

The package never differentiates a RatFunc: WitnessData.verify checks a
witness identity on the polynomials of h, cross-multiplied. These helpers
take the derivative in the quotient form and reduce it, so the tests check
the package's witnesses and Hermite splits against a computation of their
own.
"""

from orthoscope import RatFunc


def derivative(r: RatFunc) -> RatFunc:
    """r' = (n'd - nd')/d^2 for r = n/d, in lowest terms."""
    return RatFunc(r.num.derivative() * r.den - r.num * r.den.derivative(), r.den * r.den)


def dlog(r: RatFunc) -> RatFunc:
    """r'/r, the logarithmic derivative; ZeroDivisionError at r = 0."""
    if r.is_zero:
        raise ZeroDivisionError("logarithmic derivative of zero")
    return derivative(r) / r


def proper(r: RatFunc) -> bool:
    """Whether deg num < deg den."""
    return r.num.degree < r.den.degree
