"""Exact p-adic operator calculus and the coefficient blow-up certificates.

Subpackage map:

- padics: valuations, capped-precision p-adic numbers, binomials
- carries: the twist family, carry functions, Kummer valuations, the special index sums
- ratfun: exact rational functions, divisors, Mobius action
- cheeses: circle and Gauss valuations of rational functions
- skew: truncated skew-Laurent operators and the star product
- twists: twisting automorphisms, microlocal inverses, beta operators
- dwork: the Dwork projector and the Frobenius-descent relation
- zeta: the differential equation at infinity and its solution series
- cli: the verification runner
"""

from .padics import PadicNumber, PrecisionExhausted, vp_factorial, vp_rational

__all__ = ["PadicNumber", "PrecisionExhausted", "vp_factorial", "vp_rational"]
