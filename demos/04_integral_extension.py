"""The harmonic family off the integers: quadrature vs. closed forms.

On integers the modified harmonic number is a finite rational sum; on real
arguments it is defined by an integral.  This script estimates the integral
by adaptive quadrature, as an interval from the quadrature's error estimate,
checks that the intervals contain the exact sums, then shows the two routes
agreeing at non-integer points.
"""

from fractions import Fraction

import mpmath

from welfarist.functions import ModHarmonic
from welfarist.quadrature import harmonic_integral

print("closed form vs quadrature interval (width <= 1e-9):")
for c in [Fraction(-1), Fraction(0), Fraction(1, 2)]:
    fn = ModHarmonic(c)
    for x in [1, 4, 8]:
        iv = harmonic_integral(c, x, 1e-9)
        exact = fn.integer_value(x)
        inside = iv.lo <= mpmath.mpf(exact.numerator) / exact.denominator <= iv.hi
        print(f"  c={str(c):>4} x={x}:  sum = {str(exact):>9}  inside = {inside}")

print("\nnon-integer points, two independent routes:")
for c, x in [(Fraction(0), Fraction(1, 2)), (Fraction(-1, 2), Fraction(7, 3))]:
    iv = harmonic_integral(c, x, 1e-10)
    ev = ModHarmonic(c).value_at(x, 128)
    print(
        f"  c={str(c):>4} x={str(x):>4}:"
        f"  quadrature midpoint = {mpmath.nstr((iv.lo + iv.hi) / 2, 15)}"
        f"  digamma route = {mpmath.nstr(ev.midpoint(), 15)}"
    )

print("\nthe divergent corner raises instead of returning nonsense:")
try:
    harmonic_integral(-1, 0)
except Exception as exc:
    print("  ", type(exc).__name__, "-", exc)
