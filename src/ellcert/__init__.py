"""Exact-arithmetic certificates for a quartic-twist elliptic curve family.

Curves y^2 = x^3 - (s^4 + t^2) x with base point (-s^2, s t): class-number
divisibility for division fields, rank-1 proofs by 2-isogeny descent, and
batch search over parameter pairs.  Everything runs on integers and
rationals; the only floating point is in rigorously outward-rounded
height intervals.
"""

__version__ = "0.1.0"
