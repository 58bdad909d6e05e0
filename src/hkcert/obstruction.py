"""Wall-obstruction arithmetic: the MBM norm bound, the coprime coefficient
bounds, and the divisibility contradiction that certifies the wall condition."""

from __future__ import annotations

from math import gcd, isqrt

from .lattice import LatticeVector, is_primitive, norm
from .record import Record


class WallCertificate(Record):
    __slots__ = _fields = ("g", "C1", "C0", "tested_a", "verdict")


def mbm_bound_check(W: LatticeVector, C0: int) -> bool:
    """True iff W is primitive with 0 < -(W, W) < C0."""
    if W.is_zero():
        return False
    return is_primitive(W) and 0 < -norm(W) < C0


def proportionality_bound(C0: int):
    """All coprime pairs (a, b) with 1 <= a^2 < C0 and 1 <= b^2 < C0."""
    if C0 < 1:
        raise ValueError("C0 must be positive")
    top = isqrt(C0 - 1) if C0 > 1 else 0
    out = []
    for a in range(1, top + 1):
        for b in range(1, top + 1):
            if gcd(a, b) == 1:
                out.append((a, b))
    return out


def wall_certificate(g: int, C1: int, C0: int) -> WallCertificate:
    """Certify that no a with a^2 < C0 makes g divide a*C1.

    Requires g > C0*C1 (the construction never emits anything else); under
    that bound every remainder is the nonzero value a*C1 itself, so the
    verdict is provably true whenever the precondition holds.
    """
    if g < 1 or C1 < 1 or C0 < 1:
        raise ValueError("g, C1, C0 must be positive")
    if g <= C0 * C1:
        raise ValueError(f"need g > C0*C1, got g={g} <= {C0 * C1}")
    tested = []
    verdict = True
    top = isqrt(C0 - 1) if C0 > 1 else 0
    for a in range(1, top + 1):
        r = (a * C1) % g
        tested.append((a, r))
        if r == 0:
            verdict = False
    return WallCertificate(g=g, C1=C1, C0=C0, tested_a=tuple(tested), verdict=verdict)
