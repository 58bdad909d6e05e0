"""Wall-obstruction arithmetic: the coprime coefficient bounds and the
divisibility contradiction that certifies the wall condition.  The MBM norm
bound on W is an instance check (``instance.validate_instance``)."""

from math import gcd, isqrt

from .record import Record


class WallCertificate(Record):
    __slots__ = _fields = ("g", "C1", "C0", "tested_a", "verdict")


def max_a(C0: int) -> int:
    """The largest a >= 0 with a^2 < C0 (0 when C0 <= 1)."""
    return isqrt(C0 - 1) if C0 > 1 else 0


def proportionality_bound(C0: int):
    """All coprime pairs (a, b) with 1 <= a^2 < C0 and 1 <= b^2 < C0."""
    if C0 < 1:
        raise ValueError("C0 must be positive")
    top = max_a(C0)
    out = []
    for a in range(1, top + 1):
        for b in range(1, top + 1):
            if gcd(a, b) == 1:
                out.append((a, b))
    return out


def wall_certificate(g: int, C1: int, C0: int) -> WallCertificate:
    """Certify that no a with a^2 < C0 makes g divide a*C1.

    Requires g > C0*C1 (the construction never emits anything else).  Each
    such a has 1 <= a*C1 <= (C0 - 1)*C1 < g, so the remainder of a*C1 mod g
    is a*C1 itself, nonzero, and the verdict holds by the precondition alone.
    """
    if g < 1 or C1 < 1 or C0 < 1:
        raise ValueError("g, C1, C0 must be positive")
    if g <= C0 * C1:
        raise ValueError(f"need g > C0*C1, got g={g} <= {C0 * C1}")
    tested = tuple((a, a * C1) for a in range(1, max_a(C0) + 1))
    return WallCertificate(g=g, C1=C1, C0=C0, tested_a=tested, verdict=True)
