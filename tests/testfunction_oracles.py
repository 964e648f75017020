"""Piecewise test-function routines used only as test oracles."""

import math

from lowzero.testfunction import _ZERO_FREQ


def piece_index_linear_scan(h, u: float) -> int:
    """Index of the piece holding u by scanning the pieces in order: the
    first whose upper end exceeds u, the last one keeping its upper end;
    -1 off the support."""
    if u < h.pieces[0].lo or u > h.pieces[-1].hi:
        return -1
    for i, p in enumerate(h.pieces):
        if u < p.hi or (i == len(h.pieces) - 1 and u <= p.hi):
            return i
    return -1


def integral_all_pieces(h, lo: float, hi: float) -> float:
    """Integral of h over [lo, hi] term by term, visiting every piece.

    The straightforward form of ``PiecewiseTestFunction.integral``: it scans
    all pieces and derives each term's antiderivative coefficient afresh.
    """
    if hi < lo:
        return -integral_all_pieces(h, hi, lo)
    lo = max(lo, h.pieces[0].lo)
    hi = min(hi, h.pieces[-1].hi)
    if hi <= lo:
        return 0.0
    total = 0.0
    for p in h.pieces:
        seg_lo = max(lo, p.lo)
        seg_hi = min(hi, p.hi)
        if seg_hi <= seg_lo:
            continue
        for a, f, ph in p.terms:
            if abs(f) < _ZERO_FREQ:
                total += a * math.sin(ph) * (seg_hi - seg_lo)
            else:
                total += (a / f) * (math.cos(f * seg_lo + ph) - math.cos(f * seg_hi + ph))
    return total
