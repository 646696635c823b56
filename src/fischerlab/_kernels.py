"""Row reduction kernels: exact Gauss-Jordan elimination on integer lists.

Matrix entries travel as parallel integer lists: numerators and positive
denominators over the rationals, plus a second numerator/denominator pair
for the imaginary part over the Gaussian rationals.  The kernels are pure
Python.  Callers look ``rref_q`` and ``rref_qi`` up on this module at call
time, so a wrapper installed here (a tracer) sees every elimination.

Pivot rule: among the eligible rows of the current column, take the entry
whose combined numerator/denominator bit length is smallest, breaking ties
by row index.  This limits coefficient growth without affecting exactness.
"""

from __future__ import annotations

from math import gcd


def backend_name():
    """Name of the kernel implementation, always "pure" (printed in test
    headers and benchmark reports)."""
    return "pure"


def _red(n, d):
    # normal form: coprime, denominator positive, zero is 0/1
    if n == 0:
        return 0, 1
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    if g > 1:
        n //= g
        d //= g
    return n, d


def _swap_rows(num, den, width, r1, r2):
    o1 = r1 * width
    o2 = r2 * width
    for c in range(width):
        num[o1 + c], num[o2 + c] = num[o2 + c], num[o1 + c]
        den[o1 + c], den[o2 + c] = den[o2 + c], den[o1 + c]


def _scale_row(num, den, width, r, sn, sd):
    # row r *= sn/sd
    base = r * width
    for c in range(width):
        n = num[base + c]
        if n:
            n, d = _red(n * sn, den[base + c] * sd)
            num[base + c] = n
            den[base + c] = d


def _submul_row(num, den, width, r, pr, fn, fd):
    # row r -= (fn/fd) * row pr
    rb = r * width
    pb = pr * width
    for c in range(width):
        an = num[pb + c]
        if an == 0:
            continue
        tn, td = _red(fn * an, fd * den[pb + c])
        bn = num[rb + c]
        bd = den[rb + c]
        rn, rd = _red(bn * td - tn * bd, bd * td)
        num[rb + c] = rn
        den[rb + c] = rd


def rref_q(num, den, rows, cols):
    """Gauss-Jordan over the rationals.

    Returns (num, den, pivots): the reduced matrix as new lists (the inputs
    are not modified) and its pivot columns in increasing order.
    """
    num = list(num)
    den = list(den)
    pivots = []
    pr = 0
    for pc in range(cols):
        if pr >= rows:
            break
        best = -1
        best_size = 0
        for r in range(pr, rows):
            n = num[r * cols + pc]
            if n:
                size = n.bit_length() + den[r * cols + pc].bit_length()
                if best < 0 or size < best_size:
                    best = r
                    best_size = size
        if best < 0:
            continue
        if best != pr:
            _swap_rows(num, den, cols, pr, best)
        pn = num[pr * cols + pc]
        pd = den[pr * cols + pc]
        if pn != pd:
            _scale_row(num, den, cols, pr, pd, pn)
        for r in range(rows):
            if r == pr:
                continue
            fn = num[r * cols + pc]
            if fn == 0:
                continue
            fd = den[r * cols + pc]
            _submul_row(num, den, cols, r, pr, fn, fd)
        pivots.append(pc)
        pr += 1
    return num, den, pivots


def _qmul(n1, d1, n2, d2):
    return _red(n1 * n2, d1 * d2)


def _qsub(n1, d1, n2, d2):
    return _red(n1 * d2 - n2 * d1, d1 * d2)


def _qadd(n1, d1, n2, d2):
    return _red(n1 * d2 + n2 * d1, d1 * d2)


def _swap_rows4(an, ad, bn, bd, width, r1, r2):
    o1 = r1 * width
    o2 = r2 * width
    for c in range(width):
        an[o1 + c], an[o2 + c] = an[o2 + c], an[o1 + c]
        ad[o1 + c], ad[o2 + c] = ad[o2 + c], ad[o1 + c]
        bn[o1 + c], bn[o2 + c] = bn[o2 + c], bn[o1 + c]
        bd[o1 + c], bd[o2 + c] = bd[o2 + c], bd[o1 + c]


def _scale_row4(an, ad, bn, bd, width, r, srn, srd, sin, sid):
    # row r *= (srn/srd + i*sin/sid)
    base = r * width
    for c in range(width):
        ern = an[base + c]
        erd = ad[base + c]
        ein = bn[base + c]
        eid = bd[base + c]
        if ern == 0 and ein == 0:
            continue
        # (er + i*ei) * (sr + i*si)
        rr = _qsub(*_qmul(ern, erd, srn, srd), *_qmul(ein, eid, sin, sid))
        ri = _qadd(*_qmul(ern, erd, sin, sid), *_qmul(ein, eid, srn, srd))
        an[base + c], ad[base + c] = rr
        bn[base + c], bd[base + c] = ri


def _submul_row4(an, ad, bn, bd, width, r, pr, frn, frd, fin, fid):
    # row r -= (fr + i*fi) * row pr
    rb = r * width
    pb = pr * width
    for c in range(width):
        prn = an[pb + c]
        pin = bn[pb + c]
        if prn == 0 and pin == 0:
            continue
        prd = ad[pb + c]
        pid = bd[pb + c]
        tr = _qsub(*_qmul(frn, frd, prn, prd), *_qmul(fin, fid, pin, pid))
        ti = _qadd(*_qmul(frn, frd, pin, pid), *_qmul(fin, fid, prn, prd))
        an[rb + c], ad[rb + c] = _qsub(an[rb + c], ad[rb + c], *tr)
        bn[rb + c], bd[rb + c] = _qsub(bn[rb + c], bd[rb + c], *ti)


def rref_qi(ren, red, imn, imd, rows, cols):
    """Gauss-Jordan over the Gaussian rationals.

    Same contract as rref_q, with separate real and imaginary
    numerator/denominator lists: returns (ren, red, imn, imd, pivots).
    """
    ren = list(ren)
    red = list(red)
    imn = list(imn)
    imd = list(imd)
    pivots = []
    pr = 0
    for pc in range(cols):
        if pr >= rows:
            break
        best = -1
        best_size = 0
        for r in range(pr, rows):
            k = r * cols + pc
            if ren[k] or imn[k]:
                size = (
                    ren[k].bit_length()
                    + red[k].bit_length()
                    + imn[k].bit_length()
                    + imd[k].bit_length()
                )
                if best < 0 or size < best_size:
                    best = r
                    best_size = size
        if best < 0:
            continue
        if best != pr:
            _swap_rows4(ren, red, imn, imd, cols, pr, best)
        k = pr * cols + pc
        prn, prd, pin, pid = ren[k], red[k], imn[k], imd[k]
        if prn != prd or pin != 0:
            # reciprocal of the pivot: conjugate over squared modulus
            nn, nd = _qadd(*_qmul(prn, prd, prn, prd), *_qmul(pin, pid, pin, pid))
            srn, srd = _qmul(prn, prd, nd, nn)
            sin, sid = _qmul(-pin, pid, nd, nn)
            _scale_row4(ren, red, imn, imd, cols, pr, srn, srd, sin, sid)
        for r in range(rows):
            if r == pr:
                continue
            k = r * cols + pc
            frn, fin = ren[k], imn[k]
            if frn == 0 and fin == 0:
                continue
            frd, fid = red[k], imd[k]
            _submul_row4(ren, red, imn, imd, cols, r, pr, frn, frd, fin, fid)
        pivots.append(pc)
        pr += 1
    return ren, red, imn, imd, pivots
