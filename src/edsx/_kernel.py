"""The field kernel: scalar arithmetic and the one RREF elimination.

A scalar in Q(r2, r3, r5, r7) is a plain dict mapping a 4-bit mask to a
nonzero rational coefficient.  Bit k of the mask says whether PRIMES[k]
sits under the square root, so radicals multiply by XOR of masks times
the product of the shared primes.  The empty dict is zero.
"""

from ._rat import R1

PRIMES = (2, 3, 5, 7)


def _divisor(mask):
    d = 1
    for k, p in enumerate(PRIMES):
        if mask >> k & 1:
            d *= p
    return d


DIVISORS = tuple(_divisor(m) for m in range(16))
# multiplier picked up when two radicals share the primes of `mask`
_G = tuple(_divisor(m) for m in range(16))

MASK_OF_DIVISOR = {d: m for m, d in enumerate(DIVISORS)}


def s_from_rat(q):
    return {0: q} if q else {}


def s_add(a, b):
    if not b:
        return dict(a)
    out = dict(a)
    for k, q in b.items():
        cur = out.get(k)
        if cur is None:
            out[k] = q
        else:
            cur = cur + q
            if cur:
                out[k] = cur
            else:
                del out[k]
    return out


def s_sub(a, b):
    if not b:
        return dict(a)
    out = dict(a)
    for k, q in b.items():
        cur = out.get(k)
        if cur is None:
            out[k] = -q
        else:
            cur = cur - q
            if cur:
                out[k] = cur
            else:
                del out[k]
    return out


def s_neg(a):
    return {k: -q for k, q in a.items()}


def s_mul(a, b):
    if not a or not b:
        return {}
    if len(a) == 1 and len(b) == 1:
        (ka, qa), = a.items()
        (kb, qb), = b.items()
        q = qa * qb
        g = _G[ka & kb]
        if g != 1:
            q = q * g
        return {ka ^ kb: q}
    out = {}
    for ka, qa in a.items():
        for kb, qb in b.items():
            k = ka ^ kb
            q = qa * qb
            g = _G[ka & kb]
            if g != 1:
                q = q * g
            cur = out.get(k)
            if cur is None:
                out[k] = q
            else:
                cur = cur + q
                if cur:
                    out[k] = cur
                else:
                    del out[k]
    return out


def s_submul(a, c, b):
    """a - c*b for nonzero c, b; the row reduction inner loop."""
    if len(c) == 1 and len(b) == 1:
        (kc, qc), = c.items()
        (kb, qb), = b.items()
        k = kc ^ kb
        q = qc * qb
        g = _G[kc & kb]
        if g != 1:
            q = q * g
        if not a:
            return {k: -q}
        out = dict(a)
        cur = out.get(k)
        if cur is None:
            out[k] = -q
        else:
            cur = cur - q
            if cur:
                out[k] = cur
            else:
                del out[k]
        return out
    out = dict(a)
    for kc, qc in c.items():
        for kb, qb in b.items():
            k = kc ^ kb
            q = qc * qb
            g = _G[kc & kb]
            if g != 1:
                q = q * g
            cur = out.get(k)
            if cur is None:
                out[k] = -q
            else:
                cur = cur - q
                if cur:
                    out[k] = cur
                else:
                    del out[k]
    return out


def s_inv(a):
    """Multiplicative inverse by the conjugate tower.

    For each prime whose radical still occurs in x (first x = a), both
    x and the numerator num (first 1) are multiplied by sigma_p(x), the
    Galois conjugate that flips the sign of every term holding sqrt(p).
    x*sigma_p(x) is fixed by sigma_p, so it no longer holds sqrt(p), and
    its keys stay in the span of x's keys.  After at most four steps x is
    one term q*sqrt(d), and 1/a = num*sqrt(d)/(q*d).  A nonzero element
    has a nonzero norm, so the tower is total on nonzero input.  The keys
    of the result come back in ascending mask order; a is not mutated.
    """
    if not a:
        raise ZeroDivisionError("scalar inverse of zero")
    if len(a) == 1:
        (k, q), = a.items()
        # 1/(q*sqrt(d)) = sqrt(d)/(q*d)
        return {k: R1 / (q * _G[k])}
    num = {0: R1}
    x = a
    for bit in (1, 2, 4, 8):
        if len(x) == 1:
            break
        if not any(k & bit for k in x):
            continue
        c = {k: -q if k & bit else q for k, q in x.items()}
        num = s_mul(num, c)
        x = s_mul(x, c)
    (k, q), = x.items()
    return dict(sorted(s_mul(num, {k: R1 / (q * _G[k])}).items()))


def eliminate(srows, ncols, reduced=True):
    """Row reduction of sparse rows; returns (pivots, pivot rows).

    srows is a list of {column: scalar} dicts over columns 0..ncols-1,
    holding nonzero scalars only; a column -> rows index tracks which rows
    hold each column.  Pivot columns are taken left to right, so the pivot
    set is the canonical leftmost one.  In each pivot column the remaining
    row with the fewest nonzeros (the lower index on a tie) becomes the
    pivot row: it is normalized to a leading 1 and eliminated from the
    remaining rows that hold the column.  With reduced=True the rows are
    then back-substituted in reverse pivot order.  The RREF of a row space
    is unique, so the result is canonical whichever rows the pivots come
    from, and reruns are bit-identical.

    Pivot row t holds the entries of the row whose leading 1 sits in
    column pivots[t], that leading 1 left out.  With reduced=True these
    are the nonzero rows of the RREF, so each holds only non-pivot
    columns; with reduced=False they are the rows of the forward phase.
    The dicts of srows are consumed: they become the pivot rows or are
    emptied.  The scalars they hold are never mutated.
    """
    holding = [set() for _ in range(ncols)]
    for i, row in enumerate(srows):
        for j in row:
            holding[j].add(i)
    pivots = []
    prows = []
    for j in range(ncols):
        held = holding[j]
        if not held:
            continue
        p = min(held, key=lambda i: (len(srows[i]), i))
        prow = srows[p]
        for k in prow:
            holding[k].discard(p)
        lead = prow.pop(j)
        if len(lead) != 1 or lead.get(0) != R1:
            inv = s_inv(lead)
            for k, v in prow.items():
                prow[k] = s_mul(v, inv)
        pitems = list(prow.items())
        for i in held:
            row = srows[i]
            c = row.pop(j)
            for k, v in pitems:
                cur = row.get(k)
                new = s_submul(cur or {}, c, v)
                if new:
                    row[k] = new
                    if cur is None:
                        holding[k].add(i)
                else:
                    del row[k]
                    holding[k].discard(i)
        held.clear()
        pivots.append(j)
        prows.append(prow)
    if not reduced:
        return pivots, prows
    # each pivot row holds, besides its pivot, only non-pivot columns
    # when it is subtracted, so back-substitution never adds a pivot
    # column to a row and the rows to clear are known before it starts
    position = {j: t for t, j in enumerate(pivots)}
    above = [[] for _ in pivots]
    for t, prow in enumerate(prows):
        for k in prow:
            s = position.get(k)
            if s is not None:
                above[s].append(t)
    for s in range(len(pivots) - 1, -1, -1):
        j = pivots[s]
        pitems = list(prows[s].items())
        for t in above[s]:
            row = prows[t]
            c = row.pop(j)
            for k, v in pitems:
                new = s_submul(row.get(k) or {}, c, v)
                if new:
                    row[k] = new
                else:
                    del row[k]
    return pivots, prows


def rref(rows, ncols, reduced=True):
    """Reduced row echelon form of dense rows; returns the pivot columns.

    The dense entry to eliminate(): rows are lists of ncols scalars.  With
    reduced=True the items of rows are replaced by new lists: the pivot
    rows first, sorted by pivot column with leading 1, then zero rows.
    With reduced=False only the forward phase runs and rows is left as it
    was.  The row lists and scalars passed in are never mutated.
    """
    pivots, prows = eliminate(
        [{j: c for j, c in enumerate(row) if c} for row in rows],
        ncols, reduced)
    if not reduced:
        return pivots
    for t, (j, prow) in enumerate(zip(pivots, prows)):
        dense = [{} for _ in range(ncols)]
        dense[j] = {0: R1}
        for k, v in prow.items():
            dense[k] = v
        rows[t] = dense
    for t in range(len(pivots), len(rows)):
        rows[t] = [{} for _ in range(ncols)]
    return pivots
