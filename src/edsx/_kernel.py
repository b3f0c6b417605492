"""The field kernel: scalar arithmetic and the one RREF elimination.

A scalar in Q(r2, r3, r5, r7) is a pair (den, nums): a positive integer
denominator den and a dict nums mapping a 4-bit mask to a nonzero integer
numerator, for the value sum of nums[mask] * sqrt(DIVISORS[mask]) / den.
Bit k of the mask says whether PRIMES[k] sits under the square root, so
radicals multiply by XOR of masks times the product of the shared primes.
Every scalar is canonical: den and the numerators have no common factor
(one gcd over the whole scalar), and zero is None, the one falsy scalar,
so two scalars are equal exactly when they are equal as pairs.  A scalar
is never mutated once built, so rows and forms share them freely.

Rationals (fractions.Fraction) appear only at the dense boundary, which
only the benchmark reaches (see edsx.linalg): the cells of rref() are
{mask: rational} dicts, converted by s_from_fractions and s_to_fractions.
The one exception is the integer loop of eliminate(): a long elimination
whose remaining rows are radically graded (each entry one term, its mask
a row mask XOR a column mask) finishes its forward phase on integer rows,
and returns exactly what the scalar loop would.

A rank-only elimination (eliminate with certify, which linalg.span_rank,
linalg.Elimination.rank and the dense entry's forward-only branch pass)
keeps no pivot rows and returns (pivots, None).  Its scalar steps leave
the pivot row unnormalized unless it is shorter than the list of rows to
reduce, and its integer loop converts nothing back to scalars.  It first
tries a certificate mod P at its first pivot lead with more than one
term, where the scalar loop would enter s_inv's conjugate tower.
P = 2^61 - 3153 is 3 mod 4 and 2, 3, 5 and 7 are squares mod P, so
sqrt(q) -> q^((P+1)/4) maps every scalar whose denominator P does not
divide onto Z/P as a ring map (pivots_mod_p; a denominator divisible by
P is its guard and gives no answer).  Minors map to minors, so the rank
mod P is a lower bound on the exact rank, and min(rows, cols) is an
upper bound: when they meet, the rank is exact.  The pivot columns are
exact only when the mod-P pivots are the leading columns as well: a full
rank can sit on other columns mod P than over the field, as in
[[P*(1 + sqrt2), 1 + sqrt2]].  Otherwise the exact elimination goes on
from where it stopped.  Rows whose leads are all one term (rational or
graded) never reach the certificate.
"""

from fractions import Fraction
from math import gcd, lcm

PRIMES = (2, 3, 5, 7)


def _divisor(mask):
    d = 1
    for k, p in enumerate(PRIMES):
        if mask >> k & 1:
            d *= p
    return d


# DIVISORS[mask] is also the multiplier picked up when two radicals
# share the primes of mask
DIVISORS = tuple(_divisor(m) for m in range(16))

MASK_OF_DIVISOR = {d: m for m, d in enumerate(DIVISORS)}

ONE = (1, {0: 1})
NEG_ONE = (1, {0: -1})

P = 2 ** 61 - 3153

# ROOTS_MOD_P[mask] is the image of sqrt(DIVISORS[mask]) in Z/P; x ->
# x^((P+1)/4) is multiplicative, so it is the product of the images of
# the square roots of the primes in mask
ROOTS_MOD_P = tuple(pow(d, (P + 1) // 4, P) for d in DIVISORS)


def _canon(den, nums):
    """The scalar nums / den, den > 0 and no numerator zero, reduced."""
    if not nums:
        return None
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            return den // g, {k: x // g for k, x in nums.items()}
    return den, nums


def s_quotient(n, d=1):
    """The rational scalar n/d, for integers n and d > 0."""
    if not n:
        return None
    if d != 1:
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
    return d, {0: n}


def s_from_fractions(cell):
    """The scalar of a {mask: rational} dict; zero values are dropped."""
    den = 1
    for q in cell.values():
        d = q.denominator
        if d != 1:
            den = den // gcd(den, d) * d
    # den is the lcm of reduced denominators, so no prime divides it and
    # every numerator: the result is already canonical
    nums = {k: q.numerator * (den // q.denominator)
            for k, q in cell.items() if q}
    return (den, nums) if nums else None


def s_to_fractions(a):
    """The {mask: Fraction} dict of a scalar, keys in a's order."""
    if not a:
        return {}
    den, nums = a
    return {k: Fraction(x, den) for k, x in nums.items()}


def _sum(a, b, sign):
    """a + sign*b for nonzero a, b and sign = +-1."""
    da, na = a
    db, nb = b
    if da == db:
        ma, mb, den = 1, sign, da
    else:
        g = gcd(da, db)
        ma = db // g
        mb = da // g * sign
        den = da * ma
    out = dict(na) if ma == 1 else {k: x * ma for k, x in na.items()}
    for k, x in nb.items():
        x *= mb
        cur = out.get(k)
        if cur is None:
            out[k] = x
        else:
            cur += x
            if cur:
                out[k] = cur
            else:
                del out[k]
    return _canon(den, out)


def s_add(a, b):
    if not b:
        return a
    if not a:
        return b
    return _sum(a, b, 1)


def s_sub(a, b):
    if not b:
        return a
    if not a:
        return s_neg(b)
    return _sum(a, b, -1)


def s_neg(a):
    if not a:
        return None
    den, nums = a
    return den, {k: -x for k, x in nums.items()}


def s_mul(a, b):
    if not a or not b:
        return None
    da, na = a
    db, nb = b
    den = da * db
    if len(na) == 1 and len(nb) == 1:
        (ka, xa), = na.items()
        (kb, xb), = nb.items()
        x = xa * xb
        g = DIVISORS[ka & kb]
        if g != 1:
            x *= g
        if den != 1:
            g = gcd(x, den)
            if g != 1:
                return den // g, {ka ^ kb: x // g}
        return den, {ka ^ kb: x}
    out = {}
    for ka, xa in na.items():
        for kb, xb in nb.items():
            k = ka ^ kb
            x = xa * xb
            g = DIVISORS[ka & kb]
            if g != 1:
                x *= g
            cur = out.get(k)
            if cur is None:
                out[k] = x
            else:
                cur += x
                if cur:
                    out[k] = cur
                else:
                    del out[k]
    return _canon(den, out)


def s_submul(a, c, b):
    """a - c*b for nonzero c, b; the row reduction inner loop."""
    dc, nc = c
    db, nb = b
    den = dc * db
    if len(nc) == 1 and len(nb) == 1:
        (kc, xc), = nc.items()
        (kb, xb), = nb.items()
        k = kc ^ kb
        x = xc * xb
        g = DIVISORS[kc & kb]
        if g != 1:
            x *= g
        # now c*b = x*sqrt(DIVISORS[k]) / den
        if not a:
            if den != 1:
                g = gcd(x, den)
                if g != 1:
                    return den // g, {k: -x // g}
            return den, {k: -x}
        da, na = a
        if da == den:
            ma = 1
        else:
            g = gcd(da, den)
            ma = den // g
            x *= da // g
            den = da * ma
        if len(na) == 1:
            (ka, xa), = na.items()
            if ka == k:
                x = xa * ma - x
                if not x:
                    return None
                if den != 1:
                    g = gcd(x, den)
                    if g != 1:
                        return den // g, {k: x // g}
                return den, {k: x}
        out = dict(na) if ma == 1 else {kk: y * ma for kk, y in na.items()}
        cur = out.get(k)
        if cur is None:
            out[k] = -x
        else:
            cur -= x
            if cur:
                out[k] = cur
            else:
                del out[k]
        return _canon(den, out)
    if a:
        da, na = a
        if da == den:
            ma = mc = 1
        else:
            g = gcd(da, den)
            ma = den // g
            mc = da // g
            den = da * ma
        out = dict(na) if ma == 1 else {k: y * ma for k, y in na.items()}
    else:
        mc = 1
        out = {}
    for kc, xc in nc.items():
        xc *= mc
        for kb, xb in nb.items():
            k = kc ^ kb
            x = xc * xb
            g = DIVISORS[kc & kb]
            if g != 1:
                x *= g
            cur = out.get(k)
            if cur is None:
                out[k] = -x
            else:
                cur -= x
                if cur:
                    out[k] = cur
                else:
                    del out[k]
    return _canon(den, out)


def _inv_term(den, k, x):
    """1/(x*sqrt(d)/den) = den*sqrt(d)/(x*d) for d = DIVISORS[k]."""
    num, den = den, x * DIVISORS[k]
    if den < 0:
        num, den = -num, -den
    g = gcd(num, den)
    if g != 1:
        return den // g, {k: num // g}
    return den, {k: num}


def s_inv(a):
    """Multiplicative inverse by the conjugate tower.

    For each prime whose radical still occurs in x (first x = a), both
    x and the numerator num (first 1) are multiplied by sigma_p(x), the
    Galois conjugate that flips the sign of every term holding sqrt(p).
    x*sigma_p(x) is fixed by sigma_p, so it no longer holds sqrt(p), and
    its keys stay in the span of x's keys.  After at most four steps x is
    one term q*sqrt(d), and 1/a = num*sqrt(d)/(q*d).  A nonzero element
    has a nonzero norm, so the tower is total on nonzero input.  The keys
    of the result come back in ascending mask order.
    """
    if not a:
        raise ZeroDivisionError("scalar inverse of zero")
    den, nums = a
    if len(nums) == 1:
        (k, x), = nums.items()
        return _inv_term(den, k, x)
    num = ONE
    x = a
    for bit in (1, 2, 4, 8):
        xd, xn = x
        if len(xn) == 1:
            break
        if not any(k & bit for k in xn):
            continue
        c = xd, {k: -q if k & bit else q for k, q in xn.items()}
        num = s_mul(num, c)
        x = s_mul(x, c)
    xd, xn = x
    (k, q), = xn.items()
    den, nums = s_mul(num, _inv_term(xd, k, q))
    return den, dict(sorted(nums.items()))


# the scalar loop of eliminate() tests its remaining rows for a radical
# grading once its row updates pass SWITCH * nnz + 64
SWITCH = 1


def eliminate(srows, ncols, reduced=True, ops=None, certify=None):
    """Row reduction of sparse rows; returns (pivots, pivot rows).

    srows is a list of {column: scalar} dicts over columns 0..ncols-1,
    holding nonzero scalars only; a column -> rows index tracks which rows
    hold each column.  Pivot columns are taken left to right, so the pivot
    set is the canonical leftmost one.  In each pivot column the remaining
    row with the fewest nonzeros (the lower index on a tie) becomes the
    pivot row: it is normalized to a leading 1 and eliminated from the
    remaining rows that hold the column.  With reduced=True the rows are
    then back-substituted (back_substitute).  The RREF of a row space is
    unique, so the result is canonical whichever rows the pivots come
    from, and reruns are bit-identical.

    Pivot row t holds the entries of the row whose leading 1 sits in
    column pivots[t], that leading 1 left out.  With reduced=True these
    are the nonzero rows of the RREF, so each holds only non-pivot
    columns; with reduced=False they are the rows of the forward phase,
    each holding only columns right of its pivot.  The dicts of srows are
    consumed: they become the pivot rows or are emptied.  The scalars
    they hold are never mutated.

    When a list ops is passed, the row operations of the forward phase
    are appended to it, one entry (p, inv, targets) per pivot step in the
    order the steps ran, on input row indices: row p becomes the next
    pivot row and is scaled by inv, the inverse of its lead (ONE when the
    lead is 1), then for each (i, c) of the tuple targets, in order, c
    times row p is subtracted from row i.  Replayed on a column b, a
    {row: scalar} dict, they reduce b as they would reduce an augmented
    column of srows: the entry of b on the row p of step t is the entry
    of forward pivot row t, and the entries on rows that never became
    pivot rows are the entries of the zero rows.  No target is p, so a
    replay skips a whole step when b is zero on p.  Back-substitution is
    never recorded.

    Once the row updates made pass SWITCH * nnz + 64, the rows that are
    not yet pivot rows are tested, once, for a radical grading
    (_grading); when they have one, the rest of the forward phase runs on
    integers (_forward_graded), with the same steps, rows and operations.

    certify is for the rank-only callers, with reduced=False and no ops:
    "rank" when only the number of pivots is read, "pivots" when the
    pivot list is.  Such a call keeps no pivot rows and returns (pivots,
    None), after a refused certificate too.  A step whose lead is not 1
    scales each target's multiplier c by the inverse lead instead of
    normalizing the pivot row, unless the row has fewer entries than
    there are targets: c inv v = c (v inv) exactly, so the rows left and
    the update count are the same.  At the first pivot lead with more
    than one term, the rows not yet pivot rows are ranked mod P, once
    (_certified); when that certifies the answer, eliminate returns at
    once, and with "rank" only the length of those pivots is exact.
    """
    holding = [set() for _ in range(ncols)]
    for i, row in enumerate(srows):
        for j in row:
            holding[j].add(i)
    budget = SWITCH * sum(map(len, srows)) + 64
    updates = 0
    pivots = []
    # set once: a refused certificate leaves the call rank-only
    rank_only = certify is not None
    prows = None if rank_only else []
    for j in range(ncols):
        held = holding[j]
        if not held:
            continue
        if updates > budget:
            budget = float("inf")
            grading = _grading(srows, holding, j)
            if grading is not None:
                _forward_graded(srows, holding, j, grading, pivots, prows,
                                ops)
                break
        p = min(held, key=lambda i: (len(srows[i]), i))
        if certify and len(srows[p][j][1]) > 1:
            done = _certified(srows, holding, j, pivots, certify)
            if done is not None:
                return done, None
            certify = None
        prow = srows[p]
        for k in prow:
            holding[k].discard(p)
        inv = scale = ONE
        lead = prow.pop(j)
        if lead != ONE:
            inv = s_inv(lead)
            if rank_only and len(held) <= len(prow):
                scale = inv
            else:
                for k, v in prow.items():
                    prow[k] = s_mul(v, inv)
        if ops is not None:
            ops.append((p, inv, tuple((i, srows[i][j]) for i in held)))
        pitems = list(prow.items())
        for i in held:
            row = srows[i]
            c = row.pop(j)
            if scale is not ONE:
                c = s_mul(c, scale)
            for k, v in pitems:
                cur = row.get(k)
                new = s_submul(cur, c, v)
                if new:
                    row[k] = new
                    if cur is None:
                        holding[k].add(i)
                else:
                    del row[k]
                    holding[k].discard(i)
        updates += len(held) * len(pitems)
        held.clear()
        pivots.append(j)
        if not rank_only:
            prows.append(prow)
    if reduced:
        back_substitute(pivots, prows)
    return pivots, prows


def pivots_mod_p(srows, ncols):
    """The leftmost pivot columns of sparse rows mapped into Z/P, or None
    when P divides a denominator (see the module docstring).

    Each row is first scaled by the lcm of its denominators, which P
    divides exactly when it divides one of them; the rows are then
    reduced fraction-free, row <- a row - c pivot row, so no inverse is
    taken mod P.  Neither step changes the pivots.
    """
    rows = []
    for row in srows:
        if not row:
            continue
        den = lcm(*[d for d, _ in row.values()])
        if not den % P:
            return None
        out = [0] * ncols
        for k, (d, nums) in row.items():
            x = 0
            for m, y in nums.items():
                x += y * ROOTS_MOD_P[m]
            out[k] = x * (den // d) % P
        rows.append(out)
    pivots = []
    for j in range(ncols):
        for t, prow in enumerate(rows):
            if prow[j]:
                break
        else:
            continue
        del rows[t]
        a = prow[j]
        for row in rows:
            c = row[j]
            if c:
                for k in range(j, ncols):
                    row[k] = (row[k] * a - c * prow[k]) % P
        pivots.append(j)
    return pivots


def _certified(srows, holding, j0, pivots, certify):
    """The answer of a rank-only eliminate() from column j0 on, or None.

    The exact rank is len(pivots) plus the rank of the rows not yet pivot
    rows, which hold only columns j0 and beyond.  When their mod-P pivots,
    put after pivots, make r = min(rows, cols) columns, the exact rank is
    r as well.  For certify == "pivots" they must also be columns 0..r-1:
    each leading minor is then nonzero mod P, hence over the field, so the
    exact leftmost pivots are the same columns.
    """
    r = min(len(srows), len(holding))
    rest = pivots_mod_p([srows[i] for i in set().union(*holding[j0:])],
                        len(holding))
    if rest is None or len(pivots) + len(rest) != r:
        return None
    found = pivots + rest
    if certify == "pivots" and found != list(range(r)):
        return None
    return found


def _grading(srows, holding, j0):
    """Row and column masks grading the rows not yet pivot rows, or None.

    The rows are those holding a column j0 or beyond.  They are graded
    when every entry (i, k) is one term q * sqrt(DIVISORS[m]) with
    m = rmask[i] ^ cmask[k].  One breadth-first search over the entries
    fixes the masks of each connected block, its first row at 0, and
    returns None at the first entry that fits no grading.
    """
    rmask = {}
    cmask = {}
    for k0 in range(j0, len(holding)):
        for start in holding[k0]:
            if start in rmask:
                continue
            rmask[start] = 0
            queue = [start]
            for i in queue:
                r = rmask[i]
                for k, (_, nums) in srows[i].items():
                    if len(nums) != 1:
                        return None
                    m, = nums
                    c = cmask.get(k)
                    if c is None:
                        cmask[k] = c = r ^ m
                        for i2 in holding[k]:
                            if i2 not in rmask:
                                rmask[i2] = c ^ next(iter(srows[i2][k][1]))
                                queue.append(i2)
                    elif c != r ^ m:
                        return None
    return rmask, cmask


def _graded_entry(n, d, mask):
    """The scalar n/d * sqrt(DIVISORS[mask]), for nonzero integers n, d."""
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return d, {mask: n}


def _forward_graded(srows, holding, j0, grading, pivots, prows, ops):
    """The forward phase of eliminate() from column j0 on, over integers.

    grading is _grading's (rmask, cmask).  Since sqrt(DIVISORS[r]) *
    sqrt(DIVISORS[c]) = DIVISORS[r & c] * sqrt(DIVISORS[r ^ c]), entry
    (i, k) is q * sqrt(DIVISORS[rmask[i]]) * sqrt(DIVISORS[cmask[k]]) for
    a rational q: the rows are diagonally similar to rational ones.  Each
    row i is held as a rational lam[i] times a row of coprime integers,
    in place.  A step is the scalar loop's step: the same pivot row, the
    same holding sets and the same key order, so the same targets in the
    same order.
    Row i becomes (a/g) * row i - (c/g) * pivot row, for its lead c, the
    pivot lead a and g = gcd(a, c), and is then divided by its content.
    The pivot rows, their inverses and the targets are converted back to
    scalars, so pivots, prows and ops come out as the scalar loop's.
    lam is built only when ops is passed, the one reader of the leads, and
    a rank-only call (prows None) converts nothing back.
    """
    rmask, cmask = grading
    lam = {} if ops is not None else None
    for i, r in rmask.items():
        row = srows[i]
        den = 1
        for k, (d, _) in row.items():
            d *= DIVISORS[r & cmask[k]]
            den = den // gcd(den, d) * d
        for k, (d, nums) in list(row.items()):
            x, = nums.values()
            row[k] = x * (den // (d * DIVISORS[r & cmask[k]]))
        g = gcd(*row.values())
        if g != 1:
            for k in row:
                row[k] //= g
        if lam is not None:
            lam[i] = Fraction(g, den)
    for j in range(j0, len(holding)):
        held = holding[j]
        if not held:
            continue
        p = min(held, key=lambda i: (len(srows[i]), i))
        prow = srows[p]
        for k in prow:
            holding[k].discard(p)
        lead = prow.pop(j)
        pitems = list(prow.items())
        cj = cmask[j]
        if prows is not None:
            dj = lead * DIVISORS[cj]
            for k, v in pitems:
                ck = cmask[k]
                prow[k] = _graded_entry(v * DIVISORS[ck & cj], dj, ck ^ cj)
            prows.append(prow)
        if ops is not None:
            q = lam[p]
            r = rmask[p]
            lead_s = _graded_entry(q.numerator * lead * DIVISORS[r & cj],
                                   q.denominator, r ^ cj)
            inv = ONE if lead_s == ONE else s_inv(lead_s)
            targets = []
            for i in held:
                q = lam[i]
                r = rmask[i]
                targets.append((i, _graded_entry(
                    q.numerator * srows[i][j] * DIVISORS[r & cj],
                    q.denominator, r ^ cj)))
            ops.append((p, inv, tuple(targets)))
        for i in held:
            row = srows[i]
            c = row.pop(j)
            g = gcd(lead, c)
            a = lead // g
            c //= g
            if a != 1:
                for k in row:
                    row[k] *= a
            for k, v in pitems:
                cur = row.get(k)
                if cur is None:
                    row[k] = -c * v
                    holding[k].add(i)
                else:
                    cur -= c * v
                    if cur:
                        row[k] = cur
                    else:
                        del row[k]
                        holding[k].discard(i)
            h = gcd(*row.values()) if row else 1
            if h != 1:
                for k in row:
                    row[k] //= h
            if lam is not None:
                lam[i] *= Fraction(h, a)
        held.clear()
        pivots.append(j)


def back_substitute(pivots, prows):
    """Reduce forward pivot rows to the nonzero rows of the RREF, in place.

    pivots and prows are as eliminate(..., reduced=False) returns them.
    Each pivot column is cleared from the rows above it, in reverse pivot
    order, so afterwards every pivot row holds only non-pivot columns.
    """
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
                new = s_submul(row.get(k), c, v)
                if new:
                    row[k] = new
                else:
                    del row[k]


def rref(rows, ncols, reduced=True):
    """Reduced row echelon form of dense rows; returns the pivot columns.

    The dense entry to eliminate(): rows are lists of ncols cells, each a
    {mask: rational} dict, converted to scalars here and back on the way
    out.  With reduced=True the items of rows are replaced by new lists:
    the pivot rows first, sorted by pivot column with leading 1, then zero
    rows.  With reduced=False only the forward phase runs, behind the
    certificate mod P, and rows is left as it was.  The row lists and
    cells passed in are never mutated.
    """
    pivots, prows = eliminate(
        [{j: s for j, c in enumerate(row) if c and (s := s_from_fractions(c))}
         for row in rows], ncols, reduced,
        certify=None if reduced else "pivots")
    if not reduced:
        return pivots
    for t, (j, prow) in enumerate(zip(pivots, prows)):
        dense = [{} for _ in range(ncols)]
        dense[j] = {0: Fraction(1)}
        for k, v in prow.items():
            dense[k] = s_to_fractions(v)
        rows[t] = dense
    for t in range(len(pivots), len(rows)):
        rows[t] = [{} for _ in range(ncols)]
    return pivots
