"""Irreducible factorization over the rationals at desk scale.

Pipeline: squarefree decomposition, then for each squarefree part either a
proof of irreducibility or one monic integer transform, one good prime p and
one root pass. A binomial that Capelli's criterion proves irreducible takes
no prime at all. A part f = g(x^d), d > 1, is deflated first: when g
splits, each factor h gives h(x^d) as a part of its own, so a product of
quadratics x^2 - c*k^2 takes one root pass on g, and a reducible binomial
x^n - c is deflated to y^q - c for Capelli's witness q, which splits.
Otherwise the transform's roots mod p are Newton-lifted past its Mignotte
bound (no big-integer divisor enumeration), and those that divide it
exactly over Z are its integer roots. A part with rational roots gives
their linear factors, and its rational cofactor, which has no rational
root, is irreducible when of degree <= 3 and is otherwise factored as a
part of its own. A part without rational roots is irreducible when of
degree <= 3; otherwise its lifted roots are its linear modular factors,
and only the root-free rest gets a Berlekamp factorization mod p and a
Hensel lift. Subset recombination reads both. Intended for degrees up to a
few dozen with moderate coefficients, and for binomials of any degree whose
irreducible factors are binomials too.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, zip_longest
from operator import neg

from .unipoly import SquarefreeFactorization, UniPoly, _conv, _int_divmod, squarefree_decompose


# -- arithmetic mod p on integer coefficient lists ---------------------------


def _pz_trim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _pz_add(a, b, m):
    return _pz_trim([(u + v) % m for u, v in zip_longest(a, b, fillvalue=0)])


def _pz_sub(a, b, m):
    return _pz_add(a, map(neg, b), m)


def _pz_mul(a, b, m):
    """a*b mod m: one integer convolution, reduced once per coefficient."""
    return _pz_trim([v % m for v in _conv(a, b)]) if a and b else []


def _pz_divmod(a, b, m):
    """Division by b with invertible leading coefficient mod m."""
    a = [v % m for v in a]
    inv = pow(b[-1], -1, m)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for k in range(len(a) - 1 - db, -1, -1):
        c = (a[k + db] * inv) % m
        if c:
            q[k] = c
            for j, bv in enumerate(b):
                a[k + j] = (a[k + j] - c * bv) % m
    return _pz_trim(q), _pz_trim(a)


def _pz_gcd(a, b, p):
    a, b = _pz_trim([v % p for v in a]), _pz_trim([v % p for v in b])
    while b:
        _, r = _pz_divmod(a, b, p)
        a, b = b, r
    if a:
        inv = pow(a[-1], -1, p)
        a = [(v * inv) % p for v in a]
    return a


def _pz_xgcd(a, b, p):
    """Extended Euclid mod prime p: g monic, s*a + t*b = g."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _pz_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _pz_sub(s0, _pz_mul(q, s1, p), p)
        t0, t1 = t1, _pz_sub(t0, _pz_mul(q, t1, p), p)
    inv = pow(r0[-1], -1, p)
    return (
        [(v * inv) % p for v in r0],
        [(v * inv) % p for v in s0],
        [(v * inv) % p for v in t0],
    )


def _pz_deriv(a, m):
    return _pz_trim([(k * a[k]) % m for k in range(1, len(a))])


def _symmetric(v: int, m: int) -> int:
    v %= m
    return v - m if v > m // 2 else v


def _primes():
    yield from (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    n = 59
    while True:
        for d in range(3, int(math.isqrt(n)) + 1, 2):
            if n % d == 0:
                break
        else:
            yield n
        n += 2


def _good_prime(f_int: list[int]) -> int:
    """A prime keeping the monic f squarefree mod p."""
    for p in _primes():
        fp = [v % p for v in f_int]
        if len(_pz_gcd(fp, _pz_deriv(fp, p), p)) == 1:
            return p
    raise RuntimeError("unreachable: no good prime found")


# -- Berlekamp factorization mod p -------------------------------------------


def _berlekamp(f: list[int], p: int) -> list[list[int]]:
    """Factor a monic squarefree polynomial mod a small prime p."""
    n = len(f) - 1
    if n <= 1:
        return [f]
    # rows of Q: coefficients of x^(i*p) mod f
    xpow = [0] * p + [1]
    _, xp_base = _pz_divmod(xpow, f, p)
    rows = []
    cur = [1]
    for _ in range(n):
        padded = cur + [0] * (n - len(cur))
        rows.append(padded[:n])
        cur = _pz_divmod(_pz_mul(cur, xp_base, p), f, p)[1]
    # left nullspace of (Q - I): vectors v with v*(Q - I) = 0
    mat = [[(rows[i][j] - (1 if i == j else 0)) % p for j in range(n)] for i in range(n)]
    basis = _left_nullspace(mat, p)
    r = len(basis)
    if r == 1:
        return [f]
    factors = [f]
    for v in basis:
        vpoly = _pz_trim(list(v))
        if len(vpoly) <= 1:
            continue
        for s in range(p):
            if len(factors) == r:
                return factors
            new_factors = []
            shifted = _pz_sub(vpoly, [s], p)
            for u in factors:
                if len(u) <= 2:
                    new_factors.append(u)
                    continue
                g = _pz_gcd(u, shifted, p)
                if 1 < len(g) < len(u):
                    new_factors.append(g)
                    new_factors.append(_pz_divmod(u, g, p)[0])
                else:
                    new_factors.append(u)
            factors = new_factors
    if len(factors) != r:
        raise RuntimeError("modular factorization did not split completely")
    return factors


def _left_nullspace(mat: list[list[int]], p: int) -> list[list[int]]:
    """Basis of {v : v*mat = 0} over GF(p)."""
    n = len(mat)
    m = [[mat[i][j] for i in range(n)] for j in range(n)]  # transpose
    pivots: dict[int, int] = {}
    row = 0
    for col in range(n):
        pr = next((i for i in range(row, n) if m[i][col] % p != 0), None)
        if pr is None:
            continue
        m[row], m[pr] = m[pr], m[row]
        inv = pow(m[row][col], -1, p)
        m[row] = [(v * inv) % p for v in m[row]]
        for i in range(n):
            if i != row and m[i][col] % p:
                c = m[i][col]
                m[i] = [(m[i][k] - c * m[row][k]) % p for k in range(n)]
        pivots[col] = row
        row += 1
    basis = []
    free_cols = [c for c in range(n) if c not in pivots]
    for fc in free_cols:
        v = [0] * n
        v[fc] = 1
        for col, r in pivots.items():
            v[col] = (-m[r][fc]) % p
        basis.append(v)
    return basis


# -- Hensel lifting ------------------------------------------------------------


def _hensel_pair(f, g, h, s, t, p, target):
    """Lift f = g*h (mod p) with s*g + t*h = 1 (mod p) to the modulus
    m = p^(2^k) >= target; returns (g*, h*) mod m.

    f, g, h are monic; f is read only modulo the moduli p^(2^j) <= m, so it
    need only be known modulo m.
    """
    m = p
    while m < target:
        m2 = m * m
        e = _pz_sub([v % m2 for v in f], _pz_mul(g, h, m2), m2)
        q, r = _pz_divmod(_pz_mul(s, e, m2), h, m2)
        g1 = _pz_add(_pz_add(g, _pz_mul(t, e, m2), m2), _pz_mul(q, g, m2), m2)
        h1 = _pz_add(h, r, m2)
        b = _pz_sub(_pz_add(_pz_mul(s, g1, m2), _pz_mul(t, h1, m2), m2), [1], m2)
        c, d = _pz_divmod(_pz_mul(s, b, m2), h1, m2)
        s1 = _pz_sub(s, d, m2)
        t1 = _pz_sub(t, _pz_add(_pz_mul(t, b, m2), _pz_mul(c, g1, m2), m2), m2)
        g, h, s, t, m = g1, h1, s1, t1, m2
    return g, h


def _lift_factors(f_int: list[int], facs: list[list[int]], p: int, target: int):
    """Lift a mod-p factorization of monic f to the modulus p^(2^k) >= target,
    one pair at a time; f need only be known modulo that modulus."""
    out = []
    cur = list(f_int)
    for i in range(len(facs) - 1):
        h0 = facs[i]
        g0 = [1]
        for other in facs[i + 1 :]:
            g0 = _pz_mul(g0, other, p)
        _, s, t = _pz_xgcd(g0, h0, p)
        g_lift, h_lift = _hensel_pair(cur, g0, h0, s, t, p, target)
        out.append(h_lift)
        cur = g_lift
    out.append(cur)
    return out


# -- Zassenhaus ------------------------------------------------------------------


def _mignotte_target(f_int: list[int]) -> int:
    norm2 = math.isqrt(sum(v * v for v in f_int)) + 1
    return 2 * (2 ** (len(f_int) - 1)) * norm2 + 1


def _recombine(f_int: list[int], lifted: list[list[int]], modulus: int) -> list[list[int]]:
    remaining = list(range(len(lifted)))
    result = []
    f_cur = list(f_int)
    size = 1
    while 2 * size <= len(remaining):
        found = False
        for subset in combinations(remaining, size):
            cand = [1]
            for idx in subset:
                cand = _pz_mul(cand, lifted[idx], modulus)
            cand = [_symmetric(v, modulus) for v in cand]
            # cheap filter: constant terms must divide
            if f_cur[0] != 0 and cand[0] != 0 and f_cur[0] % cand[0] != 0:
                continue
            _, q, r = _int_divmod(f_cur, cand)
            if not any(r):
                result.append(cand)
                f_cur = q
                remaining = [i for i in remaining if i not in subset]
                found = True
                break
        if not found:
            size += 1
    result.append(f_cur)
    return result


# -- roots by Newton lifting ----------------------------------------------------


def _lifted_roots(f: list[int], p: int, target: int) -> tuple[list[int], int]:
    """The roots of a monic integer f that is squarefree mod p, each
    Newton-lifted from its root mod p to the modulus m = p^(2^k) >= target,
    and m. By Hensel's lemma for a simple root, each is the one root mod m
    over its root mod p."""
    fp = [v % p for v in f]
    roots = [r for r in range(p) if not _pz_eval_mod(fp, r, p)]
    df = [k * f[k] for k in range(1, len(f))]
    m = p
    while m < target:
        m *= m
        roots = [(r - _pz_eval_mod(f, r, m) * pow(_pz_eval_mod(df, r, m), -1, m)) % m
                 for r in roots]
    return roots, m


def _pz_eval_mod(f, v, m):
    acc = 0
    for c in reversed(f):
        acc = (acc * v + c) % m
    return acc


# -- Capelli's criterion and deflation ------------------------------------------


def _exact_root(v: int, k: int) -> int | None:
    """The integer r with r^k = v, or None when there is none. Newton's
    method on ints falls from the upper bound 2^ceil(bits/k) to the
    rounded-down root of |v|, exact at any size, with no floats."""
    if v < 0:
        r = _exact_root(-v, k) if k % 2 else None
        return None if r is None else -r
    r = v if v < 2 else 1 << -(-v.bit_length() // k)
    while r > 1:
        s = ((k - 1) * r + v // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r**k == v else None


def _is_power(c: Fraction, k: int) -> bool:
    """Whether the rational c is a k-th power in Q: its reduced numerator
    and denominator are k-th powers in Z."""
    return _exact_root(c.numerator, k) is not None and _exact_root(c.denominator, k) is not None


def _capelli_witness(prim: tuple[int, ...]) -> int | None:
    """For a binomial A*x^n + B (B != 0), with c = -B/A: 1 when Capelli's
    theorem proves x^n - c irreducible over Q (Lang, Algebra, VI §9), and
    otherwise a witness q | n for which y^q - c splits. x^n - c is
    irreducible exactly when c is no q-th power for any prime q | n and,
    when 4 | n, c is not -4*b^4, that is -c/4 is no fourth power; the
    witness is 4 in the second case, and in the first the least divisor
    d > 1 of n with c a d-th power, which is prime, as a d-th power is a
    q-th power for each prime q | d. None for every other polynomial."""
    n = len(prim) - 1
    if not prim[0] or any(prim[1:-1]):
        return None
    c = Fraction(-prim[0], prim[-1])
    if n % 4 == 0 and _is_power(-c / 4, 4):
        return 4
    return next((d for d in range(2, n + 1) if n % d == 0 and _is_power(c, d)), 1)


def _inflate(g: UniPoly, d: int) -> UniPoly:
    """g(x^d)."""
    prim = [0] * ((len(g.prim) - 1) * d + 1)
    prim[::d] = g.prim
    return UniPoly(g.cnum, g.cden, tuple(prim))


# -- top-level factorization ---------------------------------------------------------


def factor_rationals(p: UniPoly) -> SquarefreeFactorization:
    """Complete irreducible factorization over Q; rejects the zero polynomial.

    The parts are the monic irreducible factors, so several may share a
    multiplicity. A linear p is its own monic factor, with no squarefree
    decomposition. factor_bases factors a value from the bases the parser
    multiplied, one call here per distinct base.
    """
    if p.is_zero:
        raise ValueError("factorization of the zero polynomial")
    if p.degree == 1:
        return SquarefreeFactorization(p.lc, ((p.monic(), 1),))
    sf = squarefree_decompose(p)
    parts: dict[UniPoly, int] = {}
    for sq_part, mult in sf.parts:
        for factor in _factor_squarefree(sq_part):
            parts[factor] = parts.get(factor, 0) + mult
    return SquarefreeFactorization(sf.content, _factor_order(parts.items()))


def factor_bases(bases, denominator: bool = False) -> tuple[tuple[UniPoly, int], ...]:
    """The irreducible factorization of the numerator of c*prod(p**e) over
    (p, e) in bases, for a nonzero constant c; with `denominator`, of its
    denominator. These are factor_rationals' parts of that side, in factor
    order, for bases as the parser records them: the positive ones
    multiply to the reduced numerator and the negative ones to the reduced
    denominator, up to constants, so no base of one side shares a factor
    with a base of the other.

    The bases are made monic and equal ones merged; each base left on the
    wanted side (e > 0 for the numerator) is factored once, and an
    irreducible q of it adds its multiplicity times e. By unique
    factorization in Q[x] the bases need no gcd, and a base only the
    other side holds is never factored.
    """
    sign = -1 if denominator else 1
    merged: dict[UniPoly, int] = {}
    for p, e in bases:
        if p.degree > 0:
            p = p.monic()
            merged[p] = merged.get(p, 0) + sign * e
    mult: dict[UniPoly, int] = {}
    for p, e in merged.items():
        if e > 0:
            for q, m in factor_rationals(p).parts:
                mult[q] = mult.get(q, 0) + m * e
    return _factor_order(mult.items())


def _factor_order(parts) -> tuple[tuple[UniPoly, int], ...]:
    """(locus, multiplicity) pairs in factor order: by the locus's degree,
    then its coefficients, lowest degree first. Every factorization and
    spectrum is in this order.

    Every locus must be monic, so that its coefficients are prim[k]/prim[-1];
    they are compared as integers over the lcm of the leading entries,
    which forms no Fraction."""
    parts = list(parts)
    lcm = math.lcm(*(q.prim[-1] for q, _ in parts))
    return tuple(sorted(parts, key=lambda qe: (
        len(qe[0].prim), [c * lcm // qe[0].prim[-1] for c in qe[0].prim])))


def _factor_squarefree(f: UniPoly, deflate: bool = True) -> list[UniPoly]:
    """Monic irreducible factors of a squarefree polynomial.

    A binomial x^n - c (made monic) that `_capelli_witness` proves
    irreducible is returned as it is, before any prime is chosen.

    Deflation comes next. When f = g(x^d) for some d > 1, g is squarefree
    too, and it is factored first. For a binomial, d = n/q for the witness
    q, so g = y^q - c splits. Otherwise (only when `deflate`), d is the gcd
    of the exponents of f's nonzero terms. If g has factors h_1..h_k with
    k >= 2, f is their product, and each h_i(x^d) is factored as a part of
    its own, without this gcd deflation: h_i is irreducible, so deflating
    h_i(x^d) again would only give h_i back. An f whose g does not split
    goes on as below. So a product of quadratics x^2 - c*k^2 takes one root
    pass on its deflation, whose roots c*k^2 are all rational.

    Otherwise the primitive f of degree n with leading coefficient l maps
    to the monic integer F(y) = l^(n-1) f(y/l), and a factor h(y) of F over
    Z maps back to h(l*x) made monic. One good prime p serves F, and F's
    roots mod p are Newton-lifted once, to the modulus M = p^(2^k) past F's
    Mignotte bound, which bounds F's integer roots too. A lifted root whose
    symmetric representative R divides F exactly over Z gives the factor
    x - R/l. If f has rational roots, its rational cofactor
    f/prod(x - R_i/l) has none: of degree <= 3 it is irreducible, and
    otherwise it is factored as a part of its own, with its own monic
    transform and prime. A part of degree <= 3 without rational
    roots is irreducible too, since any splitting of it has a linear
    factor. Otherwise the lifted roots give F's linear factors y - r mod M.
    Only the root-free rest H = F/prod(y - r) mod M goes to Berlekamp mod p,
    and only H's factors, when there are two or more, to Hensel lifting; H
    is known mod M alone, which the lift needs. By the uniqueness in
    Hensel's lemma these are F's modular factors mod M, and recombination
    over Z finds F's factors.
    """
    if f.degree <= 1:
        return [f.monic()] if f.degree == 1 else []
    n = len(f.prim) - 1
    witness = _capelli_witness(f.prim)
    if witness == 1:
        return [f.monic()]
    if witness:
        d = n // witness
    else:
        d = math.gcd(*(k for k, v in enumerate(f.prim) if v)) if deflate else 1
    if d > 1:
        factors = _factor_squarefree(UniPoly(f.cnum, f.cden, f.prim[::d]))
        if len(factors) > 1:
            return [part for h in factors for part in _factor_squarefree(_inflate(h, d), False)]
    l = f.prim[-1]
    f_int = [c * l ** (n - 1 - i) for i, c in enumerate(f.prim[:-1])] + [1]
    p = _good_prime(f_int)
    target = _mignotte_target(f_int)
    roots, modulus = _lifted_roots(f_int, p, target)

    def back(h):
        return UniPoly.of([c * l**i for i, c in enumerate(h)]).monic()

    linear, cofactor = [], f_int
    for r in roots:
        lin = [-_symmetric(r, modulus), 1]
        _, q, rem = _int_divmod(cofactor, lin)
        if not any(rem):
            linear.append(back(lin))
            cofactor = q
    if linear:
        if len(cofactor) == 1:
            return linear
        rest = back(cofactor)
        return linear + ([rest] if rest.degree <= 3 else _factor_squarefree(rest))
    if n <= 3:
        return [f.monic()]
    lifted = [[-r % modulus, 1] for r in roots]
    rest = f_int
    for lin in lifted:
        rest = _pz_divmod(rest, lin, modulus)[0]
    if len(rest) > 1:
        modular = _berlekamp([v % p for v in rest], p)
        lifted += _lift_factors(rest, modular, p, target) if len(modular) > 1 else [rest]
    return [back(h) for h in _recombine(f_int, lifted, modulus)]
