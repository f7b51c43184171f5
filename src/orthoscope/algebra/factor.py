"""Irreducible factorization over the rationals at desk scale.

Pipeline: squarefree decomposition, then for each squarefree part one monic
integer transform and one good prime p. The transform's integer roots are
Newton-lifted from its roots mod p (no big-integer divisor enumeration) and
divided out over Z; the cofactor, rescaled to its own monic transform, gets
a Berlekamp factorization mod the same p, a Hensel lift and subset
recombination. Intended for degrees up to a few dozen with moderate
coefficients.
"""

from __future__ import annotations

import math
from itertools import zip_longest
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
    """Lift f = g*h (mod p) with s*g + t*h = 1 (mod p) to modulus >= target.

    f, g, h monic integer polynomials (f exact over Z); returns (g*, h*, modulus).
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
    return g, h, m


def _lift_factors(f_int: list[int], facs: list[list[int]], p: int, target: int):
    """Lift a mod-p factorization of monic f to modulus >= target, sequentially."""
    out = []
    cur = list(f_int)
    modulus = p
    for i in range(len(facs) - 1):
        h0 = facs[i]
        g0 = [1]
        for other in facs[i + 1 :]:
            g0 = _pz_mul(g0, other, p)
        _, s, t = _pz_xgcd(g0, h0, p)
        g_lift, h_lift, modulus = _hensel_pair(cur, g0, h0, s, t, p, target)
        out.append(h_lift)
        cur = g_lift
    out.append(cur)
    return out, modulus


# -- Zassenhaus ------------------------------------------------------------------


def _mignotte_target(f_int: list[int]) -> int:
    norm2 = math.isqrt(sum(v * v for v in f_int)) + 1
    return 2 * (2 ** (len(f_int) - 1)) * norm2 + 1


def _recombine(f_int: list[int], lifted: list[list[int]], modulus: int) -> list[list[int]]:
    from itertools import combinations

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


# -- integer roots by Newton lifting --------------------------------------------


def _split_integer_roots(f_int: list[int], p: int) -> tuple[list[list[int]], list[int]]:
    """The factors y - r of a monic integer polynomial f that is squarefree
    mod p, one per integer root r, and the cofactor of their product.

    Each root mod p is Newton-lifted past the root bound; the exact division
    of the cofactor by y - r over Z is the root test.
    """
    target = 2 * (1 + max(abs(v) for v in f_int[:-1])) + 1
    fp = [v % p for v in f_int]
    df = [k * f_int[k] for k in range(1, len(f_int))]
    linear = []
    cofactor = f_int
    for r in range(p):
        if _pz_eval_mod(fp, r, p):
            continue
        m = p
        while m < target:
            m *= m
            r = (r - _pz_eval_mod(f_int, r, m) * pow(_pz_eval_mod(df, r, m), -1, m)) % m
        lin = [-_symmetric(r, m), 1]
        _, q, rem = _int_divmod(cofactor, lin)
        if not any(rem):
            linear.append(lin)
            cofactor = q
    return linear, cofactor


def _pz_eval_mod(f, v, m):
    acc = 0
    for c in reversed(f):
        acc = (acc * v + c) % m
    return acc


# -- top-level factorization ---------------------------------------------------------


def factor_rationals(p: UniPoly) -> SquarefreeFactorization:
    """Complete irreducible factorization over Q; rejects the zero polynomial.

    The parts are the monic irreducible factors, so several may share a
    multiplicity.
    """
    if p.is_zero:
        raise ValueError("factorization of the zero polynomial")
    sf = squarefree_decompose(p)
    parts: dict[UniPoly, int] = {}
    for sq_part, mult in sf.parts:
        for factor in _factor_squarefree(sq_part):
            parts[factor] = parts.get(factor, 0) + mult
    return SquarefreeFactorization(sf.content, _factor_order(parts.items()))


def _factor_order(parts) -> tuple[tuple[UniPoly, int], ...]:
    """(locus, multiplicity) pairs in factor order: by the locus's degree,
    then its coefficients. Every factorization and spectrum is in this order."""
    return tuple(sorted(parts, key=lambda qe: (qe[0].degree, qe[0].coeffs)))


def _factor_squarefree(f: UniPoly) -> list[UniPoly]:
    """Monic irreducible factors of a squarefree polynomial.

    The primitive f with leading coefficient l maps to the monic integer
    F(y) = l^(n-1) f(y/l), and one good prime p serves F throughout. F's
    integer roots R_i split off first, as x - R_i/l. By Gauss's lemma f's
    cofactor over Z has leading coefficient l' = l/s, s = prod l/gcd(R_i, l),
    so F's cofactor has s times the roots of G, the cofactor's own monic
    transform: G's coefficient k is F's cofactor's divided by s^(m-k), m its
    degree. G goes to Berlekamp, Hensel lifting and recombination mod p, and
    each factor G_i maps back to G_i(l'*x) made monic. G stays squarefree
    mod p, as p does not divide s: s > 1 needs a root, so n >= 3 when G has
    degree >= 2, and a good prime for a monic F of degree n >= 3 cannot
    divide l, or F would be y^(n-1)*(y + f_(n-1)) mod p.
    """
    if f.degree <= 1:
        return [f.monic()] if f.degree == 1 else []
    n, l = len(f.prim) - 1, f.prim[-1]
    f_int = [c * l ** (n - 1 - i) for i, c in enumerate(f.prim[:-1])] + [1]
    p = _good_prime(f_int)
    linear, g_int = _split_integer_roots(f_int, p)
    factors = [(h, l) for h in linear]      # (factor of a transform, its l)
    if len(g_int) > 1:
        s = math.prod(l // math.gcd(h[0], l) for h in linear)
        m = len(g_int) - 1
        g_int = [c // s ** (m - k) for k, c in enumerate(g_int)]
        modular = _berlekamp([v % p for v in g_int], p)
        if len(modular) == 1:
            cofactors = [g_int]
        else:
            lifted, modulus = _lift_factors(g_int, modular, p, _mignotte_target(g_int))
            cofactors = _recombine(g_int, lifted, modulus)
        factors += [(h, l // s) for h in cofactors]
    return [UniPoly.of([c * k**i for i, c in enumerate(h)]).monic() for h, k in factors]
