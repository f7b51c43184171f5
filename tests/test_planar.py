import random
from fractions import Fraction

import pytest

from orthoscope import (
    RATIONAL,
    BiPoly,
    BiRatFunc,
    PlanarVectorField,
    RatFunc,
    UniPoly,
    base_orthogonal,
    beta_search_log,
    classify_invariant_line_lift,
    foliation_linearize,
    invariant_line,
    lie_bracket,
    linearize_along_line,
    system_derivative,
    system_dlog,
)
from orthoscope.criteria import (
    CONCLUSION_BASE_INAPPLICABLE,
    CONCLUSION_INCONCLUSIVE_FOR_LIFT,
    CONCLUSION_ORTHOGONAL,
    STATUS_NONE,
)
from orthoscope.errors import HypothesisError

from conftest import random_unipoly


def bp(terms):
    return BiPoly.of(terms)


@pytest.fixture
def quadratic_fiber_field():
    # x' = x^3(x-1), y' = xy + y^2/2
    return PlanarVectorField(
        bp({(4, 0): 1, (3, 0): -1}), bp({(1, 1): 1, (0, 2): Fraction(1, 2)})
    )


@pytest.fixture
def dy():
    return PlanarVectorField(BiPoly.zero(), BiPoly.one())


class TestBiRatFunc:
    def test_unhashable(self):
        from orthoscope import parse_expression

        with pytest.raises(TypeError, match="BiRatFunc"):
            hash(parse_expression("x/y"))

    def test_constant_side_needs_no_gcd(self, monkeypatch):
        import orthoscope.planar as planar_mod

        def no_gcd(p, q):
            raise AssertionError("bivariate gcd with a constant side")

        monkeypatch.setattr(planar_mod, "bipoly_gcd", no_gcd)
        h = BiRatFunc(bp({(1, 1): 2, (0, 0): 4}), BiPoly.constant(2))
        assert (h.num, h.den) == (bp({(1, 1): 1, (0, 0): 2}), BiPoly.one())
        h = BiRatFunc(BiPoly.constant(3), bp({(2, 0): 3, (0, 1): 1}))
        assert (h.num, h.den) == (BiPoly.one(), bp({(2, 0): 1, (0, 1): Fraction(1, 3)}))

    def test_repr_and_str(self):
        h = BiRatFunc(BiPoly.x(), BiPoly.y())
        assert repr(h) == "BiRatFunc('x/y')"
        assert str(h) == "x/y"

    def test_restriction_is_a_homomorphism(self):
        # On y-free functions restrict_y0 maps one field into the other, so
        # the bivariate and the univariate normalizations must agree on
        # every field operation.
        rng = random.Random(8)

        def y_free():
            num = random_unipoly(rng, 3, lo=-4, hi=4)
            den = random_unipoly(rng, 3, lo=-4, hi=4, nonzero=True)
            return BiRatFunc.of(num, den)

        for _ in range(40):
            a, b = y_free(), y_free()
            ra, rb = a.restrict_y0(), b.restrict_y0()
            assert (a + b).restrict_y0() == ra + rb
            assert (a - b).restrict_y0() == ra - rb
            assert (a * b).restrict_y0() == ra * rb
            assert (2 - a).restrict_y0() == 2 - ra
            if not b.is_zero:
                assert (a / b).restrict_y0() == ra / rb
            if not a.is_zero:
                assert (3 / a).restrict_y0() == 3 / ra
            for k in range(-3, 4):
                if k >= 0 or not a.is_zero:
                    assert (a**k).restrict_y0() == ra**k


def random_bipoly(rng, max_deg=3, terms=4) -> BiPoly:
    """Up to `terms` terms of degree at most max_deg in x and in y, with
    integer or fractional coefficients; may be zero or constant."""
    out = {}
    for _ in range(rng.randint(1, terms)):
        c = Fraction(rng.randint(-5, 5), rng.choice([1, 1, 2, 3]))
        out[(rng.randint(0, max_deg), rng.randint(0, max_deg))] = c
    return bp(out)


# The printing rules of RatFunc and BiRatFunc before FractionField printed
# both, kept as the reference; the BiRatFunc rule also wraps a denominator
# that is a product of variables, which it printed bare (1/(x*y) as 1/x*y).


def reference_signed_sum(terms) -> str:
    parts = []
    for c, body in terms:
        mag = abs(c)
        body = str(mag) if not body else body if mag == 1 else f"{mag}*{body}"
        if parts:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts) or "0"


def reference_unipoly_str(p: UniPoly) -> str:
    terms = [(c, "" if k == 0 else "x" if k == 1 else f"x^{k}")
             for k, c in reversed(list(enumerate(p.coeffs))) if c != 0]
    return reference_signed_sum(terms)


def reference_bipoly_str(p: BiPoly) -> str:
    terms = []
    for i, j in sorted(p.terms, key=lambda k: (-(k[0] + k[1]), -k[0])):
        factors = ([f"x^{i}" if i > 1 else "x"] if i else []) + \
                  ([f"y^{j}" if j > 1 else "y"] if j else [])
        terms.append((p.terms[(i, j)], "*".join(factors)))
    return reference_signed_sum(terms)


def reference_ratfunc_str(r: RatFunc) -> str:
    def needs_parens(p: UniPoly) -> bool:
        nonzero = [c for c in p.coeffs if c != 0]
        if len(nonzero) != 1:
            return True
        return p.degree != 0 and nonzero[0] != 1

    if r.den.degree == 0:
        return reference_unipoly_str(r.num)
    num_s, den_s = reference_unipoly_str(r.num), reference_unipoly_str(r.den)
    if needs_parens(r.num):
        num_s = f"({num_s})"
    if needs_parens(r.den):
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


def reference_biratfunc_str(h: BiRatFunc) -> str:
    def coeff_not_unit(p: BiPoly) -> bool:
        if len(p.terms) != 1:
            return True
        ((key, c),) = p.terms.items()
        return key != (0, 0) and c != 1

    if h.den.is_constant and h.den.constant_value() == 1:
        return reference_bipoly_str(h.num)
    num_s, den_s = reference_bipoly_str(h.num), reference_bipoly_str(h.den)
    if len(h.num.terms) > 1 or not h.num.is_constant and coeff_not_unit(h.num):
        num_s = f"({num_s})"
    if len(h.den.terms) > 1 or coeff_not_unit(h.den) or "*" in den_s:
        den_s = f"({den_s})"
    return f"{num_s}/{den_s}"


class TestSharedNormalForm:
    def test_y_free_pairs_agree_with_ratfunc(self):
        rng = random.Random(1212)
        for _ in range(200):
            p = random_unipoly(rng, 4, lo=-6, hi=6) * Fraction(rng.randint(1, 5), rng.randint(1, 5))
            q = random_unipoly(rng, 4, lo=-6, hi=6, nonzero=True)
            if rng.random() < 0.3:
                shared = random_unipoly(rng, 2, lo=-3, hi=3, nonzero=True)
                p, q = p * shared, q * shared
            r, h = RatFunc(p, q), BiRatFunc.of(p, q)
            assert (h.num, h.den) == (BiPoly.from_unipoly_x(r.num), BiPoly.from_unipoly_x(r.den))
            assert str(h) == str(r)

    def test_printing_matches_the_reference_rules(self):
        rng = random.Random(1213)
        wrapped_products = 0
        for _ in range(300):
            p = random_unipoly(rng, 4, lo=-6, hi=6) * Fraction(rng.randint(-5, 5), rng.randint(1, 5))
            q = random_unipoly(rng, 3, lo=-6, hi=6, nonzero=True)
            if rng.random() < 0.3:
                q = UniPoly.variable() ** rng.randint(0, 4) * rng.choice([-3, -1, 1, 2])
            r = RatFunc(p, q)
            assert str(r) == reference_ratfunc_str(r)
            num = random_bipoly(rng)
            den = random_bipoly(rng, terms=1 if rng.random() < 0.5 else 3)
            if not den.is_zero:
                h = BiRatFunc(num, den)
                assert str(h) == reference_biratfunc_str(h)
                wrapped_products += "*" in str(h.den) and len(h.den.prim) == 1
        assert wrapped_products >= 20

    def test_monomial_denominators_round_trip(self):
        from orthoscope import parse_expression

        for text, printed in (("1/(x*y)", "1/(x*y)"), ("1/(2*x*y)", "1/2/(x*y)"),
                              ("2/(x*y^3)", "2/(x*y^3)"), ("x/y", "x/y")):
            assert str(parse_expression(text)) == printed
        rng = random.Random(1214)
        both = 0
        for _ in range(200):
            i, j = rng.randint(0, 3), rng.randint(0, 3)
            if i == j == 0:
                continue
            c = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 4))
            v = BiRatFunc(random_bipoly(rng), bp({(i, j): c}))
            both += i > 0 and j > 0
            assert parse_expression(str(v)) == v, str(v)
        assert both >= 80


def random_field(rng, max_deg=3, lo=-3, hi=3):
    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(0, max_deg), rng.randint(0, max_deg))] = rng.randint(lo, hi)
        return bp(terms)

    return PlanarVectorField(rand_poly(), rand_poly())


class TestLieBracket:
    def test_vertical_direction(self, quadratic_fiber_field, dy):
        br = lie_bracket(quadratic_fiber_field, dy)
        assert br.fx.is_zero
        assert br.fy == bp({(1, 0): -1, (0, 1): -1})  # -(x + y), our convention

    def test_self_bracket_vanishes(self, quadratic_fiber_field):
        br = lie_bracket(quadratic_fiber_field, quadratic_fiber_field)
        assert br.fx.is_zero and br.fy.is_zero

    def test_coordinate_fields(self):
        dx = PlanarVectorField(BiPoly.one(), BiPoly.zero())
        xdy = PlanarVectorField(BiPoly.zero(), BiPoly.x())
        br = lie_bracket(dx, xdy)
        assert br.fx.is_zero and br.fy == BiPoly.one()

    def test_antisymmetry_and_jacobi_smoke(self):
        # the full 100-field run lives in the acceptance suite
        import properties

        properties.bracket_algebra(count=20)


class TestInvariantLine:
    def test_quadratic_fiber(self, quadratic_fiber_field):
        cofactor = invariant_line(quadratic_fiber_field)
        assert cofactor == bp({(1, 0): 1, (0, 1): Fraction(1, 2)})

    def test_not_invariant(self):
        assert invariant_line(PlanarVectorField(BiPoly.zero(), BiPoly.x())) is None

    def test_zero_component(self):
        cofactor = invariant_line(PlanarVectorField(BiPoly.x(), BiPoly.zero()))
        assert cofactor is not None and cofactor.is_zero


class TestLinearize:
    def test_quadratic_fiber(self, quadratic_fiber_field, x):
        lin = linearize_along_line(quadratic_fiber_field)
        assert lin.base_f0 == x**3 * (x - 1)
        assert lin.fiber_hZ == x

    def test_idempotent_on_fiberwise_linear(self, x):
        # x' = f(x), y' = y*g(x) is its own linearization
        v = PlanarVectorField(bp({(2, 0): 1, (0, 0): -3}), bp({(1, 1): 5}))
        lin = linearize_along_line(v)
        assert BiPoly.from_unipoly_x(lin.base_f0) == v.fx
        assert BiPoly.y() * BiPoly.from_unipoly_x(lin.fiber_hZ) == v.fy

    def test_deformed_instance(self, x):
        # x' = x^3(x-1) + y, y' = xy + x*y^2
        v = PlanarVectorField(
            bp({(4, 0): 1, (3, 0): -1, (0, 1): 1}), bp({(1, 1): 1, (1, 2): 1})
        )
        lin = linearize_along_line(v)
        assert lin.base_f0 == x**3 * (x - 1) and lin.fiber_hZ == x

    def test_line_not_invariant_rejected(self):
        with pytest.raises(HypothesisError):
            linearize_along_line(PlanarVectorField(BiPoly.x(), BiPoly.one()))

    def test_degenerate_base_rejected(self):
        v = PlanarVectorField(bp({(0, 1): 1}), bp({(0, 1): 1}))  # f(x,0) = 0
        with pytest.raises(HypothesisError):
            linearize_along_line(v)


class TestSystemDerivation:
    def test_defining_property(self, quadratic_fiber_field):
        v = quadratic_fiber_field
        assert system_derivative(v, BiRatFunc.from_poly(BiPoly.x())) == BiRatFunc.from_poly(v.fx)
        assert system_derivative(v, BiRatFunc.from_poly(BiPoly.y())) == BiRatFunc.from_poly(v.fy)

    def test_leibniz_200(self):
        rng = random.Random(606)
        for _ in range(200):
            v = random_field(rng, max_deg=2)
            h1 = BiRatFunc.from_poly(random_field(rng, max_deg=2).fx)
            h2 = BiRatFunc.from_poly(random_field(rng, max_deg=2).fy)
            lhs = system_derivative(v, h1 * h2)
            rhs = system_derivative(v, h1) * h2 + h1 * system_derivative(v, h2)
            assert lhs == rhs
            add_lhs = system_derivative(v, h1 + h2)
            assert add_lhs == system_derivative(v, h1) + system_derivative(v, h2)

    def test_dlog_values(self, quadratic_fiber_field):
        v = quadratic_fiber_field
        y = BiRatFunc.from_poly(BiPoly.y())
        assert system_dlog(v, y) == BiRatFunc.from_poly(bp({(1, 0): 1, (0, 1): Fraction(1, 2)}))
        assert system_dlog(v, BiRatFunc.from_poly(BiPoly.constant(9))).is_zero
        assert system_dlog(v, y * y) == BiRatFunc.from_poly(bp({(1, 0): 2, (0, 1): 1}))

    def test_dlog_homomorphism_200(self):
        rng = random.Random(808)
        done = 0
        while done < 200:
            v = random_field(rng, max_deg=2)
            h1 = random_field(rng, max_deg=2).fx
            h2 = random_field(rng, max_deg=2).fy
            if h1.is_zero or h2.is_zero:
                continue
            b1, b2 = BiRatFunc.from_poly(h1), BiRatFunc.from_poly(h2)
            assert system_dlog(v, b1 * b2) == system_dlog(v, b1) + system_dlog(v, b2)
            done += 1

    def test_dlog_of_zero_rejected(self, quadratic_fiber_field):
        with pytest.raises(HypothesisError, match="logarithmic derivative of zero"):
            system_dlog(quadratic_fiber_field, BiRatFunc.zero())


class TestFoliationLinearize:
    def test_quadratic_fiber_cofactor(self, quadratic_fiber_field, dy):
        cofactor = foliation_linearize(quadratic_fiber_field, dy)
        assert cofactor == BiRatFunc.from_poly(bp({(1, 0): 1, (0, 1): 1}))

    def test_fiberwise_linear(self, dy):
        v = PlanarVectorField(bp({(3, 0): 1}), bp({(1, 1): 7}))
        cofactor = foliation_linearize(v, dy)
        assert cofactor == BiRatFunc.from_poly(bp({(1, 0): 7}))

    def test_commuting_fields(self, dy):
        v = PlanarVectorField(BiPoly.one(), BiPoly.zero())
        assert foliation_linearize(v, dy).is_zero

    def test_consistency_with_linearization(self, quadratic_fiber_field, dy, x):
        cofactor = foliation_linearize(quadratic_fiber_field, dy)
        lin = linearize_along_line(quadratic_fiber_field)
        assert cofactor.restrict_y0() == RatFunc.from_poly(lin.fiber_hZ)

    def test_not_proportional_rejected(self, dy):
        v = PlanarVectorField(BiPoly.y(), BiPoly.zero())
        with pytest.raises(HypothesisError):
            foliation_linearize(v, dy)

    def test_zero_direction_rejected(self, quadratic_fiber_field):
        with pytest.raises(ValueError):
            foliation_linearize(
                quadratic_fiber_field, PlanarVectorField(BiPoly.zero(), BiPoly.zero())
            )


class TestGaugeIdentity:
    # the gauge identity k*a = c + dlog(h) under the system derivation
    def test_residual_half_y(self, quadratic_fiber_field, dy):
        # the tangent cofactor x + y transformed by h = y leaves y/2, so the
        # identity fails for every constant c
        v = quadratic_fiber_field
        a = foliation_linearize(v, dy)
        y = BiRatFunc.from_poly(BiPoly.y())
        for c in (0, 1, -1, 2, Fraction(1, 2)):
            assert a != system_dlog(v, y) + c
        residual = a - system_dlog(v, y)
        assert residual == BiRatFunc.from_poly(bp({(0, 1): Fraction(1, 2)}))

    def test_trivial_gauge(self, quadratic_fiber_field):
        dlog_one = system_dlog(quadratic_fiber_field, BiRatFunc.one())
        assert dlog_one == BiRatFunc.zero()
        assert dlog_one != BiRatFunc.from_poly(BiPoly.x())

    def test_constructed_identity(self, quadratic_fiber_field):
        rng = random.Random(21)
        v = quadratic_fiber_field
        for _ in range(20):
            h = BiRatFunc.from_poly(
                bp({(rng.randint(0, 2), rng.randint(0, 2)): rng.randint(1, 4), (0, 0): 1})
            )
            c = Fraction(rng.randint(-5, 5))
            k = rng.choice([1, 2, 3, -1])
            a = (system_dlog(v, h) + c) / k
            assert a * k == system_dlog(v, h) + c
            assert a * k != system_dlog(v, h) + c + 1


class TestLiftClassifier:
    def test_quadratic_fiber_orthogonal(self, quadratic_fiber_field):
        verdict = classify_invariant_line_lift(quadratic_fiber_field)
        assert verdict.conclusion == CONCLUSION_ORTHOGONAL
        assert verdict.base.orthogonal
        assert verdict.fibration.status == STATUS_NONE
        assert verdict.linearization == linearize_along_line(quadratic_fiber_field)

    def test_deformed_instance_orthogonal(self):
        v = PlanarVectorField(
            bp({(4, 0): 1, (3, 0): -1, (0, 1): 1}), bp({(1, 1): 1, (1, 2): 1})
        )
        assert classify_invariant_line_lift(v).conclusion == CONCLUSION_ORTHOGONAL

    def test_internal_linearization_is_undecided(self):
        v = PlanarVectorField(bp({(3, 0): 1, (2, 0): -1, (0, 1): 1}), bp({(1, 1): 1}))
        verdict = classify_invariant_line_lift(v)
        assert verdict.conclusion == CONCLUSION_INCONCLUSIVE_FOR_LIFT
        assert verdict.fibration.beta == 0

    def test_base_hypothesis_fails(self):
        v = PlanarVectorField(bp({(2, 0): 1, (1, 0): -1}), bp({(1, 1): 1}))
        assert classify_invariant_line_lift(v).conclusion == CONCLUSION_BASE_INAPPLICABLE

    def test_coordinate_invariance_50(self):
        rng = random.Random(909)
        done = 0
        while done < 50:
            base = random_field(rng, max_deg=3)
            v = PlanarVectorField(base.fx, base.fy * BiPoly.y())
            if v.fx.subst_y(0).is_zero:
                continue
            a = Fraction(rng.choice([1, 2, 3, -1, -2]))
            b = Fraction(rng.randint(-2, 2))
            u = Fraction(rng.choice([1, 2, -1, -2, 3]))
            # X = a*x + b, Y = u*y: X' = a*fx(...), Y' = u*fy(...)
            inv_a, inv_u = Fraction(1) / a, Fraction(1) / u
            fxt = v.fx.compose_affine(inv_a, -b * inv_a, inv_u) * a
            fyt = v.fy.compose_affine(inv_a, -b * inv_a, inv_u) * u
            vt = PlanarVectorField(fxt, fyt)
            got = classify_invariant_line_lift(vt).conclusion
            want = classify_invariant_line_lift(v).conclusion
            assert got == want
            done += 1

    def test_gauge_covariance_on_fixture(self, quadratic_fiber_field, dy, x):
        # valuation-corrected covariance: restricting the transform of the
        # cofactor by y^m and adding back m * fiber reproduces the original
        # restriction; unit gauges (no y factor) leave the restricted search
        # status unchanged outright
        v = quadratic_fiber_field
        a = foliation_linearize(v, dy)
        lin = linearize_along_line(v)
        f = RatFunc.from_poly(lin.base_f0)
        fiber = RatFunc.from_poly(lin.fiber_hZ)
        base_status = beta_search_log(f, a.restrict_y0(), base_orthogonal(f), RATIONAL).status
        y = BiRatFunc.from_poly(BiPoly.y())
        for m in range(0, 4):
            shifted = a - system_dlog(v, y**m) if m else a
            corrected = shifted.restrict_y0() + fiber * m
            assert corrected == a.restrict_y0()
        for unit in (BiRatFunc.from_poly(bp({(2, 0): 1, (0, 0): 1})), BiRatFunc.one()):
            shifted = a - system_dlog(v, unit)
            status = beta_search_log(f, shifted.restrict_y0(), base_orthogonal(f),
                                     RATIONAL).status
            assert status == base_status
