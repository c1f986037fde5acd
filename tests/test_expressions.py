import itertools
import math

import numpy as np
import pytest

from hyperpolate import (
    Grammar,
    InvalidInputError,
    complexity,
    parse,
    serialize,
)
from hyperpolate.expressions import (
    ShapeEnumerator,
    assign_slots,
    canonical_simplify,
    compile_expr,
    compile_shape,
    const,
    evaluate,
    expr_depth,
    node_count,
    slot_count,
    struct_key,
    substitute,
    var,
)
from hyperpolate.symbolic import _LaneObjective

from _oracles import eval_expr, profiled_sse_1d


class TestSerializeParse:
    @pytest.mark.parametrize(
        "text",
        [
            "cos(sqrt(add(pow2(x),pow2(y))))",
            "cos(sqrt(add(pow2(x),400)))",
            "sqrt(add(pow2(x),1))",
            "add(x,y,1)",
            "div(1,x)",
            "sub(0,mul(x,2))",
            "exp(sub(x,y))",
            "abs(sin(x))",
            "mul(x,0.5)",
        ],
    )
    def test_round_trip(self, text):
        assert serialize(parse(text)) == text

    @pytest.mark.parametrize(
        "text",
        [
            # literals that float() does not read, or Python reads otherwise
            "0x1f", "1j", "True", "False", "None", "-x", "--5", "007", "'5'",
            # not a call, a name or a literal
            "", "if", "x y", "x+1", "x.y", "add(x,", "add(x,*y)", "sin(x)(y)",
            # the whitelist and its arities
            "foo(x)", "add(x,y=1)", "add(x)", "mul(x)", "sin(x,y)", "sub(x)",
            "div(x,y,1)",
        ],
    )
    def test_rejections(self, text):
        with pytest.raises(InvalidInputError):
            parse(text)

    @pytest.mark.parametrize("depth", [201, 500])
    def test_nesting_beyond_python_parser_rejected(self, depth):
        with pytest.raises(InvalidInputError):
            parse("sqrt(" * depth + "x" + ")" * depth)

    def test_accepted_forms(self):
        assert math.copysign(1.0, parse("-0")[1]) == -1.0
        assert parse(" (mul(x, 2.5e-3))  # note") == parse("mul(x,0.0025)")
        assert parse("add(x,\n y)") == parse("add(y,x)")
        assert expr_depth(parse("sqrt(" * 200 + "x" + ")" * 200)) == 201

    def test_round_trip_of_simplified_shapes(self):
        en = ShapeEnumerator(Grammar(variables=("x", "y"), max_nodes=5))
        fill = itertools.cycle((3.0, -7.0, 5e-324, -2.5e20, -0.0, 0.5, 400.0, -1.0, 1e300))
        count = 0
        for n in range(1, 6):
            for shape in en.shapes(n):
                for _ in range(2):
                    consts = [next(fill) for _ in range(slot_count(shape))]
                    e = canonical_simplify(assign_slots(shape, consts))
                    assert parse(serialize(e)) == e, serialize(e)
                    count += 1
        assert count > 1000

    def test_integer_formatting(self):
        assert serialize(const(400.0)) == "400"
        assert serialize(const(-20.0)) == "-20"
        assert serialize(const(0.5)) == "0.5"

    def test_struct_key_wildcards_constants(self):
        a = parse("cos(sqrt(add(pow2(x),400)))")
        b = parse("cos(sqrt(add(pow2(x),399.5)))")
        assert struct_key(a) == struct_key(b)
        assert struct_key(a) != struct_key(parse("cos(sqrt(add(pow2(x),pow2(y))))"))


class TestSimplify:
    def test_constant_folding(self):
        assert serialize(canonical_simplify(parse("add(pow2(-20),0)"))) == "400"

    def test_identities(self):
        assert serialize(canonical_simplify(("mul", const(1.0), var("x")))) == "x"
        assert serialize(canonical_simplify(("mul", const(0.0), var("x")))) == "0"
        assert serialize(canonical_simplify(("sub", var("x"), const(0.0)))) == "x"
        assert serialize(canonical_simplify(("div", var("x"), const(1.0)))) == "x"
        assert (
            serialize(canonical_simplify(("sqrt", ("pow2", var("x"))))) == "abs(x)"
        )

    def test_commutative_sorting(self):
        assert serialize(canonical_simplify(("add", var("y"), var("x")))) == "add(x,y)"
        assert (
            serialize(canonical_simplify(("mul", const(2.0), var("x")))) == "mul(x,2)"
        )

    def test_even_argument_normalisation(self):
        assert (
            serialize(canonical_simplify(("pow2", ("sub", const(0.0), var("x")))))
            == "pow2(x)"
        )
        assert (
            serialize(canonical_simplify(("cos", ("sub", var("y"), var("x")))))
            == "cos(sub(x,y))"
        )

    def test_negated_negation_folds(self):
        # mul(u, -1) is rewritten to sub(0, u); with u = sub(0, t) that is t
        shape = ("add", ("mul", ("sub", ("slot",), var("t")), ("slot",)), var("t"))
        e = canonical_simplify(assign_slots(shape, (0.0, -1.0)))
        assert serialize(e) == "add(t,t)"
        assert canonical_simplify(e) == e

    def test_idempotent_on_small_fitted_shapes(self):
        en = ShapeEnumerator(Grammar(variables=("t",)))
        for n in range(1, 6):
            for shape in en.shapes(n):
                for consts in itertools.product(
                    (0.0, 1.0, -1.0, 2.0, -0.5), repeat=slot_count(shape)
                ):
                    e = canonical_simplify(assign_slots(shape, consts))
                    assert canonical_simplify(e) == e, (serialize(shape), consts)

    def test_constant_division_by_zero_is_not_an_exception(self):
        e = parse("div(1,0)")
        assert serialize(e) == "div(1,0)"
        assert evaluate(e, {}) == np.inf
        # a fitted denominator that folds to zero: add(mul(x, 0), 0)
        slot = ("slot",)
        shape = ("div", slot, ("add", ("mul", var("x"), slot), slot))
        e = canonical_simplify(assign_slots(shape, (1.0, 0.0, 0.0)))
        assert serialize(e) == "div(1,0)"

    def test_zero_times_a_domain_error_is_kept(self):
        e = parse("mul(0,sqrt(x))")
        assert serialize(e) == "mul(sqrt(x),0)"
        out = evaluate(e, {"x": np.array([-1.0, 4.0])})
        assert np.isnan(out[0]) and out[1] == 0.0
        # factors defined at every real argument still fold
        assert serialize(parse("mul(0,x,cos(sub(x,y)))")) == "0"

    def test_zero_divided_is_not_folded(self):
        assert serialize(parse("div(0,0)")) == "div(0,0)"
        assert np.isnan(evaluate(parse("div(0,0)"), {}))
        assert serialize(parse("div(0,x)")) == "div(0,x)"
        assert serialize(parse("div(0,2)")) == "0"  # constant evaluation


class TestEvaluate:
    def test_vectorized(self):
        e = parse("cos(sqrt(add(pow2(x),400)))")
        x = np.linspace(-40, 40, 81)
        assert np.allclose(evaluate(e, {"x": x}), np.cos(np.sqrt(x**2 + 400)))

    def test_domain_error_is_nan(self):
        e = parse("sqrt(x)")
        out = evaluate(e, {"x": np.array([-1.0, 4.0])})
        assert np.isnan(out[0]) and out[1] == 2.0

    def test_substitute(self):
        e = parse("cos(sqrt(add(pow2(x),pow2(y))))")
        restricted = canonical_simplify(substitute(e, {"y": const(-20.0)}))
        assert serialize(restricted) == "cos(sqrt(add(pow2(x),400)))"


class TestCompileShape:
    SCALARS = (-1.5, 0.75, 2.0, 3.0, -0.25)
    GRID = np.array([-2.0, -0.5, 0.0, 1e-3, 3.0, 1e300])
    SAMPLES = {
        "tame": np.linspace(-3.0, 4.0, 23),
        # zeros, negatives and huge values: nan and inf from every operator
        "wild": np.array([-1e200, -800.0, -3.5, -1.0, -0.0, 0.0, 0.25, 2.0, 710.0, 1e200]),
    }

    def _shapes(self):
        en = ShapeEnumerator(Grammar(variables=("t",)))
        return [("slot",)] + [s for n in range(1, 6) for s in en.shapes(n)]

    @pytest.mark.parametrize("samples", sorted(SAMPLES))
    def test_matches_evaluate_bit_for_bit(self, samples):
        t = self.SAMPLES[samples]
        y = np.cos(t) + 0.5 * np.arange(t.size)
        env = {"t": t}
        finite = 0
        for shape in self._shapes():
            k, at = compile_shape(shape, env)
            assert k == slot_count(shape)
            values = list(self.SCALARS[:k])
            with np.errstate(all="ignore"):
                got = at(values)
            want = evaluate(shape, env, values)
            assert np.array_equal(got, want, equal_nan=True), serialize(shape)
            if k:
                # the last slot's values as a column: one row per value
                with np.errstate(all="ignore"):
                    got_table = at(values[:-1] + [self.GRID[:, None]])
                want_table = [
                    np.broadcast_to(evaluate(shape, env, values[:-1] + [g]), t.shape)
                    for g in self.GRID
                ]
                got_table = np.broadcast_to(got_table, (self.GRID.size, t.size))
                assert np.array_equal(got_table, want_table, equal_nan=True), serialize(shape)
            u = np.broadcast_to(np.asarray(got, dtype=float), t.shape)
            finite += bool(np.all(np.isfinite(u)))
            # lanes: one row per slot-value point, each reduced on its own
            rows = np.stack([u, u[::-1], 0.5 * u])
            points = [self.SCALARS[i : i + k] for i in range(len(self.SCALARS) - k + 1)]
            if k == 1:
                points = [p[0] for p in points]  # bounded Brent's scalar points
            for has_mul in (False, True):
                for has_add in (False, True):
                    lanes = _LaneObjective(at, y, has_mul, has_add)
                    with np.errstate(all="ignore"):
                        got_rows = lanes.rows(rows)[0]
                        want_rows = [profiled_sse_1d(r, y, has_mul, has_add) for r in rows]
                        assert got_rows.tolist() == want_rows, serialize(shape)
                        if not k:
                            continue
                        got_lanes = lanes(points)
                        want_lanes = [
                            profiled_sse_1d(
                                np.broadcast_to(at(np.atleast_1d(p)), t.shape), y, has_mul, has_add
                            )
                            for p in points
                        ]
                    assert got_lanes.tolist() == want_lanes, serialize(shape)
        assert finite > 0

    def test_unknown_operator(self):
        with pytest.raises(InvalidInputError):
            compile_shape(("tan", ("slot",)), {})


class TestCompileExpr:
    SLOTS = (-1.5, 0.75, 2.0, 3.0, -0.25)
    SAMPLES = TestCompileShape.SAMPLES

    @staticmethod
    def _shapes(variables, max_nodes):
        en = ShapeEnumerator(Grammar(variables=variables))
        return [("slot",)] + [s for n in range(1, max_nodes + 1) for s in en.shapes(n)]

    @pytest.mark.parametrize("variables, max_nodes", [(("t",), 5), (("x", "y"), 4)])
    def test_matches_reference_walker(self, variables, max_nodes):
        # one compiled form per shape, called on every sample set
        envs = []
        for name in sorted(self.SAMPLES):
            t = self.SAMPLES[name]
            envs.append({v: t[::-1] if i else t for i, v in enumerate(variables)})
        finite = 0
        for shape in self._shapes(variables, max_nodes):
            fn = compile_expr(shape)
            values = list(self.SLOTS[: slot_count(shape)])
            for env in envs:
                with np.errstate(all="ignore"):
                    got = fn(env, values)
                want = eval_expr(shape, env, values)
                assert np.array_equal(got, want, equal_nan=True), serialize(shape)
                assert np.array_equal(evaluate(shape, env, values), want, equal_nan=True)
                finite += bool(np.all(np.isfinite(got)))
        assert finite > 0

    def test_unknown_operator(self):
        with pytest.raises(InvalidInputError):
            compile_expr(("tan", var("x")))
        with pytest.raises(InvalidInputError):
            evaluate(("tan", var("x")), {"x": np.zeros(2)})


class TestComplexity:
    def test_ripple_preference(self):
        y2_form = parse("cos(sqrt(add(pow2(x),pow2(y))))")
        const_form = parse("cos(sqrt(add(pow2(x),400)))")
        assert complexity(y2_form) < complexity(const_form)

    def test_constant_monotone_in_nodes(self):
        assert complexity(const(3.0)) < complexity(parse("add(x,3)"))

    def test_nonint_constant_expensive(self):
        assert complexity(var("x")) < complexity(("mul", const(2.71828), var("x")))


class TestEnumeration:
    def test_counts_deterministic(self):
        g = Grammar(variables=("t",))
        counts = [len(ShapeEnumerator(g).shapes(n)) for n in range(1, 7)]
        counts2 = [len(ShapeEnumerator(g).shapes(n)) for n in range(1, 7)]
        assert counts == counts2
        assert counts[0] == 1
        assert all(b > a for a, b in zip(counts, counts2[1:]))

    def test_shapes_are_canonical(self):
        g = Grammar(variables=("t",))
        shapes = ShapeEnumerator(g).shapes(5)
        keys = [serialize(s) for s in shapes]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_every_shape_contains_a_variable(self):
        g = Grammar(variables=("t",))
        en = ShapeEnumerator(g)
        for n in range(1, 6):
            for s in en.shapes(n):
                assert node_count(s) == n
                assert slot_count(s) < n

    def test_ripple_shape_present(self):
        g = Grammar(variables=("t",))
        keys = {serialize(s) for s in ShapeEnumerator(g).shapes(6)}
        assert "cos(sqrt(add(pow2(t),~)))" in keys

    def test_depth_and_ops_respected(self):
        g = Grammar(variables=("t",), unary_ops=("cos",), binary_ops=("add",))
        shapes = ShapeEnumerator(g).shapes(3)
        for s in shapes:
            assert s[0] in ("cos", "add")
