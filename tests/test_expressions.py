import gc
import importlib
import itertools
import math
import pkgutil
import tracemalloc
from decimal import Decimal, localcontext

import numpy as np
import pytest

import hyperpolate
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
    compile_interval,
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
from hyperpolate import expressions
from hyperpolate.symbolic import _LaneObjective

from _oracles import eval_expr, profiled_sse_1d
from test_digests import lift_menu_exprs


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
        en = ShapeEnumerator(Grammar(max_nodes=5), ("x", "y"))
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

    @pytest.mark.parametrize("op", ["add", "mul"])
    def test_long_chain_round_trip(self, op):
        # simplified node by node along the chain, not one recursion per operand
        names = ",".join(f"x{i:04d}" for i in range(1000))
        text = f"{op}({names})"
        assert serialize(parse(text)) == text
        # mul(-1, ...) is re-simplified whole as sub(0, mul(...))
        want = f"sub(0,{text})" if op == "mul" else f"add({names},-1)"
        assert serialize(parse(f"{op}(-1,{names})")) == want

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
        en = ShapeEnumerator(Grammar(), ("t",))
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


class TestSlots:
    def test_split_constants_inverts_assign_slots(self):
        for e in lift_menu_exprs():
            shape, values = expressions._split_constants(e)
            assert slot_count(shape) == len(values)
            assert assign_slots(shape, values) == e

    def test_tree_values_are_inserted_unchanged(self):
        shape = parse("add(t,1)")
        body = ("pow2", ("sub", var("y"), const(2.0)))
        filled = assign_slots(expressions._split_constants(shape)[0], [body])
        assert filled == ("add", var("t"), body)
        assert assign_slots(("slot",), [3]) == const(3.0)


class TestCompileShape:
    SCALARS = (-1.5, 0.75, 2.0, 3.0, -0.25)
    GRID = np.array([-2.0, -0.5, 0.0, 1e-3, 3.0, 1e300])
    SAMPLES = {
        "tame": np.linspace(-3.0, 4.0, 23),
        # zeros, negatives and huge values: nan and inf from every operator
        "wild": np.array([-1e200, -800.0, -3.5, -1.0, -0.0, 0.0, 0.25, 2.0, 710.0, 1e200]),
    }

    def _shapes(self):
        en = ShapeEnumerator(Grammar(), ("t",))
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
        with pytest.raises(InvalidInputError):
            compile_interval(("tan", ("slot",)), {})


_PI = Decimal(
    "3.14159265358979323846264338327950288419716939937510582097494459230781640628620899863"
)


def _taylor_sin(x):
    """sin of a Decimal to the context's precision: reduced to [-pi, pi]."""
    r = x.remainder_near(2 * _PI)
    term, total, k = r, r, 1
    while abs(term) > Decimal(10) ** (-70):
        term = -term * r * r / ((2 * k) * (2 * k + 1))
        total += term
        k += 1
    return total


_REFERENCES = {
    "sqrt": lambda x: x.sqrt(),
    "exp": lambda x: x.exp(),
    "sin": _taylor_sin,
    "cos": lambda x: _taylor_sin(x + _PI / 2),
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: a / b,
}


def _arguments(op, rng, n=2500):
    """Arguments where numpy's float result is hardest to enclose."""
    if op == "sqrt":
        tiny = [5e-324, 1e-320, 2.2250738585072014e-308, 1e-300, 0.0]
        return np.concatenate([tiny, 10.0 ** rng.uniform(-300, 300, n - 5)])
    if op == "exp":
        edges = [-745.0, -708.5, 709.7, 709.78, 1e-300, -1e-300]
        return np.concatenate([edges, rng.uniform(-745, 709.7, n // 2), 10.0 ** rng.uniform(-20, 1, n // 2)])
    # sin and cos: the floats nearest their zeros, up to 1e6 turns, and wide arguments
    k = np.concatenate([np.arange(1, 200), rng.integers(200, 6_000_000, n // 2 - 199)])
    zeros = k * np.pi if op == "sin" else (k + 0.5) * np.pi
    return np.concatenate([zeros, -zeros[:50], rng.uniform(-1e5, 1e5, n // 2 - 50)])


def _pairs(rng, n=2500):
    """Operand pairs of every magnitude and sign, and near-cancelling ones."""
    a = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    b = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-300, 300, n)
    b[: n // 4] = -a[: n // 4] * (1 + rng.uniform(-1e-12, 1e-12, n // 4))
    b[n // 4 : n // 2] = rng.uniform(-1e3, 1e3, n // 4)
    a[n // 4 : n // 2] = rng.uniform(-1e3, 1e3, n // 4)
    return a, b


class TestIntervals:
    """``compile_interval`` encloses what numpy computes: each widened
    interval operation holds the exact value (50-digit decimal references),
    a chain's enclosure holds every order of its float evaluation, and a
    shape's enclosure holds the values of its simplified filled form."""

    @pytest.mark.parametrize("op", ["sqrt", "exp", "sin", "cos"])
    def test_unary_widening_holds_the_exact_value(self, op):
        x = _arguments(op, np.random.default_rng(7))
        with np.errstate(all="ignore"):
            lo, hi = expressions._INTERVAL_OPS[op]((x, x))
        with localcontext() as ctx:
            ctx.prec = 50
            for xi, l, h in zip(x.tolist(), lo.tolist(), hi.tolist()):
                exact = _REFERENCES[op](Decimal(xi))
                assert Decimal(l) <= exact <= Decimal(h) or (op == "exp" and h == math.inf), xi

    @pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
    def test_binary_widening_holds_the_exact_value(self, op):
        a, b = _pairs(np.random.default_rng(8))
        with np.errstate(all="ignore"):
            lo, hi = expressions._INTERVAL_OPS[op]((a, a), (b, b))
        with localcontext() as ctx:
            ctx.prec = 50
            for ai, bi, l, h in zip(a.tolist(), b.tolist(), lo.tolist(), hi.tolist()):
                exact = _REFERENCES[op](Decimal(ai), Decimal(bi))
                assert Decimal(l) <= exact <= Decimal(h) or math.inf in (-l, h), (ai, bi)

    def test_chains_hold_every_order(self):
        # canonical_simplify may re-sort a chain once a slot is a number: the
        # enclosure of the operands holds each order's float sum and product
        rng = np.random.default_rng(9)
        cases = [
            (1e16, 1.0, -1e16, 3.0),
            (1e-200, 1e-200, 1e250),  # one order underflows to 0
            (1e200, 1e200, 1e-300),  # one order overflows: the whole line
            (-0.0, 5.0, 1e-310),
        ]
        cases += [tuple(rng.choice([-1, 1], 4) * 10.0 ** rng.uniform(-8, 8, 4)) for _ in range(300)]
        cases += [tuple(rng.uniform(-3, 3, 3)) for _ in range(300)]
        for ops in cases:
            points = [(np.float64(v), np.float64(v)) for v in ops]
            with np.errstate(all="ignore"):
                for op, fn in (("add", np.add), ("mul", np.multiply)):
                    lo, hi = expressions._INTERVAL_OPS[op](*points)
                    for order in itertools.permutations(ops):
                        value = np.float64(order[-1])
                        for v in reversed(order[:-1]):
                            value = fn(np.float64(v), value)
                        assert lo <= value <= hi or math.isnan(value), (op, order)

    def test_shapes_hold_their_simplified_values(self):
        """Every one-slot shape of at most 5 nodes over x and y, boxes around
        constants that fold, snap or re-sort the simplified form."""
        x = np.array([-3.0, -1.0, -0.5, 0.0, 0.5, 2.0, 7.0])
        env = {"x": x, "y": np.array([2.0, -1.0, 0.0, 3.0, -0.25, 1.0, 5.0])}
        en = ShapeEnumerator(Grammar(), ("x", "y"))
        shapes = [s for n in range(1, 6) for s in en.shapes(n) if slot_count(s) == 1]
        checked = 0
        for shape in shapes:
            _, at = compile_interval(shape, env)
            for c in (-3.0, -1.0, -0.5, 0.0, 0.25, 1.0, 2.0, 400.0):
                lo, hi = np.array([c - 1e-3, c, c - 0.5]), np.array([c, c + 1e-6, c + 0.5])
                with np.errstate(all="ignore"):
                    box_lo, box_hi = at(((lo[:, None], hi[:, None]),))
                for i, v in enumerate((lo[0] + 5e-4, c, c + 0.25)):
                    filled = canonical_simplify(assign_slots(shape, [v]))
                    got = np.broadcast_to(evaluate(filled, env), x.shape)
                    ok = np.isnan(got) | ((box_lo[i] <= got) & (got <= box_hi[i]))
                    assert ok.all(), (serialize(shape), v, serialize(filled))
                    checked += 1
        assert len(shapes) > 800 and checked > 15000

    def test_degenerate_boxes_hold_the_point_values(self):
        """At boxes (v, v), the enclosure of every shape of at most 5 nodes
        over x and y, with any number of slots, holds compile_shape's values
        at v: the point and interval walks number the slots alike."""
        x = np.array([-3.0, -1.0, -0.5, 0.0, 0.5, 2.0, 7.0])
        env = {"x": x, "y": np.array([2.0, -1.0, 0.0, 3.0, -0.25, 1.0, 5.0])}
        en = ShapeEnumerator(Grammar(), ("x", "y"))
        shapes = [s for n in range(1, 6) for s in en.shapes(n)]
        slots = [slot_count(s) for s in shapes]
        for shape in shapes:
            k, at = compile_shape(shape, env)
            k_box, box_at = compile_interval(shape, env)
            assert k_box == k
            for values in ([-1.5, 0.75, 2.0], [3.0, -0.25, 0.5]):
                with np.errstate(all="ignore"):
                    got = np.broadcast_to(at(values[:k]), x.shape)
                    lo, hi = box_at([(v, v) for v in values[:k]])
                ok = np.isnan(got) | ((lo <= got) & (got <= hi))
                assert ok.all(), (serialize(shape), values[:k])
        assert len(shapes) > 4000 and slots.count(2) > 10

    def test_re_sorted_chains(self):
        # canonical shapes whose filled forms re-sort a chain; -1 becomes sub(0, u)
        t = np.linspace(-3.0, 4.0, 15)
        env = {"x": t, "y": t[::-1] * 1e3, "t": t}
        slot, x, y = ("slot",), var("x"), var("y")
        cases = [
            (("add", ("mul", x, y), ("add", ("mul", x, slot), y)), 3.0, "add(mul(x,3),mul(x,y),y)"),
            (("add", ("mul", var("t"), slot), ("add", ("sin", var("t")), var("t"))), -1.0,
             "add(sin(t),sub(0,t),t)"),
        ]
        for shape, c, filled_text in cases:
            assert canonical_simplify(shape) == shape
            filled = canonical_simplify(assign_slots(shape, [c]))
            assert serialize(filled) == filled_text
            _, at = compile_interval(shape, env)
            lo, hi = at(((np.array([[c]]), np.array([[c]])),))
            got = evaluate(filled, env)
            assert np.all((lo <= got) & (got <= hi))

    def test_domain_errors_are_empty(self):
        env = {"t": np.array([-4.0, 1.0])}
        _, at = compile_interval(("sqrt", ("add", ("var", "t"), ("slot",))), env)
        with np.errstate(all="ignore"):
            lo, hi = at(((np.array([[-2.0]]), np.array([[2.0]])),))
        # sqrt(t + c) with t + c in [-6, -2] is nan throughout: empty
        assert np.isnan(hi[0, 0]) and 1.0 <= hi[0, 1] <= 1.8
        _, at = compile_interval(("div", ("var", "t"), ("add", ("var", "t"), ("slot",))), env)
        with np.errstate(all="ignore"):
            lo, hi = at(((np.array([[3.0]]), np.array([[5.0]])),))
        # the divisor t + c holds 0 at t = -4: the whole line
        assert (lo[0, 0], hi[0, 0]) == (-math.inf, math.inf)


class TestEvaluate:
    SLOTS = (-1.5, 0.75, 2.0, 3.0, -0.25)
    SAMPLES = TestCompileShape.SAMPLES
    SHAPE = ("add", var("x"), ("slot",))

    @staticmethod
    def _shapes(variables, max_nodes):
        en = ShapeEnumerator(Grammar(), variables)
        return [("slot",)] + [s for n in range(1, max_nodes + 1) for s in en.shapes(n)]

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

    @pytest.mark.parametrize("variables, max_nodes", [(("t",), 5), (("x", "y"), 4)])
    def test_matches_reference_walker(self, variables, max_nodes):
        envs = []
        for name in sorted(self.SAMPLES):
            t = self.SAMPLES[name]
            envs.append({v: t[::-1] if i else t for i, v in enumerate(variables)})
        finite = 0
        for shape in self._shapes(variables, max_nodes):
            values = list(self.SLOTS[: slot_count(shape)])
            for env in envs:
                got = evaluate(shape, env, values)
                want = eval_expr(shape, env, values)
                assert np.array_equal(got, want, equal_nan=True), serialize(shape)
                finite += bool(np.all(np.isfinite(got)))
        assert finite > 0

    def test_unknown_operator(self):
        with pytest.raises(InvalidInputError):
            evaluate(("tan", var("x")), {"x": np.zeros(2)})

    def test_missing_slot_values(self):
        with pytest.raises(InvalidInputError, match="has 1 slot.*0 slot value"):
            evaluate(self.SHAPE, {"x": np.ones(2)})

    def test_too_few_slot_values(self):
        with pytest.raises(InvalidInputError, match="has 1 slot.*0 slot value"):
            evaluate(self.SHAPE, {"x": np.ones(2)}, [])
        with pytest.raises(InvalidInputError, match="has 2 slot.*1 slot value"):
            evaluate(("mul", ("slot",), self.SHAPE), {"x": np.ones(2)}, [1.0])

    def test_too_many_slot_values(self):
        with pytest.raises(InvalidInputError, match="has 1 slot.*2 slot value"):
            evaluate(self.SHAPE, {"x": np.ones(2)}, [1.0, 2.0])
        with pytest.raises(InvalidInputError, match="has 0 slot.*1 slot value"):
            evaluate(var("x"), {"x": np.ones(2)}, [1.0])


class TestComplexity:
    def test_ripple_preference(self):
        y2_form = parse("cos(sqrt(add(pow2(x),pow2(y))))")
        const_form = parse("cos(sqrt(add(pow2(x),400)))")
        assert complexity(y2_form) < complexity(const_form)

    def test_constant_monotone_in_nodes(self):
        assert complexity(const(3.0)) < complexity(parse("add(x,3)"))

    def test_nonint_constant_expensive(self):
        assert complexity(var("x")) < complexity(("mul", const(2.71828), var("x")))


class TestGrammar:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"binary_ops": ("pow",)},
            {"unary_ops": "sqrt"},
            {"unary_ops": ["sqrt"]},
            {"max_nodes": 2.5},
            {"max_nodes": -1},
            {"max_depth": -1},
            {"max_depth": True},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(InvalidInputError, match="grammar"):
            Grammar(**kwargs)

    def test_holds_no_variables(self):
        # the search takes its variables from the data
        with pytest.raises(TypeError):
            Grammar(variables=("q",))


class TestEnumeration:
    def test_counts_deterministic(self):
        g = Grammar()
        counts = [len(ShapeEnumerator(g, ("t",)).shapes(n)) for n in range(1, 7)]
        counts2 = [len(ShapeEnumerator(g, ("t",)).shapes(n)) for n in range(1, 7)]
        assert counts == counts2
        assert counts[0] == 1
        assert all(b > a for a, b in zip(counts, counts2[1:]))

    def test_shapes_are_canonical(self):
        g = Grammar()
        shapes = ShapeEnumerator(g, ("t",)).shapes(5)
        keys = [serialize(s) for s in shapes]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_shapes_below_one_node(self, n):
        en = ShapeEnumerator(Grammar(), ("t",))
        assert en.shapes(n) == []
        assert len(en.shapes(2)) == 6  # the enumerator still works after it

    def test_every_shape_contains_a_variable(self):
        g = Grammar()
        en = ShapeEnumerator(g, ("t",))
        for n in range(1, 6):
            for s in en.shapes(n):
                assert node_count(s) == n
                assert slot_count(s) < n

    def test_ripple_shape_present(self):
        g = Grammar()
        keys = {serialize(s) for s in ShapeEnumerator(g, ("t",)).shapes(6)}
        assert "cos(sqrt(add(pow2(t),~)))" in keys

    def test_retains_facts_of_operand_levels_only(self):
        # the enumerator keeps the facts of levels 1-6 (about 2.5 MB), not
        # those of level 7 (about 18 MB more); before it kept any facts it
        # retained 5.9 MB here (Python 3.11.7)
        tracing = tracemalloc.is_tracing()
        gc.collect()
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            enum = ShapeEnumerator(Grammar(), ("t",))
            enum.shapes(7)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert len(enum.shapes(7)) == 75423
        assert retained <= 1.5 * 5.9e6, retained

    def test_depth_and_ops_respected(self):
        g = Grammar(unary_ops=("cos",), binary_ops=("add",))
        shapes = ShapeEnumerator(g, ("t",)).shapes(3)
        for s in shapes:
            assert s[0] in ("cos", "add")


@pytest.mark.parametrize(
    "module",
    [
        m.name
        for m in pkgutil.iter_modules(hyperpolate.__path__, "hyperpolate.")
        if hasattr(importlib.import_module(m.name), "__all__")
    ],
)
def test_every_public_name_resolves(module):
    # a stale __all__ entry would otherwise fail only on ``import *``
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []
