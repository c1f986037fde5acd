"""Expression trees over a fixed operator grammar.

Expressions are immutable nested tuples:

    ("var", name)          variable leaf
    ("const", value)       literal real constant
    ("slot",)              anonymous constant slot (search shapes only)
    ("pow2"|"sqrt"|"sin"|"cos"|"exp"|"abs", child)
    ("add"|"mul", left, right)   right-nested chains, operands sorted
    ("sub"|"div", left, right)

The canonical serialization flattens add/mul chains, so
``cos(sqrt(add(pow2(x),pow2(y))))`` round-trips through :func:`parse`.
Complexity charges one point per operator or variable node; constant leaves
cost more, growing with the integer's bit length, so that removing an
arbitrary constant in favour of structure is rewarded.
"""

import ast
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "UNARY_OPS",
    "BINARY_OPS",
    "Grammar",
    "OP_COST",
    "VAR_COST",
    "CONST_BASE",
    "INT_BIT_COST",
    "NONINT_COST",
    "var",
    "const",
    "node_count",
    "expr_depth",
    "variables_of",
    "slot_count",
    "serialize",
    "parse",
    "evaluate",
    "compile_expr",
    "compile_shape",
    "substitute",
    "assign_slots",
    "canonical_simplify",
    "struct_key",
    "complexity",
    "ShapeEnumerator",
]

UNARY_OPS = ("pow2", "sqrt", "sin", "cos", "exp", "abs")
BINARY_OPS = ("add", "sub", "mul", "div")
_CHAIN_OPS = ("add", "mul")


def var(name):
    return ("var", name)


def const(value):
    return ("const", float(value))


def is_var(e):
    return e[0] == "var"


def is_const(e):
    return e[0] == "const"


def is_slot(e):
    return e[0] == "slot"


def is_leaf(e):
    return e[0] in ("var", "const", "slot")


def node_count(e):
    if is_leaf(e):
        return 1
    return 1 + sum(node_count(c) for c in e[1:])


def expr_depth(e):
    if is_leaf(e):
        return 1
    return 1 + max(expr_depth(c) for c in e[1:])


def variables_of(e):
    if is_var(e):
        return {e[1]}
    if is_leaf(e):
        return set()
    out = set()
    for c in e[1:]:
        out |= variables_of(c)
    return out


def slot_count(e):
    if is_slot(e):
        return 1
    if is_leaf(e):
        return 0
    return sum(slot_count(c) for c in e[1:])


def chain_elements(e):
    """Operands of an add/mul chain, flattening right-nesting."""
    op = e[0]
    out = [e[1]]
    rest = e[2]
    while rest[0] == op:
        out.append(rest[1])
        rest = rest[2]
    out.append(rest)
    return out


def _format_number(value):
    if value == int(value) and abs(value) < 2**53:
        return str(int(value))
    return repr(value)


def serialize(e):
    """Canonical prefix string; add/mul chains are flattened."""
    op = e[0]
    if op == "var":
        return e[1]
    if op == "const":
        return _format_number(e[1])
    if op == "slot":
        return "~"
    if op in _CHAIN_OPS:
        return f"{op}({','.join(serialize(c) for c in chain_elements(e))})"
    return f"{op}({','.join(serialize(c) for c in e[1:])})"


def struct_key(e):
    """Serialization with every constant wildcarded.

    Two expressions are structurally equivalent when their keys match.
    """
    op = e[0]
    if op == "var":
        return e[1]
    if op in ("const", "slot"):
        return "C"
    if op in _CHAIN_OPS:
        return f"{op}({','.join(struct_key(c) for c in chain_elements(e))})"
    return f"{op}({','.join(struct_key(c) for c in e[1:])})"


def _tree(node, text):
    """Expression tree of a node of ``ast.parse(text, mode="eval")``."""
    if isinstance(node, ast.Call):
        name = node.func.id if isinstance(node.func, ast.Name) else None
        if name not in UNARY_OPS + BINARY_OPS:
            func = ast.get_source_segment(text, node.func)
            raise InvalidInputError(f"unknown operator {func!r}")
        if node.keywords:
            raise InvalidInputError(f"{name} takes positional arguments only")
        args = [_tree(a, text) for a in node.args]
        if name in UNARY_OPS:
            if len(args) != 1:
                raise InvalidInputError(f"{name} takes one argument")
            return (name, args[0])
        if name in _CHAIN_OPS:
            if len(args) < 2:
                raise InvalidInputError(f"{name} takes at least two arguments")
            return _rebuild_chain(name, args)
        if len(args) != 2:
            raise InvalidInputError(f"{name} takes two arguments")
        return (name, *args)
    if isinstance(node, ast.Name):
        return var(node.id)
    return const(float(ast.get_source_segment(text, node)))


def parse(text):
    """Parse a canonical prefix string back into an expression tree.

    Grammar operators called by name, variable names and numeric literals
    as ``float`` reads them; anything else raises ``InvalidInputError``.
    """
    text = text.strip()
    try:
        return canonical_simplify(_tree(ast.parse(text, mode="eval").body, text))
    except (SyntaxError, ValueError, MemoryError, RecursionError) as exc:
        raise InvalidInputError(f"cannot parse expression: {exc}") from None


# One table for every evaluator, so that compile_expr and compile_shape apply
# the same numpy operation to each node (pow2 is a*a, not np.square).  div is
# the ufunc, so that two float constants divide by zero to inf/nan as arrays
# do, instead of raising ZeroDivisionError.
_OPS = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": np.true_divide,
    "pow2": lambda a: a * a,
    "sqrt": np.sqrt,
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "abs": np.abs,
}


def evaluate(e, env, slot_values=None):
    """Evaluate over numpy arrays; domain errors surface as nan/inf.

    ``env`` maps variable names to arrays (broadcastable); ``slot_values``
    supplies constants for slot leaves in depth-first order.
    """
    with np.errstate(all="ignore"):
        return compile_expr(e)(env, slot_values)


def compile_expr(e):
    """Compile an expression once into ``fn(env, slot_values=None)``.

    ``fn`` reads its variables from ``env`` and its slot constants from
    ``slot_values`` (depth-first order, fixed here) at call time, so one
    compiled form serves any points.  It is one closure per node, applying
    the node's ``_OPS`` entry to its children's values, left child first.
    Calls run under the caller's numpy error state; ``evaluate`` silences
    domain warnings around its call.
    """
    return _closure(e, [0])


def _closure(node, counter):
    op = node[0]
    if op == "var":
        name = node[1]
        return lambda env, slot_values=None: env[name]
    if op == "const":
        value = node[1]
        return lambda env, slot_values=None: value
    if op == "slot":
        idx = counter[0]
        counter[0] += 1
        return lambda env, slot_values=None: slot_values[idx]
    fn = _OPS.get(op)
    if fn is None:
        raise InvalidInputError(f"unknown operator {op!r}")
    a = _closure(node[1], counter)
    if len(node) == 3:
        b = _closure(node[2], counter)
        return lambda env, slot_values=None: fn(a(env, slot_values), b(env, slot_values))
    return lambda env, slot_values=None: fn(a(env, slot_values))


def compile_shape(e, env):
    """Compile a shape over fixed variable arrays.

    Returns ``(slots, at)``: the slot count and a function of the slot
    values (a sequence in depth-first order).  ``at(values)`` equals
    ``evaluate(e, env, values)`` bit for bit.  Given each slot's values as
    an (L, 1) column over 1-D variable arrays of m points, it yields the
    (L, m) table of the L value points' shape values, one row per point.
    Every slot-free subtree is evaluated once, here; a call recomputes only
    the nodes on the paths from the slots to the root, with the operations
    ``evaluate`` uses.  Calls run under the caller's numpy error state:
    unlike ``evaluate``, they do not silence domain warnings themselves.
    """
    counter = [0]
    with np.errstate(all="ignore"):
        has_slot, part = _compile(e, env, counter)
    if has_slot:
        return counter[0], part
    return 0, lambda values: part


def _compile(node, env, counter):
    """(False, value) for a slot-free node, else (True, at)."""
    op = node[0]
    if op == "var":
        return False, env[node[1]]
    if op == "const":
        return False, node[1]
    if op == "slot":
        get = operator.itemgetter(counter[0])
        counter[0] += 1
        return True, get
    fn = _OPS.get(op)
    if fn is None:
        raise InvalidInputError(f"unknown operator {op!r}")
    slot_a, a = _compile(node[1], env, counter)
    if len(node) == 2:
        return (True, lambda values: fn(a(values))) if slot_a else (False, fn(a))
    slot_b, b = _compile(node[2], env, counter)
    if slot_a and slot_b:
        return True, lambda values: fn(a(values), b(values))
    if slot_a:
        return True, lambda values: fn(a(values), b)
    if slot_b:
        return True, lambda values: fn(a, b(values))
    return False, fn(a, b)


def substitute(e, mapping):
    """Replace variables by expressions (other nodes rebuilt unchanged)."""
    if is_var(e):
        return mapping.get(e[1], e)
    if is_leaf(e):
        return e
    return (e[0],) + tuple(substitute(c, mapping) for c in e[1:])


def assign_slots(e, values):
    """Turn a shape into a literal expression, filling slots in DFS order."""
    it = iter(values)

    def rec(node):
        if is_slot(node):
            return const(next(it))
        if is_leaf(node):
            return node
        return (node[0],) + tuple(rec(c) for c in node[1:])

    return rec(e)


def _sort_key(e):
    return serialize(e)


def _rebuild_chain(op, elements):
    if len(elements) == 1:
        return elements[0]
    out = elements[-1]
    for e in reversed(elements[:-1]):
        out = (op, e, out)
    return out


# operators defined at every real argument: 0 * u folds to 0 only when u is
# built from these, variables and finite constants, since elsewhere u can be
# nan or inf where 0 is not
_EVERYWHERE_OPS = ("add", "sub", "mul", "pow2", "abs", "sin", "cos")


def _defined_everywhere(e):
    op = e[0]
    if op == "const":
        return math.isfinite(e[1])
    if op in ("var", "slot"):
        return True
    return op in _EVERYWHERE_OPS and all(_defined_everywhere(c) for c in e[1:])


def canonical_simplify(e):
    """Fold constants and trivial identities, sort commutative operands.

    Domain-changing rewrites (like pow2(sqrt(u)) -> u, 0 * sqrt(u) -> 0 or
    0 / u -> 0) are not applied.
    """
    if is_leaf(e):
        return e
    op = e[0]
    kids = [canonical_simplify(c) for c in e[1:]]
    if all(is_const(k) for k in kids) and slot_count(e) == 0:
        value = evaluate((op,) + tuple(kids), {})
        if np.isfinite(value):
            return const(float(value))
    if op in _CHAIN_OPS:
        elements = []
        for k in kids:
            if k[0] == op:
                elements.extend(chain_elements(k))
            else:
                elements.append(k)
        const_val = 0.0 if op == "add" else 1.0
        rest = []
        for el in elements:
            if is_const(el):
                const_val = const_val + el[1] if op == "add" else const_val * el[1]
            else:
                rest.append(el)
        if op == "mul" and const_val == 0.0 and all(_defined_everywhere(el) for el in rest):
            return const(0.0)
        rest.sort(key=_sort_key)
        identity = 0.0 if op == "add" else 1.0
        if const_val != identity or not rest:
            if op == "mul" and const_val == -1.0 and rest:
                # -u is described more cheaply as sub(0, u); simplifying
                # that applies -(-u) = u
                return canonical_simplify(("sub", const(0.0), _rebuild_chain(op, rest)))
            rest.append(const(const_val))
        return _rebuild_chain(op, rest)
    if op == "sub":
        a, b = kids
        if is_const(b):
            if b[1] == 0.0:
                return a
            return canonical_simplify(("add", a, const(-b[1])))
        if is_const(a) and a[1] == 0.0 and b[0] == "sub" and is_const(b[1]) and b[1][1] == 0.0:
            return b[2]  # -(-u) = u
        return ("sub", a, b)
    if op == "div":
        a, b = kids
        if is_const(b) and b[1] == 1.0:
            return a
        return ("div", a, b)
    (child,) = kids
    if op == "sqrt" and child[0] == "pow2":
        return canonical_simplify(("abs", child[1]))
    if op == "pow2" and child[0] == "abs":
        return ("pow2", child[1])
    if op == "abs" and child[0] in ("abs", "pow2", "sqrt", "exp"):
        return child
    if op == "cos" and child[0] == "abs":
        return ("cos", child[1])
    if op in ("pow2", "abs", "cos") and child[0] == "sub":
        # even in the argument: normalize sub(0,u) away, order operands
        a, b = child[1], child[2]
        if is_const(a) and a[1] == 0.0:
            return canonical_simplify((op, b))
        if _sort_key(b) < _sort_key(a):
            return (op, ("sub", b, a))
    return (op, child)


# Node costs of the description-length score, by which the search ranks and
# from which its pruning (the per-shape lower bound and the level stop) is
# derived.  Integer constants cost CONST_BASE + INT_BIT_COST * ceil(log2(|c|+1));
# other reals pay a flat surcharge.
OP_COST = 1.0
VAR_COST = 1.0
CONST_BASE = 1.0
INT_BIT_COST = 2.0
NONINT_COST = 64.0


def _const_cost(value):
    if value == int(value) and abs(value) < 2**53:
        return CONST_BASE + INT_BIT_COST * math.ceil(math.log2(abs(value) + 1))
    return CONST_BASE + NONINT_COST


def complexity(e):
    """Description-length score of an expression (lower is simpler)."""
    op = e[0]
    if op == "var":
        return VAR_COST
    if op == "const":
        return _const_cost(e[1])
    if op == "slot":
        return CONST_BASE
    return OP_COST + sum(complexity(c) for c in e[1:])


@dataclass(frozen=True)
class Grammar:
    """Search-space definition for the symbolic fit."""

    variables: tuple = ("t",)
    unary_ops: tuple = UNARY_OPS
    binary_ops: tuple = BINARY_OPS
    max_nodes: int = 9
    max_depth: int = 8

    def __post_init__(self):
        if not self.variables:
            raise InvalidInputError("grammar needs at least one variable")
        if not (self.unary_ops or self.binary_ops):
            raise InvalidInputError("grammar needs at least one operator")


def _chain_has_bare_slot(e):
    if e[0] in _CHAIN_OPS:
        return any(is_slot(el) for el in chain_elements(e))
    return False


class ShapeEnumerator:
    """Exhaustive canonical enumeration of expression shapes.

    Shapes contain anonymous constant slots; commutative chains are kept
    sorted with at most one bare-slot operand (last position), subtraction
    and division never carry a constant on a side a cheaper form could
    absorb, and even/nonnegative compositions (cos(abs u), sqrt(pow2 u), ...)
    are pruned.  Equal chain operands are only allowed when they contain a
    slot, since slot-free duplicates fold to a smaller shape.
    """

    def __init__(self, grammar):
        self.grammar = grammar
        self._memo = {}

    def shapes(self, n):
        """All canonical var-containing shapes with exactly n nodes."""
        if n in self._memo:
            return self._memo[n]
        g = self.grammar
        out = []
        if n == 1:
            out = [var(v) for v in g.variables]
        else:
            for op in g.unary_ops:
                for child in self.shapes(n - 1):
                    if self._unary_ok(op, child):
                        out.append((op, child))
            if "sub" in g.binary_ops:
                out.extend(self._sub_div("sub", n))
            if "div" in g.binary_ops:
                out.extend(self._sub_div("div", n))
            for op in _CHAIN_OPS:
                if op in g.binary_ops:
                    out.extend(self._chains(op, n))
        out.sort(key=_sort_key)
        self._memo[n] = out
        return out

    @staticmethod
    def _unary_ok(op, child):
        c = child[0]
        if op == "pow2" and c in ("abs", "sqrt"):
            return False
        if op == "sqrt" and c == "pow2":
            return False
        if op == "abs" and c in ("abs", "pow2", "sqrt", "exp"):
            return False
        if op == "cos" and c == "abs":
            return False
        if op in ("pow2", "abs", "cos") and c == "sub":
            # even argument: f(a-b) = f(b-a), and f(c-u) duplicates f(u+c)
            a, b = child[1], child[2]
            if is_slot(a) or _sort_key(b) < _sort_key(a):
                return False
        return True

    def _operands(self, size, allow_slot):
        ops = list(self.shapes(size))
        if allow_slot and size == 1:
            ops.append(("slot",))
        return ops

    def _sub_div(self, op, n):
        out = []
        for left_size in range(1, n - 1):
            right_size = n - 1 - left_size
            for a in self._operands(left_size, allow_slot=True):
                if a[0] == op:
                    continue
                if op == "div" and a[0] == "mul" and _chain_has_bare_slot(a):
                    continue  # (c*u)/b duplicates mul(c, div(u, b))
                for b in self.shapes(right_size):
                    if b[0] == op:
                        continue
                    if op == "sub" and _chain_has_bare_slot(b):
                        continue  # a-(u+c) and a-(c*u): the constant hoists out
                    if op == "div" and b[0] == "mul" and _chain_has_bare_slot(b):
                        continue  # a/(c*u) duplicates mul(c, div(a, u))
                    if a == b and slot_count(a) == 0:
                        continue
                    out.append((op, a, b))
        return out

    def _chains(self, op, n):
        """Sorted chains with >= 2 operands and total node count n.

        A chain of k operands with sizes s_i uses sum(s_i) + k - 1 nodes.
        """
        banned = {op, "sub"} if op == "add" else {op, "div"}
        out = []

        def extend(elements, used, min_key, has_bare_slot):
            if len(elements) >= 2 and used == n:
                out.append(_rebuild_chain(op, list(elements)))
                return
            # adding one operand of `size` costs size + 1 nodes
            for size in range(1, n - used):
                for cand in self._operands(size, allow_slot=not has_bare_slot):
                    if cand[0] in banned:
                        continue
                    key = _sort_key(cand)
                    if key < min_key:
                        continue
                    if cand == elements[-1] and slot_count(cand) == 0:
                        continue
                    extend(
                        elements + [cand],
                        used + size + 1,
                        key,
                        has_bare_slot or is_slot(cand),
                    )

        for size in range(1, n - 1):
            for first in self._operands(size, allow_slot=False):
                if first[0] in banned:
                    continue
                extend([first], size, _sort_key(first), False)
        return out
