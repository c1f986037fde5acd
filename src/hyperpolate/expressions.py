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
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

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
    "compile_shape",
    "compile_interval",
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
    kids = chain_elements(e) if e[0] in _CHAIN_OPS else e[1:]
    return sum(slot_count(c) for c in kids)


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


# The point operation of each operator.  _walk applies it to every node of
# evaluate and compile_shape, and to the slot-free subtrees of
# compile_interval, so all three agree bit for bit (pow2 is a*a, not
# np.square); so do the grouped rows of _run_groups.
# div is the ufunc, so that two float constants divide by zero to inf/nan as
# arrays do, instead of raising ZeroDivisionError.
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
    supplies constants for slot leaves in depth-first order, one per slot,
    else ``InvalidInputError`` names the slot count.  One eager ``_walk``,
    with the operations of every compiled form.
    """
    counter = [0]
    with np.errstate(all="ignore"):
        _, value = _walk(e, env, slot_values, _OPS, counter)
    given = 0 if slot_values is None else len(slot_values)
    if given != counter[0]:
        raise InvalidInputError(
            f"expression has {counter[0]} slot(s), but {given} slot value(s) were given"
        )
    return value


def compile_shape(e, env):
    """Compile a shape over fixed variable arrays.

    Returns ``(slots, at)``: the slot count and a function of the slot
    values (a sequence in depth-first order).  ``at(values)`` equals
    ``evaluate(e, env, values)`` bit for bit.  Given each slot's values as
    an (L, 1) column over 1-D variable arrays of m points, it yields the
    (L, m) table of the L value points' shape values, one row per point.
    Every slot-free subtree is evaluated once, here; a call recomputes only
    the nodes on the paths from the slots to the root (see ``_walk``).
    Calls run under the caller's numpy error state: unlike ``evaluate``,
    they do not silence domain warnings themselves.
    """
    return _compile_over(e, env, _OPS)


def _compile_over(e, env, ops):
    """``compile_shape`` (``ops`` is ``_OPS``) or ``compile_interval``."""
    counter = [0]
    with np.errstate(all="ignore"):
        late, part = _walk(e, env, None, ops, counter)
    if late:
        return counter[0], part
    if ops is _INTERVAL_OPS:
        part = (part, part)
    return 0, lambda values: part


def _walk(node, env, values, ops, counter):
    """The one evaluator: (False, value) for a node known during the walk,
    else (True, at), where ``at`` computes it from the slot values at call
    time.

    Variables come from ``env``.  Slots, numbered depth-first by
    ``counter``, come from ``values``, or at call time when it is None or
    too short.  Known subtrees are computed with ``_OPS``; other nodes
    apply their ``ops`` entry to their children's values, left child first.
    With ``_INTERVAL_OPS`` a known child enters as the interval (v, v), and
    a chain is enclosed whole (``_enclose_chain``).
    """
    op = node[0]
    if op == "var":
        return False, env[node[1]]
    if op == "const":
        return False, node[1]
    if op == "slot":
        idx = counter[0]
        counter[0] += 1
        if values is not None and idx < len(values):
            return False, values[idx]
        return True, operator.itemgetter(idx)
    fn = ops.get(op)
    if fn is None:
        raise InvalidInputError(f"unknown operator {op!r}")
    if ops is _INTERVAL_OPS and op in _CHAIN_OPS:
        return _enclose_chain(node, env, values, counter)
    late_a, a = _walk(node[1], env, values, ops, counter)
    if len(node) == 2:
        return (True, lambda x: fn(a(x))) if late_a else (False, _OPS[op](a))
    late_b, b = _walk(node[2], env, values, ops, counter)
    if not (late_a or late_b):
        return False, _OPS[op](a, b)
    if ops is _INTERVAL_OPS:
        a, b = (a if late_a else (a, a)), (b if late_b else (b, b))
    if not late_b:
        return True, lambda x: fn(a(x), b)
    if not late_a:
        return True, lambda x: fn(a, b(x))
    return True, lambda x: fn(a(x), b(x))


def _enclose_chain(node, env, values, counter):
    """``_walk`` of an add/mul chain with ``_INTERVAL_OPS``: the chain is
    enclosed whole, its known operands first, as degenerate intervals."""
    op = node[0]
    parts = [_walk(el, env, values, _INTERVAL_OPS, counter) for el in chain_elements(node)]
    if not any(late for late, _ in parts):
        # right-nested, as the tree is
        value = parts[-1][1]
        for _, v in reversed(parts[:-1]):
            value = _OPS[op](v, value)
        return False, value
    fn = _INTERVAL_OPS[op]
    fixed = [(v, v) for late, v in parts if not late]
    moving = [at for late, at in parts if late]
    return True, lambda x: fn(*fixed, *(at(x) for at in moving))


def _grouped(nodes, ops=_OPS):
    """Executor groups (see ``_run_groups``) of operator nodes.

    ``nodes`` maps ``(rank, op, tables)`` to a list of ``(row, *operand
    rows)``: the nodes that apply ``op`` to operands in ``tables[i]`` (one
    table index per operand), each with the output row it fills.  Groups run
    in key order, so a rank that orders them (a node's height) lets a group
    read rows that earlier groups wrote.  ``ops`` gives each operator's
    operation: ``_OPS``, or ``_INTERVAL_OPS`` over interval tables.
    """
    groups = []
    for (_, op, tables), members in sorted(nodes.items()):
        rows = [np.array(col, dtype=np.intp) for col in zip(*members)]
        groups.append((rows[0], ops[op], list(zip(tables, rows[1:]))))
    return groups


def _run_groups(groups, tables, out):
    """The one grouped executor, of ``_FamilyProgram`` and ``_ShapeValues``:
    for each group, gather each operand's rows from its table, apply the
    operation once to the stacked rows, and scatter the results into
    ``out``.  An element-wise operation on stacked rows gives each row's
    values bit for bit, so a node's values equal ``_walk``'s.  Runs under the
    caller's numpy error state."""
    for rows, fn, operands in groups:
        out[rows] = fn(*[tables[t][kids] for t, kids in operands])


class _Intervals:
    """(lo, hi) rows as one table of ``_run_groups``: indexing gathers an
    interval, and assigning an interval scatters both ends."""

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def __getitem__(self, rows):
        return self.lo[rows], self.hi[rows]

    def __setitem__(self, rows, interval):
        self.lo[rows], self.hi[rows] = interval


class _Degenerate:
    """A table of value rows read as degenerate intervals (v, v), as
    ``_walk`` enters a known operand of ``compile_interval``."""

    def __init__(self, rows):
        self.rows = rows

    def __getitem__(self, rows):
        values = self.rows[rows]
        return values, values


# Cells (samples x rows) that a _ShapeValues table holds at most: 8 MiB of
# float64, where ripple1d's stored levels take about 0.5 MiB.
_TABLE_CELLS = 1 << 20
# Cells that a pooled pass holds in one array: the interval registers of one
# _ShapeValues.enclose run, and the rows of the lanes that the fitter steps
# together (symbolic._ShapeFitter.fit_all): 1 MiB of float64 each.
_POOL_CELLS = 1 << 17
# The slot path of the bare slot (see _ShapeValues.slot_paths).
_SLOT_PATH = (0, None, (), 0, None)


class _ShapeValues:
    """Value rows of the slot-free shapes of a ``ShapeEnumerator``'s operand
    levels over fixed variable arrays, from which the shapes of a newer level
    are valued a block at a time.

    Every shape is an operator applied to shapes of lower levels (a chain's
    right-nested tail is one), so a shape whose operands have values here is
    slot-free, and its values are its operator applied once to theirs, as
    ``_walk`` applies it, left child first.  The variables' rows are the
    first table.  ``add_level`` takes each level once it is an operand
    level, and keeps each shape's recipe: its operator and its operands'
    rows.  Only n-node unary shapes read operands of n - 1 nodes (a binary
    shape or chain has operands of at most n - 2), so a block computes those
    operands' values from their recipes, and a level's rows are stored when
    the next level is taken: one preallocated (rows, samples) array per
    level, with the shape-to-row index ``_where`` beside them.  A shape
    without values for its operands (it has a slot, or an operand is nan or
    was not stored) is left to the caller.  The tables hold at most
    ``_TABLE_CELLS`` cells: the first level that would go above it is not
    stored, nor any later one.

    The stored rows also enclose shapes with one slot (``slot_paths`` and
    ``enclose``): such a shape is its operator applied to known operands
    and to the one operand that holds the slot, down to the slot itself, so
    its ``compile_interval`` enclosure over a box is the operators'
    ``_INTERVAL_OPS`` entries applied along that path to the known
    operands' rows, as degenerate intervals.
    """

    def __init__(self, env):
        names = list(env)
        rows = np.array([env[name] for name in names], dtype=float)
        self._samples = rows.shape[1]
        self._tables, self._where, self._cells, self._open = [], {}, 0, True
        # shape -> (group key, operand rows), for the newest level taken
        self._recipes = {}
        if self._room(len(names)):
            self._store([var(name) for name in names], rows)

    def add_level(self, shapes, skip=()):
        """Store the rows of the level taken before, from its recipes, and
        keep the recipes of the ``shapes`` (a level, once it is an operand
        level) whose operands have rows here, except those in ``skip``.  The
        search skips its shapes known to be nan at some sample: every shape
        built on one is nan there too, and is not fitted."""
        recipes, self._recipes = self._recipes, {}
        if not (self._open and self._room(len(recipes))):
            return
        if recipes:
            nodes = {}
            for row, (key, kids) in enumerate(recipes.values()):
                nodes.setdefault(key, []).append((row, *kids))
            rows = self._compute(_grouped(nodes), len(recipes), self._tables)
            self._store(list(recipes), rows)
        where, keys = self._where, {}
        for shape in shapes:
            if shape in skip:
                continue
            refs = [where.get(kid) for kid in shape[1:]]
            if None not in refs:
                tables, kids = zip(*refs)
                key = (0, shape[0], tables)
                self._recipes[shape] = (keys.setdefault(key, key), kids)

    def values(self, shapes):
        """``(pos, vals)``: the positions in ``shapes`` of those whose
        operands have values here, and their values, one row each."""
        pos, groups, inner_groups, inner_rows = self._plan(shapes)
        inner = self._compute(inner_groups, inner_rows, self._tables)
        return pos, self._compute(groups, len(pos), [*self._tables, inner])

    def slot_paths(self, shapes):
        """The slot path of each of the ``shapes``, or None: a shape has one
        when it holds one slot and every operand off the way from it down to
        the slot has a stored row here.  A path is a node ``(height, key,
        rows, at, below)``: ``below`` is the path of the operand that holds
        the slot (``_SLOT_PATH`` for the slot itself, of height 0), ``key``
        the executor group key ``(height, op, tables)`` with table -1 for
        that operand, and ``rows`` the operand rows with ``at`` the position
        of that operand's.  The arguments are in ``compile_interval``'s
        order: a chain's known elements first (``_enclose_chain``), else
        the operands' own."""
        where, memo = self._where, {_SLOT: _SLOT_PATH}

        def path(shape):
            node = memo.get(shape, False)
            if node is not False:
                return node
            op, node = shape[0], None
            if op != "var":
                kids = chain_elements(shape) if op in _CHAIN_OPS else shape[1:]
                refs = [where.get(kid) for kid in kids]
                if refs.count(None) == 1:
                    at = refs.index(None)
                    below = path(kids[at])
                    if below is not None:
                        if op in _CHAIN_OPS:
                            del refs[at]
                            refs.append(None)
                            at = len(refs) - 1
                        tables = tuple(-1 if r is None else r[0] for r in refs)
                        rows = tuple(0 if r is None else r[1] for r in refs)
                        height = below[0] + 1
                        node = (height, (height, op, tables), rows, at, below)
            memo[shape] = node
            return node

        return [path(shape) for shape in shapes]

    def enclose(self, paths, lo, hi, reduce):
        """``reduce(v_lo, v_hi)`` of the enclosures of one-slot shapes, given
        by their ``slot_paths``, each over the box ``[lo[i], hi[i]]``, as
        one array: ``v_lo`` and ``v_hi`` hold a row per box, bit for bit the
        rows that ``compile_interval``'s ``at`` gives each shape over that
        box, but for the sign of a nan, which numpy's loops over strided and
        over stacked rows may set apart.  The boxes are taken in runs of at most ``_POOL_CELLS`` cells of
        registers, one per distinct box and one per path node and box, so
        that boxes equal between shapes share the nodes below them; each
        run is one gather, operation and scatter per height, operator and
        operand tables (``_run_groups`` with ``_INTERVAL_OPS``)."""
        limit = max(2, _POOL_CELLS // max(self._samples, 1))
        tables = [_Degenerate(t) for t in self._tables]
        lo, hi = lo.tolist(), hi.tolist()
        out, start = [], 0
        while start < len(paths):
            nodes, regs, boxes, tops = {}, {}, {}, []

            def reg(node, box):
                if not node[0]:
                    return box
                key = (id(node), box)
                row = regs.get(key)
                if row is None:
                    below = reg(node[4], box)
                    row = regs[key] = len(regs) + len(boxes)
                    rows, at = node[2], node[3]
                    nodes.setdefault(node[1], []).append((row, *rows[:at], below, *rows[at + 1:]))
                return row

            end = start
            while end < len(paths) and len(regs) + len(boxes) < limit:
                box = (lo[end], hi[end])
                if box not in boxes:
                    boxes[box] = len(regs) + len(boxes)
                tops.append(reg(paths[end], boxes[box]))
                end += 1
            size = len(regs) + len(boxes)
            registers = _Intervals(np.empty((size, self._samples)), np.empty((size, self._samples)))
            where = np.fromiter(boxes.values(), dtype=np.intp, count=len(boxes))
            ends = np.array(list(boxes), dtype=float).reshape(-1, 2)
            registers[where] = ends[:, :1], ends[:, 1:]
            with np.errstate(all="ignore"):
                _run_groups(_grouped(nodes, _INTERVAL_OPS), [*tables, registers], registers)
                out.append(reduce(*registers[np.array(tops, dtype=np.intp)]))
            start = end
        return np.concatenate(out) if out else np.zeros(0, dtype=bool)

    def _room(self, rows):
        """Whether ``rows`` more rows fit in ``_TABLE_CELLS``; once they do
        not, no level is stored."""
        self._open = self._cells + rows * self._samples <= _TABLE_CELLS
        return self._open

    def _store(self, shapes, rows):
        table = len(self._tables)
        self._tables.append(rows)
        self._cells += rows.size
        for row, shape in enumerate(shapes):
            self._where[shape] = (table, row)

    def _plan(self, shapes):
        """The positions of the shapes to value and their executor groups,
        one per operator and operand tables, and the groups and number of
        the inner rows: the values of operands of the newest level taken,
        from their recipes."""
        where, recipes = self._where, self._recipes
        inner_table = len(self._tables)
        pos, nodes, inner = [], {}, {}
        count = itertools.count()

        def computed(kid):
            recipe = recipes.get(kid)
            if recipe is None:
                return None
            row = next(count)
            inner.setdefault(recipe[0], []).append((row, *recipe[1]))
            return inner_table, row

        for i, shape in enumerate(shapes):
            if len(shape) < 2:
                continue
            # a variable's name is no operand: it has neither row nor recipe
            a = where.get(shape[1]) or computed(shape[1])
            if a is None:
                continue
            if len(shape) == 2:
                key, row = (0, shape[0], a[:1]), (len(pos), a[1])
            else:
                b = where.get(shape[2]) or computed(shape[2])
                if b is None:
                    continue
                key, row = (0, shape[0], (a[0], b[0])), (len(pos), a[1], b[1])
            nodes.setdefault(key, []).append(row)
            pos.append(i)
        pos = np.array(pos, dtype=np.intp)
        return pos, _grouped(nodes), _grouped(inner), sum(map(len, inner.values()))

    def _compute(self, groups, rows, tables):
        out = np.empty((rows, self._samples))
        with np.errstate(all="ignore"):
            _run_groups(groups, tables, out)
        return out


# Interval counterparts of _OPS, for compile_interval.  An interval is a pair
# (lo, hi) of broadcastable float arrays over the extended reals; nan in an
# endpoint marks an empty interval: every value there is nan.  Each operation
# returns an enclosure of every non-nan value that the numpy operation gives
# on floats in its operand intervals, in every order of a chain's operands:
#
# * every result is widened outward by _REL of its size and at least _TINY
#   (underflow), far above numpy's rounding (1e-12 is about 4500 ulp);
# * add/sub widen by _REL of the sum of their operands' magnitudes, which
#   bounds the rounding of any order of the sum: canonical_simplify may
#   re-sort a chain once a slot is a number;
# * mul widens by _REL of the product plus _TINY times the product of the
#   operand magnitudes (at least 1 each), which bounds any order's rounding
#   with underflow; above _HUGE some order may overflow, and the result is
#   the whole line;
# * sin and cos add _TRIG per unit of argument magnitude (at least 1), which
#   covers numpy's error near their zeros and at large arguments;
# * a divisor interval that holds 0 (of either sign) or an infinite endpoint
#   gives the whole line, so the sign of a zero never matters.
_REL = 1e-12
_TINY = 1e-300
_HUGE = 1e290
_TRIG = 1e-15
# sin/cos extremum tests work in turns of 2 pi, with slack for the rounding of
# x / (2 pi); beyond _TRIG_WIDE the argument is not resolved: [-1, 1]
_TURN_SLACK = 1e-6
_TRIG_WIDE = 1e9


def _mag(x):
    """Largest magnitude in an interval (nan when empty)."""
    return np.maximum(-x[0], x[1])


def _outward(lo, hi, pad=_TINY):
    """[lo, hi] widened by _REL of each endpoint and ``pad``; infinite
    endpoints stay as they are."""
    return (
        np.minimum(lo * (1.0 - _REL), lo * (1.0 + _REL)) - pad,
        np.maximum(hi * (1.0 - _REL), hi * (1.0 + _REL)) + pad,
    )


def _whole_where(mask, lo, hi):
    return np.where(mask, -np.inf, lo), np.where(mask, np.inf, hi)


def _iadd(*xs):
    lo, hi = xs[0]
    scale = _mag(xs[0])
    for x in xs[1:]:
        lo = lo + x[0]
        hi = hi + x[1]
        scale = scale + _mag(x)
    pad = scale * _REL + _TINY
    return _whole_where(scale > _HUGE, lo - pad, hi + pad)


def _isub(x, y):
    return _iadd(x, (-y[1], -y[0]))


def _imul(*xs):
    lo, hi = xs[0]
    scale = np.maximum(_mag(xs[0]), 1.0)
    for a, b in xs[1:]:
        p, q, r, s = lo * a, lo * b, hi * a, hi * b
        lo = np.minimum(np.minimum(p, q), np.minimum(r, s))
        hi = np.maximum(np.maximum(p, q), np.maximum(r, s))
        scale = scale * np.maximum(_mag((a, b)), 1.0)
    lo, hi = _outward(lo, hi, scale * _TINY)
    return _whole_where(scale > _HUGE, lo, hi)


def _idiv(x, y):
    (a, b), (c, d) = x, y
    p, q, r, s = a / c, a / d, b / c, b / d
    lo, hi = _outward(
        np.minimum(np.minimum(p, q), np.minimum(r, s)),
        np.maximum(np.maximum(p, q), np.maximum(r, s)),
    )
    return _whole_where(((c <= 0) & (d >= 0)) | (_mag(x) + _mag(y) == np.inf), lo, hi)


def _iabs(x):
    # exact: no rounding to cover
    return np.maximum(np.maximum(x[0], -x[1]), 0.0), _mag(x)


def _ipow2(x):
    low, high = _iabs(x)
    return _outward(low * low, high * high)


def _isqrt(x):
    # an upper end below 0 gives nan there: empty
    return _outward(np.sqrt(np.maximum(x[0], 0.0)), np.sqrt(x[1]))


def _iexp(x):
    return _outward(np.exp(x[0]), np.exp(x[1]))


def _periodic(fn, peak, x):
    """sin or cos over an interval: ``fn`` has its maxima at peak + k turns
    and its minima half a turn further."""
    lo, hi = x
    f_lo, f_hi = fn(lo), fn(hi)
    low, high = np.minimum(f_lo, f_hi), np.maximum(f_lo, f_hi)
    turn_lo = lo * (0.5 / math.pi) - peak
    turn_hi = hi * (0.5 / math.pi) - peak
    has_max = np.floor(turn_hi + _TURN_SLACK) > np.floor(turn_lo - _TURN_SLACK)
    has_min = np.floor(turn_hi + (0.5 + _TURN_SLACK)) > np.floor(turn_lo + (0.5 - _TURN_SLACK))
    size = _mag(x)
    wide = size > _TRIG_WIDE
    high = np.where(has_max | wide, 1.0, high)
    low = np.where(has_min | wide, -1.0, low)
    return _outward(low, high, np.maximum(size, 1.0) * _TRIG)


_INTERVAL_OPS = {
    "add": _iadd,
    "sub": _isub,
    "mul": _imul,
    "div": _idiv,
    "pow2": _ipow2,
    "sqrt": _isqrt,
    "sin": lambda x: _periodic(np.sin, 0.25, x),
    "cos": lambda x: _periodic(np.cos, 0.0, x),
    "exp": _iexp,
    "abs": _iabs,
}


def compile_interval(e, env):
    """Interval counterpart of ``compile_shape``.

    Returns ``(slots, at)``: the slot count and a function of one (lo, hi)
    interval per slot, in depth-first order.  ``at(boxes)`` gives a (lo, hi)
    pair that encloses, at each point, every non-nan value of ``evaluate(e,
    env, values)`` for slot values inside the boxes, and also of the
    expression that ``canonical_simplify(assign_slots(e, values))`` makes of
    it, whose chains may be re-sorted (see ``_INTERVAL_OPS``).  Given each
    slot's interval as (B, 1) columns over 1-D variable arrays of m points,
    it yields (B, m) arrays, one row per box.  The same walk as
    ``compile_shape``: every slot-free subtree is evaluated once, here, as
    points with ``_OPS``; chains are enclosed whole (see ``_walk``).  Calls
    run under the caller's numpy error state.
    """
    return _compile_over(e, env, _INTERVAL_OPS)


def _map_leaves(e, fn):
    """``e`` rebuilt with each leaf replaced by ``fn(leaf)``, called in DFS
    order."""
    if is_leaf(e):
        return fn(e)
    return (e[0],) + tuple(_map_leaves(c, fn) for c in e[1:])


def substitute(e, mapping):
    """Replace variables by expressions (other nodes rebuilt unchanged)."""
    return _map_leaves(e, lambda node: mapping.get(node[1], node) if is_var(node) else node)


def assign_slots(e, values):
    """Turn a shape into a literal expression, filling slots in DFS order.

    A number fills its slot as a constant leaf; an expression tree (a
    tuple) is inserted as it is.
    """
    it = iter(values)

    def fill(node):
        if not is_slot(node):
            return node
        value = next(it)
        return value if isinstance(value, tuple) else const(value)

    return _map_leaves(e, fill)


def _split_constants(e):
    """``(shape, values)``: ``e`` with each constant leaf made a slot, and
    the constants in DFS order; ``assign_slots(shape, values) == e``."""
    values = []

    def take(node):
        if not is_const(node):
            return node
        values.append(node[1])
        return ("slot",)

    return _map_leaves(e, take), values


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
    if e[0] not in _CHAIN_OPS:
        return _simplify_node(e, [canonical_simplify(c) for c in e[1:]])
    # the right spine of a chain is simplified bottom-up in a loop, node by
    # node as the recursion would, so that a chain of any length simplifies
    spine = [e]
    while spine[-1][2][0] == e[0]:
        spine.append(spine[-1][2])
    out = canonical_simplify(spine[-1][2])
    for node in reversed(spine):
        out = _simplify_node(node, [canonical_simplify(node[1]), out])
    return out


def _simplify_node(e, kids):
    """``canonical_simplify`` of a non-leaf node whose children simplify to
    ``kids``."""
    op = e[0]
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
    """Search-space definition for the symbolic fit: its operators and
    sizes.  The variables come from the data (see ``ShapeEnumerator``)."""

    unary_ops: tuple = UNARY_OPS
    binary_ops: tuple = BINARY_OPS
    max_nodes: int = 9
    max_depth: int = 8

    def __post_init__(self):
        for name, known in (("unary_ops", UNARY_OPS), ("binary_ops", BINARY_OPS)):
            ops = getattr(self, name)
            if not isinstance(ops, tuple) or not all(op in known for op in ops):
                raise InvalidInputError(
                    f"grammar {name} must be a tuple of names from {known}, got {ops!r}"
                )
        for name in ("max_nodes", "max_depth"):
            size = getattr(self, name)
            if not _is_count(size):
                raise InvalidInputError(
                    f"grammar {name} must be a non-negative integer, got {size!r}"
                )
        if not (self.unary_ops or self.binary_ops):
            raise InvalidInputError("grammar needs at least one operator")


def _is_count(value):
    """True for a non-negative integer (Python or numpy) that is not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, np.integer)) and value >= 0


def _chain_has_bare_slot(e):
    if e[0] in _CHAIN_OPS:
        return any(is_slot(el) for el in chain_elements(e))
    return False


def _operands_of(e):
    """The operands that a shape is built from: a chain's elements, an
    operator's children, none for a leaf."""
    if e[0] in _CHAIN_OPS:
        return chain_elements(e)
    return () if is_leaf(e) else e[1:]


# The slot operand of the shapes that the enumerator builds.
_SLOT = ("slot",)


class _Counts(NamedTuple):
    """What the search's depth filter and score bound read of a shape, built
    from its operands' facts.

    Its counts of nodes by kind give the strict search's score bound
    (``symbolic._shape_lower_bound``); the rest of its nodes are variables.
    ``lhs_slots`` counts the slots that are sub's left operand, where a
    constant 0 survives folding.
    """

    depth: int  # expr_depth(shape)
    slots: int  # slot_count(shape)
    operators: int
    lhs_slots: int


class _Facts(NamedTuple):
    """A shape's ``_Counts`` and its serialization key, which the enumerator
    sorts and prunes by."""

    key: str  # serialize(shape)
    depth: int
    slots: int
    operators: int
    lhs_slots: int


_SLOT_FACTS = _Facts("~", 1, 1, 0, 0)
_VAR_COUNTS = _Counts(1, 0, 0, 0)


class ShapeEnumerator:
    """Exhaustive canonical enumeration of expression shapes.

    Shapes contain anonymous constant slots; commutative chains are kept
    sorted with at most one bare-slot operand (last position), subtraction
    and division never carry a constant on a side a cheaper form could
    absorb, and even/nonnegative compositions (cos(abs u), sqrt(pow2 u), ...)
    are pruned.  Equal chain operands are only allowed when they contain a
    slot, since slot-free duplicates fold to a smaller shape.  The variable
    leaves are ``variables``, a tuple of names; the grammar gives the rest.

    These pruning rules mirror ``canonical_simplify``'s rewrites and chain
    elements are sorted by key, so every shape built is a
    ``canonical_simplify`` fixpoint (``TestShapeFacts`` checks every shape up
    to 7 nodes over one variable and 6 over two, under three grammars).  The
    search relies on it: a slot-free shape is its own fitted expression.

    Each shape is built from operands of lower levels, and its facts
    (``_Facts``: serialization key, depth, slot count and the node counts
    that the strict search's score bound prices) are built from theirs in
    O(1) per operand, without walking its tree: a key is ``op(ka,kb)``, or
    a chain's element keys joined, since a chain never holds its own op.
    Only the facts of levels that are operands of a built level are kept,
    keyed by shape (levels 1-6 of 7 over one variable: about 2.5 MB, where
    level 7's would add about 18 MB); ``_facts_of`` composes those of a
    newer shape when asked, ``_counts_of`` its counts without the key, and
    a level is sorted by keys composed so.
    """

    def __init__(self, grammar, variables):
        self.grammar = grammar
        self.variables = variables
        self._memo = {}
        self._facts = {_SLOT: _SLOT_FACTS}
        self._operand_levels = 0  # levels 1.. whose facts are in _facts

    def shapes(self, n):
        """All canonical var-containing shapes with exactly n nodes (none
        for n < 1)."""
        if n < 1:
            return []
        if n in self._memo:
            return self._memo[n]
        # the levels below n are this level's operands
        while self._operand_levels < n - 1:
            level = self._operand_levels + 1
            for shape in self.shapes(level):
                self._facts[shape] = self._facts_of(shape)
            self._operand_levels = level
        g = self.grammar
        out = []
        if n == 1:
            out = [var(v) for v in self.variables]
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
        out.sort(key=self._key_of)
        self._memo[n] = out
        return out

    def _key_of(self, shape):
        """``serialize(shape)``, from its operands' keys."""
        op = shape[0]
        if op == "var":
            return shape[1]
        facts = self._facts
        if op in _CHAIN_OPS:
            return f"{op}({','.join([facts[el].key for el in chain_elements(shape)])})"
        if len(shape) == 2:
            return f"{op}({facts[shape[1]].key})"
        return f"{op}({facts[shape[1]].key},{facts[shape[2]].key})"

    def _facts_of(self, shape):
        """``_Facts`` of a shape that this enumerator built, from the facts
        of its operands, which must be of operand levels."""
        return _Facts(self._key_of(shape), *self._counts_of(shape))

    def _counts_of(self, shape):
        """``_Counts`` of a shape that this enumerator built, from the facts
        of its operands, which must be of operand levels; unlike
        ``_facts_of``, it composes no key."""
        op = shape[0]
        if op == "var":
            return _VAR_COUNTS
        facts = self._facts
        if len(shape) == 2:
            k = facts[shape[1]]
            return _Counts(k.depth + 1, k.slots, k.operators + 1, k.lhs_slots)
        if op in _CHAIN_OPS:
            elements = chain_elements(shape)
            last = len(elements) - 1
            depth = slots = lhs_slots = 0
            operators = last
            for j, el in enumerate(elements):
                k = facts[el]
                # element j hangs j + 1 spine nodes deep, the last one j
                depth = max(depth, j + (j < last) + k.depth)
                slots += k.slots
                operators += k.operators
                lhs_slots += k.lhs_slots
            return _Counts(depth, slots, operators, lhs_slots)
        a = facts[shape[1]]
        b = facts[shape[2]]
        return _Counts(
            1 + max(a.depth, b.depth),
            a.slots + b.slots,
            1 + a.operators + b.operators,
            a.lhs_slots + b.lhs_slots + (op == "sub" and is_slot(shape[1])),
        )

    def _unary_ok(self, op, child):
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
            if is_slot(a) or self._facts[b].key < self._facts[a].key:
                return False
        return True

    def _operands(self, size, allow_slot):
        """The shapes of level ``size`` with their facts, and the slot when
        ``allow_slot`` and ``size`` is 1."""
        facts = self._facts
        ops = [(shape, facts[shape]) for shape in self.shapes(size)]
        if allow_slot and size == 1:
            ops.append((_SLOT, _SLOT_FACTS))
        return ops

    def _sub_div(self, op, n):
        out = []
        for left_size in range(1, n - 1):
            right_size = n - 1 - left_size
            # the right operands do not depend on the left one
            rights = []
            for b, fb in self._operands(right_size, allow_slot=False):
                if b[0] == op:
                    continue
                if op == "sub" and _chain_has_bare_slot(b):
                    continue  # a-(u+c) and a-(c*u): the constant hoists out
                if op == "div" and b[0] == "mul" and _chain_has_bare_slot(b):
                    continue  # a/(c*u) duplicates mul(c, div(a, u))
                rights.append((b, fb))
            for a, fa in self._operands(left_size, allow_slot=True):
                if a[0] == op:
                    continue
                if op == "div" and a[0] == "mul" and _chain_has_bare_slot(a):
                    continue  # (c*u)/b duplicates mul(c, div(u, b))
                for b, fb in rights:
                    if a == b and fa.slots == 0:
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
                out.append(_rebuild_chain(op, elements))
                return
            # adding one operand of `size` costs size + 1 nodes
            for size in range(1, n - used):
                for cand, facts in self._operands(size, allow_slot=not has_bare_slot):
                    if cand[0] in banned or facts.key < min_key:
                        continue
                    if cand == elements[-1] and facts.slots == 0:
                        continue
                    extend(
                        elements + [cand],
                        used + size + 1,
                        facts.key,
                        has_bare_slot or is_slot(cand),
                    )

        for size in range(1, n - 1):
            for first, facts in self._operands(size, allow_slot=False):
                if first[0] not in banned:
                    extend([first], size, facts.key, False)
        return out
