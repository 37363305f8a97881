"""Seeded input generators: Pascal programs, exprlang expressions and edits.

Every input the benchmark feeds the compiler is made here from a
``random.Random`` seeded by ``--seed``, so one seed always gives the same
inputs.  The exprlang generator also evaluates what it generates: its values
are the oracle for exprlang outputs.  The Pascal generator has the shape of the
program the paper measured (about 1100 lines, 46 routines, 6 of them with a
nested procedure), and uses only constructs of the repository's Pascal subset.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

# ------------------------------------------------------------------ Pascal


def _statements(rng: random.Random, names: List[str], calls: List[tuple],
                depth: int, count: int, pad: str) -> List[str]:
    out: List[str] = []
    for _ in range(count):
        roll = rng.random()
        a, b, c = rng.choice(names), rng.choice(names), rng.choice(names)
        k = rng.randint(1, 97)
        if roll < 0.32:
            out.append(f"{pad}{a} := {b} {rng.choice('+-*')} ({c} + {k});")
        elif roll < 0.46:
            out.append(f"{pad}if {b} > {c} then\n{pad}  {a} := {a} + {k}\n"
                       f"{pad}else\n{pad}  {a} := {a} - {k};")
        elif roll < 0.60 and depth < 2:
            inner = _statements(rng, names, calls, depth + 1, 2, pad + "  ")
            out.append(f"{pad}for {a} := 1 to {rng.randint(3, 12)} do\n{pad}begin\n"
                       + "\n".join(inner) + f"\n{pad}end;")
        elif roll < 0.72 and depth < 2:
            inner = _statements(rng, names, calls, depth + 1, 2, pad + "  ")
            out.append(f"{pad}while {b} > {k} do\n{pad}begin\n" + "\n".join(inner)
                       + f"\n{pad}  {b} := {b} div 2;\n{pad}end;")
        elif roll < 0.88 and calls:
            callee, is_function, arity = rng.choice(calls)
            args = ", ".join(rng.choice(names + [str(k)]) for _ in range(arity))
            out.append(f"{pad}{a} := {callee}({args});" if is_function
                       else f"{pad}{callee}({args});")
        else:
            out.append(f"{pad}writeln({a});")
    return out


def pascal_program(rng: random.Random, routines: int = 46, nested: int = 6,
                   statements: int = 8, main_statements: int = 30) -> str:
    """A type-correct Pascal program; the defaults are the paper's size (~34k chars)."""
    globals_ = [f"g{i}" for i in range(1, 9)]
    lines = ["program bench;", "const", "  scale = 3;", "type",
             "  vector = array [1..64] of integer;", "var",
             "  " + ", ".join(globals_) + ": integer;", "  buffer: vector;", ""]
    calls: List[tuple] = []
    with_inner = set(rng.sample(range(routines), min(nested, routines)))
    for index in range(routines):
        is_function = rng.random() < 0.4
        name = f"{'fn' if is_function else 'pr'}{index}"
        arity = rng.randint(1, 3)
        params = [f"p{i}" for i in range(1, arity + 1)]
        local = [f"v{i}" for i in range(1, rng.randint(2, 5) + 1)]
        names = local + params
        signature = "; ".join(f"{p}: integer" for p in params)
        lines.append(f"function {name}({signature}): integer;" if is_function
                     else f"procedure {name}({signature});")
        lines.append("var " + ", ".join(local) + ": integer;")
        body_calls = calls
        if index in with_inner:
            inner = f"in{index}"
            lines += [f"  procedure {inner}(q: integer);", "  var w1, w2: integer;",
                      "  begin", "    w1 := q;", "    w2 := q * scale;"]
            lines += _statements(rng, ["w1", "w2"] + names[:2], calls, 1, 3, "    ")
            lines.append("  end;")
            body_calls = calls + [(inner, False, 1)]
        lines.append("begin")
        lines += [f"  {v} := {rng.randint(0, 50)};" for v in local]
        lines += _statements(rng, names, body_calls, 0, statements, "  ")
        lines.append(f"  {name if is_function else rng.choice(local)} := {rng.choice(names)}")
        lines += ["end;", ""]
        calls.append((name, is_function, arity))
    lines.append("begin")
    lines += [f"  {g} := {rng.randint(0, 9)};" for g in globals_]
    lines += _statements(rng, globals_, calls, 0, main_statements, "  ")
    lines += ["  writeln(g1)", "end."]
    return "\n".join(lines)


def small_pascal(rng: random.Random) -> str:
    """A one-routine program, the size of an HTTP one-shot compile (~0.6k chars)."""
    return pascal_program(rng, routines=1, nested=0, statements=3, main_statements=3)


_LITERAL = re.compile(r"\+ (\d+)\)")
_ASSIGNMENT_LINE = re.compile(r"^ +[a-z]\w* := [^\n]*;$", re.M)


class PascalEditor:
    """Seeded keystroke-sized edits of a Pascal text, always leaving it valid.

    Two kinds alternate strictly: a literal change (``(x + 12)`` becomes
    ``(x + 40)``) and an insert/delete pair (one step duplicates a one-line
    assignment, the next removes the copy again), so every run has the same
    share of each.  Sites are stratified: each block of
    ``SLICES`` new edits visits every tenth of the text once, in shuffled
    order, so every run re-evaluates a like mix of regions.  ``next_edit``
    returns ``(start, end, text)`` in current coordinates and applies it to
    :attr:`text`.
    """

    SLICES = 10

    def __init__(self, text: str, rng: random.Random):
        self.text = text
        self.rng = rng
        self._pending: Optional[Tuple[int, int]] = None
        self._slices: List[int] = []
        self._literal = rng.random() < 0.5

    def next_edit(self) -> Tuple[str, Tuple[int, int, str]]:
        if self._pending is not None:
            start, end = self._pending
            self._pending = None
            return "delete", self._apply(start, end, "")
        if not self._slices:
            self._slices = list(range(self.SLICES))
            self.rng.shuffle(self._slices)
        part = self._slices.pop()
        self._literal = not self._literal
        if self._literal:
            site = self._pick(_LITERAL, part)
            old = int(site.group(1))
            new = self.rng.choice([k for k in range(1, 98) if k != old])
            return "literal", self._apply(site.start(1), site.end(1), str(new))
        line = self._pick(_ASSIGNMENT_LINE, part)
        copy = "\n" + line.group(0)
        self._pending = (line.end(), line.end() + len(copy))
        return "insert", self._apply(line.end(), line.end(), copy)

    def _pick(self, pattern: "re.Pattern[str]", part: int) -> "re.Match[str]":
        """A random match of ``pattern`` in slice ``part`` (anywhere if none)."""
        low = len(self.text) * part // self.SLICES
        high = len(self.text) * (part + 1) // self.SLICES
        sites = list(pattern.finditer(self.text))
        return self.rng.choice([m for m in sites if low <= m.start() < high] or sites)

    def _apply(self, start: int, end: int, text: str) -> Tuple[int, int, str]:
        self.text = self.text[:start] + text + self.text[end:]
        return start, end, text


# ----------------------------------------------------------------- exprlang


@dataclass
class _Node:
    kind: str                     # "num" | "var" | "add" | "mul" | "let"
    value: int = 0                # literal value ("num")
    name: str = ""                # variable name ("var", "let")
    kids: List["_Node"] = field(default_factory=list)


def _expr(rng: random.Random, depth: int, scope: List[str], fresh: List[int]) -> _Node:
    roll = rng.random()
    if depth <= 0 or roll < 0.2:
        if scope and rng.random() < 0.5:
            return _Node("var", name=rng.choice(scope))
        return _Node("num", value=rng.randint(0, 9))
    if roll < 0.55:
        name = f"x{fresh[0]}"
        fresh[0] += 1
        bound = _expr(rng, depth - 1, scope, fresh)
        return _Node("let", name=name,
                     kids=[bound, _expr(rng, depth - 1, scope + [name], fresh)])
    kind = "add" if roll < 0.85 else "mul"
    return _Node(kind, kids=[_expr(rng, depth - 1, scope, fresh),
                             _expr(rng, depth - 1, scope, fresh)])


class ExprProgram:
    """An exprlang expression that knows its own value and can edit its literals."""

    def __init__(self, rng: random.Random, depth: int):
        self._rng = rng
        self._root = _Node("let", name="x0", kids=[
            _expr(rng, depth - 1, [], [1]), _expr(rng, depth, ["x0"], [1000])])
        self.text, self._spans = self._render()

    def _render(self) -> Tuple[str, List[Tuple[_Node, int, int]]]:
        parts: List[str] = []
        spans: List[Tuple[_Node, int, int]] = []
        offset = [0]

        def put(text: str) -> None:
            parts.append(text)
            offset[0] += len(text)

        def walk(node: _Node) -> None:
            if node.kind == "num":
                spans.append((node, offset[0], offset[0] + len(str(node.value))))
                put(str(node.value))
            elif node.kind == "var":
                put(node.name)
            elif node.kind == "let":
                put(f"let {node.name} = ")
                walk(node.kids[0])
                put(" in ")
                walk(node.kids[1])
                put(" ni")
            else:
                put("(")
                walk(node.kids[0])
                put(" + " if node.kind == "add" else " * ")
                walk(node.kids[1])
                put(")")

        walk(self._root)
        return "".join(parts), spans

    @property
    def value(self) -> int:
        def evaluate(node: _Node, env: dict) -> int:
            if node.kind == "num":
                return node.value
            if node.kind == "var":
                return env[node.name]
            if node.kind == "let":
                bound = evaluate(node.kids[0], env)
                return evaluate(node.kids[1], {**env, node.name: bound})
            left, right = (evaluate(kid, env) for kid in node.kids)
            return left + right if node.kind == "add" else left * right

        return evaluate(self._root, {})

    def edit_literal(self) -> Tuple[int, int, str]:
        """Change one literal; returns the ``(start, end, text)`` splice."""
        node, start, end = self._rng.choice(self._spans)
        node.value = self._rng.choice([k for k in range(10) if k != node.value])
        self.text, self._spans = self._render()
        return start, end, str(node.value)
