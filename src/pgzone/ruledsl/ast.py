"""AST node types for the rule / procedure language.

Nodes carry no source positions so that structural equality is exactly
"same program": parse(print(ast)) == ast holds for every valid tree.
Chains are plain lists of items; an absent else-branch is None.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

# Runtime value domain: strings, 64-bit signed ints, bools, lists of strings.
Value = Union[str, int, bool, list]

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

# How tightly each operator binds; a higher number binds tighter, and
# every binary operator is left-associative. This is the one place the
# order is set: the parser climbs this table and the printer reads it.
BINARY_PREC = {
    "||": 1, "&&": 2,
    "==": 3, "!=": 3, "<": 3, "<=": 3, ">": 3, ">=": 3, "matches": 3,
    "+": 4, "-": 4, "*": 5, "/": 5,
}
_UNARY_PREC = 6


@dataclass(frozen=True)
class Lit:
    value: Value


@dataclass(frozen=True)
class Var:
    # Dotted name without the "$" sigil, e.g. "user.name" or "x".
    name: str


@dataclass(frozen=True)
class Unary:
    op: str  # "!"
    operand: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # || && == != < <= > >= matches + - * /
    left: "Expr"
    right: "Expr"


Expr = Union[Lit, Var, Unary, Binary]


@dataclass(frozen=True)
class Call:
    name: str
    args: tuple["Expr", ...] = ()


@dataclass(frozen=True)
class Assign:
    target: str  # simple local name, no dots
    value: Union["Expr", Call]


@dataclass
class If:
    cond: "Expr"
    then: list["Item"]
    orelse: list["Item"] | None = None


@dataclass
class Foreach:
    var: str
    items: "Expr"
    body: list["Item"] = field(default_factory=list)


@dataclass(frozen=True)
class Allow:
    pass


@dataclass(frozen=True)
class Deny:
    reason: str


Item = Union[Call, Assign, If, Foreach, Allow, Deny]


@dataclass
class RuleAst:
    name: str
    pep: str
    priority: int = 0
    condition: "Expr" = Lit(True)
    actions: list[Item] = field(default_factory=list)


@dataclass
class ProcedureAst:
    name: str
    params: list[str] = field(default_factory=list)
    body: list[Item] = field(default_factory=list)
