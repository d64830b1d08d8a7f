"""Canonical pretty-printer.

Output is deterministic and re-parses to a structurally identical tree,
so the printed form doubles as the canonical text used for content
addressing of procedures. Parentheses are emitted only where precedence
requires them.
"""

from __future__ import annotations

from .ast import (
    _UNARY_PREC,
    BINARY_PREC,
    Allow,
    Assign,
    Binary,
    Call,
    Deny,
    Expr,
    Foreach,
    If,
    Item,
    Lit,
    ProcedureAst,
    RuleAst,
    Unary,
    Var,
)
from .lexer import escape_string


def print_expr(expr: Expr, parent_prec: int = 0) -> str:
    if isinstance(expr, Lit):
        v = expr.value
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, int):
            return str(v)
        if isinstance(v, str):
            return f'"{escape_string(v)}"'
        raise TypeError(f"unprintable literal {v!r}")
    if isinstance(expr, Var):
        return f"${expr.name}"
    if isinstance(expr, Unary):
        inner = print_expr(expr.operand, _UNARY_PREC)
        text = f"{expr.op}{inner}"
        return f"({text})" if _UNARY_PREC < parent_prec else text
    if isinstance(expr, Binary):
        prec = BINARY_PREC[expr.op]
        left = print_expr(expr.left, prec)
        right = print_expr(expr.right, prec + 1)
        text = f"{left} {expr.op} {right}"
        return f"({text})" if prec < parent_prec else text
    raise TypeError(f"not an expression: {expr!r}")


def print_item(item: Item) -> str:
    if isinstance(item, Call):
        args = ", ".join(print_expr(a) for a in item.args)
        return f"{item.name}({args})"
    if isinstance(item, Assign):
        rhs = print_item(item.value) if isinstance(item.value, Call) \
            else print_expr(item.value)
        return f"${item.target} = {rhs}"
    if isinstance(item, Allow):
        return "allow()"
    if isinstance(item, Deny):
        return f'deny("{escape_string(item.reason)}")'
    if isinstance(item, If):
        text = f"if {print_expr(item.cond)} {{ {print_chain(item.then)} }}"
        if item.orelse:
            text += f" else {{ {print_chain(item.orelse)} }}"
        return text
    if isinstance(item, Foreach):
        return (f"foreach ${item.var} in {print_expr(item.items)} "
                f"{{ {print_chain(item.body)} }}")
    raise TypeError(f"not a chain item: {item!r}")


def print_chain(chain: list[Item]) -> str:
    return "; ".join(print_item(i) for i in chain)


def print_rule(rule: RuleAst) -> str:
    parts = [f"rule {rule.name}"]
    if rule.priority != 0:
        parts.append(f"priority {rule.priority}")
    parts.append(f"on {rule.pep}")
    if rule.condition != Lit(True):
        parts.append(f"when {print_expr(rule.condition)}")
    parts.append(f"do {print_chain(rule.actions)}")
    return " ".join(parts)


def print_procedure(proc: ProcedureAst) -> str:
    params = ", ".join(f"${p}" for p in proc.params)
    return f"procedure {proc.name}({params}) {{ {print_chain(proc.body)} }}"


def pretty_print(node) -> str:
    """Print a RuleAst, ProcedureAst, or list of rules as canonical source."""
    if isinstance(node, RuleAst):
        return print_rule(node)
    if isinstance(node, ProcedureAst):
        return print_procedure(node)
    if isinstance(node, list):
        return "\n".join(print_rule(r) for r in node)
    raise TypeError(f"cannot print {type(node).__name__}")
