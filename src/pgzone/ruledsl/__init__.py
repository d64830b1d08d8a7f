"""Rule and procedure language: lexer, parser, printer, evaluator.

Rules name a policy-enforcement point, an optional condition, and an
action chain; procedures are named parameterized chains. Rule files use
the .rule extension, procedure files .proc; both are UTF-8.
"""

from .ast import (
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
    Value,
    Var,
)
from .evaluator import eval_expr
from .parser import SYSTEM_VARS, parse_procedure, parse_rules
from .printer import (
    print_chain,
    print_expr,
    print_procedure,
    print_rule,
)

__all__ = [
    "Allow", "Assign", "Binary", "Call", "Deny", "Expr", "Foreach", "If",
    "Item", "Lit", "ProcedureAst", "RuleAst", "Unary", "Value", "Var",
    "SYSTEM_VARS", "eval_expr", "parse_procedure", "parse_rules",
    "print_chain", "print_expr", "print_procedure", "print_rule",
]
