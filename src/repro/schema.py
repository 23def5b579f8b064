"""One declarative checker for the repo's versioned JSON documents.

A spec maps each required key to a rule: a type or tuple of types, a
nested spec, ``[rule]`` for an array, or ``None`` for any value.
:class:`Also` adds a predicate hook for what a spec cannot say, such as
fields required only when ``status == "ok"``.
"""

from __future__ import annotations

from typing import Any, Callable, List

__all__ = ["NUM", "Also", "Opt", "check", "each", "nullable", "one_of",
           "where"]

#: Rule for a JSON number.
NUM = (int, float)
Hook = Callable[[Any, str], List[str]]


class Also:
    """Match ``rule``, then ``hook(value, path)`` adds problems (it may
    trust the shape ``rule`` checked)."""

    def __init__(self, rule: Any, hook: Hook = lambda v, at: []) -> None:
        self.rule, self.hook = rule, hook


class Opt(Also):
    """A key that may be absent; a present value must match ``rule``."""


def nullable(rule: Any) -> Also:
    """``rule``, or null."""
    return Also(None, lambda v, at: [] if v is None else _match(v, rule, at))


def each(rule: Any) -> Also:
    """An object whose every value matches ``rule``."""
    return Also(dict, lambda v, at: [
        p for k, item in v.items() for p in _match(item, rule, f"{at}[{k!r}]")
    ])


def where(rule: Any, test: Callable[[Any], bool], text: str) -> Also:
    """``rule``, and ``test(value)`` must hold."""
    return Also(
        rule, lambda v, at: [] if test(v) else [f"{at}: {text}, got {v!r}"]
    )


def one_of(*values: Any) -> Also:
    """The value must equal one of ``values``."""
    expected = " or ".join(repr(v) for v in values)
    return where(None, lambda v: v in values, f"expected {expected}")


def check(doc: Any, spec: Any, path: str = "$") -> List[str]:
    """Every way the object ``doc`` departs from ``spec``."""
    if not isinstance(doc, dict):
        return ["payload is not an object"]
    return _match(doc, spec, path)


def _match(value: Any, rule: Any, path: str) -> List[str]:
    if rule is None:
        return []
    if isinstance(rule, Also):
        return _match(value, rule.rule, path) or rule.hook(value, path)
    types = type(rule) if isinstance(rule, (list, dict)) else rule
    if not isinstance(value, types):
        names = types if isinstance(types, tuple) else (types,)
        expected = " or ".join(t.__name__ for t in names)
        return [f"{path}: expected {expected}, got {type(value).__name__}"]
    if isinstance(rule, list):
        return [p for i, item in enumerate(value)
                for p in _match(item, rule[0], f"{path}[{i}]")]
    if not isinstance(rule, dict):
        return []
    problems: List[str] = []
    for key, sub in rule.items():
        if key in value:
            problems += _match(value[key], sub, f"{path}.{key}")
        elif not isinstance(sub, Opt):
            problems.append(f"{path}.{key}: missing key {key!r}")
    return problems
