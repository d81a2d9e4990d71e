"""Exhaustive equivalence checking of finite functions.

The paper discharges its proof obligations "Equation 5 == Equation 9"
and "Equation 7 == Equation 10" with a commercial RTL equivalence
checker (Synopsys Formality).  Over the finite domains of RTL state
variables, equivalence of two combinational functions is decidable by
exhaustive enumeration; this module provides exactly that, returning a
counterexample assignment when the functions differ.

Exhaustive enumeration stands in for Formality: same decision problem,
same verdict, different engine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

__all__ = ["EquivalenceResult", "functions_equivalent", "assert_equivalent"]


@dataclass
class EquivalenceResult:
    """Verdict of an exhaustive equivalence check.

    ``equivalent`` is the verdict; on failure ``counterexample`` holds
    the differing input assignment and ``values`` the two outputs.
    """

    equivalent: bool
    cases_checked: int
    counterexample: Optional[Dict[str, Any]] = None
    values: Optional[Tuple[Any, Any]] = None

    def __bool__(self) -> bool:
        return self.equivalent


def functions_equivalent(
    first: Callable[..., Any],
    second: Callable[..., Any],
    domains: Mapping[str, Sequence[Any]],
) -> EquivalenceResult:
    """Decide whether two functions agree on the full cartesian domain.

    ``domains`` maps argument names to their finite value sets; both
    functions are called with keyword arguments.

    >>> xor = lambda a, b: a != b
    >>> alt = lambda a, b: (a and not b) or (b and not a)
    >>> functions_equivalent(xor, alt, {"a": [False, True], "b": [False, True]}).equivalent
    True
    """
    names = list(domains)
    cases = 0
    for values in itertools.product(*(domains[name] for name in names)):
        assignment = dict(zip(names, values))
        left = first(**assignment)
        right = second(**assignment)
        cases += 1
        if left != right:
            return EquivalenceResult(
                equivalent=False,
                cases_checked=cases,
                counterexample=assignment,
                values=(left, right),
            )
    return EquivalenceResult(equivalent=True, cases_checked=cases)


def assert_equivalent(
    first: Callable[..., Any],
    second: Callable[..., Any],
    domains: Mapping[str, Sequence[Any]],
) -> int:
    """Raise ``AssertionError`` with the counterexample if not equivalent.

    Returns the number of cases checked on success.
    """
    result = functions_equivalent(first, second, domains)
    if not result:
        raise AssertionError(
            f"functions differ on {result.counterexample}:"
            f" {result.values[0]!r} != {result.values[1]!r}"
        )
    return result.cases_checked
