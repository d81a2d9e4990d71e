"""The scenario registry: named, parameterized chain families.

A *family* is a recipe for a whole space of DTMCs — the 1xN MIMO
detector across antenna counts and quantizer resolutions, the Viterbi
decoder across traceback lengths and channel memories, synthetic
stress chains across sizes.  Registering a family gives it a stable
name, documented defaults, and a uniform build path: every entry goes
through the shared :func:`repro.zoo.pipeline.build` pipeline
(``ScenarioSpec -> build -> reduce -> Engine registration``), so the
provenance a scenario carries — full vs reduced state counts,
reduction kind, wall times — is comparable across families.

The registry is the plug-in point every scaling layer builds on: the
sweep runner enumerates it, the CLI renders it, and new workloads join
the zoo with one :func:`register_model` call (or the
:func:`model_family` decorator).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "ModelFamily",
    "ZooError",
    "UnknownFamilyError",
    "register_model",
    "model_family",
    "get_model",
    "list_models",
    "unregister_model",
    "parse_param",
]


class ZooError(ValueError):
    """Base class for scenario-zoo errors."""


class UnknownFamilyError(ZooError, KeyError):
    """Raised when a family name is not registered."""


@dataclass(frozen=True)
class ModelFamily:
    """One registered chain family.

    Attributes
    ----------
    name:
        Registry key (``"mimo-1xN"``, ``"viterbi-memory-m"``, ...).
    builder:
        Maps a *complete* parameter dict (defaults merged with
        overrides) to a :class:`repro.zoo.pipeline.FamilyBuild`
        describing how to build the full and/or reduced chain.
    description:
        One-line summary shown by ``python -m repro.zoo list``.
    defaults:
        The family's complete default parameterization.  Defaults are
        laptop-scale: every family must build in well under a second at
        its defaults, because tests and the CLI build them eagerly.
    default_property:
        A *bounded* pCTL property usable by every checking backend
        (exact, APMC and SPRT) — the formula zoo-wide surveys check.
    tags:
        Free-form labels (``"mimo"``, ``"synthetic"``, ...) for
        filtering.
    """

    name: str
    builder: Callable[[Mapping[str, Any]], Any]
    description: str = ""
    defaults: Mapping[str, Any] = field(default_factory=dict)
    default_property: str = "P=? [ F<=50 flag ]"
    tags: Tuple[str, ...] = ()

    def merged_params(self, params: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
        """Defaults overlaid with ``params``; unknown keys, and text
        given for a parameter whose default is a number, are errors."""
        merged = dict(self.defaults)
        if params:
            unknown = sorted(set(params) - set(merged))
            if unknown:
                raise ZooError(
                    f"unknown parameter(s) {', '.join(unknown)} for family"
                    f" {self.name!r}; valid: {', '.join(sorted(merged))}"
                )
            for key, value in params.items():
                default = merged[key]
                if isinstance(default, (int, float)) and isinstance(value, str):
                    raise ZooError(
                        f"parameter {key!r} of family {self.name!r} must be a"
                        f" number (default {default!r}), got {value!r}"
                    )
            merged.update(params)
        return merged


def parse_param(text: str) -> Any:
    """One parameter value given as text (``repro-zoo -p key=value``,
    a ``/guarantee`` query): the Python literal it spells, else the
    text itself."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


_REGISTRY: Dict[str, ModelFamily] = {}


def register_model(family: ModelFamily, replace: bool = False) -> ModelFamily:
    """Add ``family`` to the registry.

    Re-registering an existing name raises unless ``replace=True`` —
    silent shadowing is how two experiments end up sweeping different
    models under one name.
    """
    if not family.name:
        raise ZooError("family name must be non-empty")
    if family.name in _REGISTRY and not replace:
        raise ZooError(
            f"family {family.name!r} is already registered;"
            " pass replace=True to overwrite"
        )
    _REGISTRY[family.name] = family
    return family


def model_family(
    name: str,
    *,
    description: str = "",
    defaults: Optional[Mapping[str, Any]] = None,
    default_property: str = "P=? [ F<=50 flag ]",
    tags: Tuple[str, ...] = (),
    replace: bool = False,
) -> Callable:
    """Decorator form of :func:`register_model` for builder functions.

    >>> @model_family("two-state", defaults={"p": 0.5})
    ... def _build(params):
    ...     ...
    """

    def decorate(builder: Callable) -> Callable:
        doc = (builder.__doc__ or "").strip().splitlines()
        register_model(
            ModelFamily(
                name=name,
                builder=builder,
                description=description or (doc[0] if doc else ""),
                defaults=dict(defaults or {}),
                default_property=default_property,
                tags=tuple(tags),
            ),
            replace=replace,
        )
        return builder

    return decorate


def get_model(name: str) -> ModelFamily:
    """Look up a family; raises :class:`UnknownFamilyError` with the
    registered names on a miss."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<registry is empty>"
        raise UnknownFamilyError(
            f"no family named {name!r}; registered: {known}"
        ) from None


def list_models(tag: Optional[str] = None) -> List[ModelFamily]:
    """Registered families in name order, optionally filtered by tag."""
    families = sorted(_REGISTRY.values(), key=lambda f: f.name)
    if tag is not None:
        families = [f for f in families if tag in f.tags]
    return families


def unregister_model(name: str) -> None:
    """Remove a family (primarily for tests); missing names are fine."""
    _REGISTRY.pop(name, None)
