"""Named registry of φ (string-similarity) functions.

Configurations refer to similarity functions by name (the paper's OD
relation pairs each path with a φ function chosen by the expert).  The
registry maps those names to callables ``(str, str) -> float in [0, 1]``
and allows applications to register their own domain measures.

Each name also carries :class:`PhiTraits` — the metadata the compiled
comparison plane (:mod:`repro.similarity.plan`) uses to order fields by
cost, bind cheap upper-bound filters, and swap in a floor-bounded
evaluation.  User functions registered without traits
get conservative defaults (expensive, no filters); registering traits
makes any custom φ filter-aware without touching the core.
"""

from __future__ import annotations

from dataclasses import dataclass

from collections.abc import Callable

from .filters import (bag_filter_bound, bounded_edit_similarity,
                      length_filter_bound)
from .jaro import jaro_similarity, jaro_winkler_similarity
from .levenshtein import damerau_similarity, levenshtein_similarity
from .numeric import numeric_similarity, year_similarity
from .tokens import lcs_similarity, ngram_similarity, token_jaccard

SimilarityFunction = Callable[[str, str], float]

# (left, right, floor) -> (value, exact): exact φ when >= floor, else a
# dominating upper bound below floor.
BoundedEval = Callable[[str, str, float], tuple[float, bool]]


@dataclass(frozen=True)
class PhiTraits:
    """Filter/cost metadata the comparison plane compiles against.

    ``cost`` ranks evaluation order (0 = cheapest, evaluated first).
    ``symmetric`` permits normalizing cache keys so either argument
    order hits.  ``upper_bounds`` are cheap functions that never return
    less than the φ itself (term-wise, in float arithmetic).
    ``bounded`` is an optional floor-aware evaluation returning
    ``(value, exact)`` — exact when the φ meets the floor, a dominating
    upper bound below the floor otherwise.
    """

    cost: int = 3
    symmetric: bool = False
    upper_bounds: tuple[SimilarityFunction, ...] = ()
    bounded: BoundedEval | None = None


DEFAULT_TRAITS = PhiTraits()

_EDIT_BOUNDS = (length_filter_bound, bag_filter_bound)

_BUILTIN_TRAITS: dict[str, PhiTraits] = {
    "exact": PhiTraits(cost=0, symmetric=True),
    "exact_casefold": PhiTraits(cost=0, symmetric=True),
    "numeric": PhiTraits(cost=0, symmetric=True),
    "year": PhiTraits(cost=0, symmetric=True),
    "token_jaccard": PhiTraits(cost=1, symmetric=True),
    "ngram": PhiTraits(cost=1, symmetric=True),
    "jaro": PhiTraits(cost=1, symmetric=True),
    "jaro_winkler": PhiTraits(cost=1, symmetric=True),
    "lcs": PhiTraits(cost=2, symmetric=True),
    # The edit family: length/bag filters plus the capped distance.
    "levenshtein": PhiTraits(cost=3, symmetric=True,
                             upper_bounds=_EDIT_BOUNDS,
                             bounded=bounded_edit_similarity),
    "edit": PhiTraits(cost=3, symmetric=True,
                      upper_bounds=_EDIT_BOUNDS,
                      bounded=bounded_edit_similarity),
    # Transpositions change neither lengths nor bags, so both bounds
    # hold for Damerau too — but the capped distance is plain
    # Levenshtein and cannot stand in for the exact value.
    "damerau": PhiTraits(cost=3, symmetric=True,
                         upper_bounds=_EDIT_BOUNDS),
}


def exact_similarity(left: str, right: str) -> float:
    """1.0 iff the two strings are equal, else 0.0."""
    return 1.0 if left == right else 0.0


def exact_casefold_similarity(left: str, right: str) -> float:
    """Case-insensitive exact match."""
    return 1.0 if left.casefold() == right.casefold() else 0.0


_BUILTINS: dict[str, SimilarityFunction] = {
    "levenshtein": levenshtein_similarity,
    "edit": levenshtein_similarity,           # the paper's default
    "damerau": damerau_similarity,
    "jaro": jaro_similarity,
    "jaro_winkler": jaro_winkler_similarity,
    "numeric": numeric_similarity,
    "year": year_similarity,
    "token_jaccard": token_jaccard,
    "ngram": ngram_similarity,
    "lcs": lcs_similarity,
    "exact": exact_similarity,
    "exact_casefold": exact_casefold_similarity,
}

_registry: dict[str, SimilarityFunction] = dict(_BUILTINS)
_traits: dict[str, PhiTraits] = dict(_BUILTIN_TRAITS)


def register_similarity(name: str, function: SimilarityFunction,
                        overwrite: bool = False,
                        traits: PhiTraits | None = None) -> None:
    """Register ``function`` under ``name``.

    ``traits`` optionally attaches :class:`PhiTraits` so the comparison
    plane can cost-order and filter the function; omitted, the function
    gets conservative defaults (expensive, asymmetric, unfiltered).

    Raises ``ValueError`` if the name is taken and ``overwrite`` is false.
    """
    if name in _registry and not overwrite:
        raise ValueError(f"similarity function {name!r} is already registered")
    _registry[name] = function
    if traits is not None:
        _traits[name] = traits
    else:
        _traits.pop(name, None)


def get_traits(name: str) -> PhiTraits:
    """The :class:`PhiTraits` registered for ``name``.

    Unknown or traitless names get :data:`DEFAULT_TRAITS` — the plane
    treats them as expensive, unfilterable functions, which is always
    sound.
    """
    return _traits.get(name, DEFAULT_TRAITS)


def get_similarity(name: str) -> SimilarityFunction:
    """Look up a registered similarity function by name."""
    try:
        return _registry[name]
    except KeyError:
        known = ", ".join(sorted(_registry))
        raise KeyError(f"unknown similarity function {name!r}; known: {known}") from None


def available_similarities() -> list[str]:
    """Sorted names of all registered similarity functions."""
    return sorted(_registry)


def reset_registry() -> None:
    """Restore the registry to the built-in set (used by tests)."""
    _registry.clear()
    _registry.update(_BUILTINS)
    _traits.clear()
    _traits.update(_BUILTIN_TRAITS)
