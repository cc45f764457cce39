"""String, numeric, and set similarity measures (the φ functions)."""

from .jaro import jaro_similarity, jaro_winkler_similarity
from .levenshtein import (damerau_levenshtein_distance, damerau_similarity,
                          levenshtein_distance, levenshtein_similarity)
from .numeric import numeric_similarity, parse_number, year_similarity
from .registry import (DEFAULT_TRAITS, PhiTraits, SimilarityFunction,
                       available_similarities, exact_casefold_similarity,
                       exact_similarity, get_similarity, get_traits,
                       register_similarity, reset_registry)
from .filters import (bag_distance, bag_filter_bound, bags_distance,
                      bounded_edit_similarity, bounded_levenshtein, char_bag,
                      filtered_edit_similarity, length_filter_bound)
from .plan import (DEFAULT_PHI_CACHE_SIZE, CompiledCondition, ComparisonPlan,
                   ComparisonStats, PhiCache, PlanField, PlanOutcome)
from .soundex import soundex
from .store import PersistentPhiCache, phi_fingerprint
from .tokens import (dice_coefficient, jaccard, lcs_similarity,
                     longest_common_subsequence, multiset_jaccard,
                     ngram_similarity, ngrams, overlap_coefficient,
                     token_jaccard, tokenize)

__all__ = [
    "DEFAULT_PHI_CACHE_SIZE",
    "DEFAULT_TRAITS",
    "CompiledCondition",
    "ComparisonPlan",
    "ComparisonStats",
    "PhiCache",
    "PhiTraits",
    "PlanField",
    "PlanOutcome",
    "SimilarityFunction",
    "available_similarities",
    "bag_distance",
    "bags_distance",
    "bag_filter_bound",
    "bounded_edit_similarity",
    "bounded_levenshtein",
    "char_bag",
    "filtered_edit_similarity",
    "get_traits",
    "length_filter_bound",
    "damerau_levenshtein_distance",
    "damerau_similarity",
    "dice_coefficient",
    "exact_casefold_similarity",
    "exact_similarity",
    "get_similarity",
    "jaccard",
    "jaro_similarity",
    "jaro_winkler_similarity",
    "lcs_similarity",
    "levenshtein_distance",
    "levenshtein_similarity",
    "longest_common_subsequence",
    "multiset_jaccard",
    "ngram_similarity",
    "ngrams",
    "numeric_similarity",
    "overlap_coefficient",
    "parse_number",
    "PersistentPhiCache",
    "phi_fingerprint",
    "register_similarity",
    "reset_registry",
    "soundex",
    "token_jaccard",
    "tokenize",
    "year_similarity",
]
