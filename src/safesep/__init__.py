"""Minimum-weight connectivity-preserving separators in AT-free graphs.

The central query: given a vertex-weighted graph and two vertex sets A and B,
find a minimum-weight *safe* A,B-separator -- a vertex set whose removal
leaves all of A inside one connected component and all of B inside another.
``min_safe_separator`` answers it in polynomial time on AT-free graphs; the
supporting machinery (graph operations, AT-free recognition, minimal
separators, vertex-capacitated minimum cuts, close-separator families) and
exhaustive reference oracles are exported alongside.
"""

from .atfree import AtWitness, find_asteroidal_triple, is_at_free
from .close_to import close_to
from .errors import InternalConsistencyError, NoSeparatorError
from .graph_core import (
    WeightedGraph,
    bfs_path,
    closed_neighborhood,
    component_of,
    components,
    family_sorted,
    is_connected,
    neighborhood,
    subdivide,
)
from .min_safe_sep import QueryInstance, SafeSeparatorAnswer, min_safe_separator
from .min_weight_separator import min_weight_st_separator
from .minimal_separators import (
    close_separator,
    is_AB_separator,
    is_minimal_AB_separator,
    is_minimal_st_separator,
    is_safe_AB_separator,
    is_st_separator,
)
from .oracle import (
    SubsetCapError,
    close_family_brute,
    enumerate_minimal_st_separators,
    gen_atfree_rejection,
    gen_interval,
    min_safe_brute,
    sample_terminals,
    two_dcs_brute,
)

__version__ = "0.1.0"

__all__ = [
    "AtWitness",
    "InternalConsistencyError",
    "NoSeparatorError",
    "QueryInstance",
    "SafeSeparatorAnswer",
    "SubsetCapError",
    "WeightedGraph",
    "bfs_path",
    "close_family_brute",
    "close_separator",
    "close_to",
    "closed_neighborhood",
    "component_of",
    "components",
    "enumerate_minimal_st_separators",
    "family_sorted",
    "find_asteroidal_triple",
    "gen_atfree_rejection",
    "gen_interval",
    "is_AB_separator",
    "is_at_free",
    "is_connected",
    "is_minimal_AB_separator",
    "is_minimal_st_separator",
    "is_safe_AB_separator",
    "is_st_separator",
    "min_safe_brute",
    "min_safe_separator",
    "min_weight_st_separator",
    "neighborhood",
    "sample_terminals",
    "subdivide",
    "two_dcs_brute",
]
