"""Parameterized pattern matching with directed acyclic word graphs.

A p-string mixes static symbols with renameable parameters; two p-strings
match when a bijection on the parameters turns one into the other.  This
package prev-encodes p-strings, builds the node-minimal matching automaton
(the parameterized DAWG) online in one left-to-right pass, answers membership
and locate queries, and exposes in `duality` the dual parameterized suffix
tree of the reversed text together with the right-to-left tree builder,
which reads that tree off the online automaton of the reversed text.

Brute-force reference structures (trie, minimal DFA, compacted tree,
equivalence-class automaton, Weiner links) live in `pdawg.oracles`, and the
cross-checks against them in `pdawg.verify`; the root re-exports only the
product's names and the two oracles the benchmark harness reads.
"""

from .duality import (
    PSTree,
    StructureError,
    build_pstree_rtl,
    offline_build_pdawg,
    suffix_link_tree_as_pstree,
    upward_links_to_pdawg,
)
from .matcher import OccurrenceIndex, build_occurrence_index, locate, p_match_query
from .oracles import build_pstree_naive, scan_occurrences
from .pdawg import (
    ConstructionStats,
    Pdawg,
    build_online,
    check_invariants,
    from_json_dict,
    stats_summary,
    to_json_dict,
)
from .pstrings import (
    Alphabet,
    AlphabetError,
    InvalidPvString,
    PString,
    PvString,
    label_sort_key,
    p_match,
    pattern_codes,
    prev_decode,
    pv_reverse,
    re_encode,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "AlphabetError",
    "ConstructionStats",
    "InvalidPvString",
    "OccurrenceIndex",
    "PSTree",
    "PString",
    "Pdawg",
    "PvString",
    "StructureError",
    "build_occurrence_index",
    "build_online",
    "build_pstree_naive",
    "build_pstree_rtl",
    "check_invariants",
    "from_json_dict",
    "label_sort_key",
    "locate",
    "offline_build_pdawg",
    "p_match",
    "p_match_query",
    "pattern_codes",
    "prev_decode",
    "pv_reverse",
    "re_encode",
    "scan_occurrences",
    "stats_summary",
    "suffix_link_tree_as_pstree",
    "to_json_dict",
    "upward_links_to_pdawg",
]
