"""Parameterized pattern matching with directed acyclic word graphs.

A p-string mixes static symbols with renameable parameters; two p-strings
match when a bijection on the parameters turns one into the other.  This
package prev-encodes p-strings, builds the node-minimal matching automaton
(the parameterized DAWG) online in one left-to-right pass, answers membership
and locate queries, and exposes in `duality` the dual parameterized suffix
tree of the reversed text together with the right-to-left tree builder,
which reads that tree off the online automaton of the reversed text.
Brute-force reference structures (trie, minimal DFA, compacted tree,
equivalence-class automaton) back every fast path for verification.
"""

from .duality import (
    StructureError,
    build_pstree_rtl,
    links_to_pdawg,
    offline_build_pdawg,
    rtl_steps,
    suffix_link_tree_as_pstree,
    upward_links_to_pdawg,
    verify_duality,
    weiner_links,
)
from .matcher import OccurrenceIndex, build_occurrence_index, locate, p_match_query
from .oracles import (
    OraclePdawg,
    PSAuto,
    PSTree,
    PSTrie,
    build_oracle_pdawg,
    build_psauto,
    build_pstree_naive,
    build_pstrie,
    rpos,
    scan_occurrences,
    tree_equal,
)
from .pdawg import (
    ConstructionStats,
    Pdawg,
    build_online,
    canonical_form,
    check_invariants,
    from_json_dict,
    node_longest_codes,
    stats_summary,
    to_json_dict,
    trans,
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
    "OraclePdawg",
    "PSAuto",
    "PSTree",
    "PSTrie",
    "PString",
    "Pdawg",
    "PvString",
    "StructureError",
    "build_occurrence_index",
    "build_online",
    "build_oracle_pdawg",
    "build_psauto",
    "build_pstree_naive",
    "build_pstree_rtl",
    "build_pstrie",
    "canonical_form",
    "check_invariants",
    "from_json_dict",
    "label_sort_key",
    "links_to_pdawg",
    "locate",
    "node_longest_codes",
    "offline_build_pdawg",
    "p_match",
    "p_match_query",
    "pattern_codes",
    "prev_decode",
    "pv_reverse",
    "re_encode",
    "rpos",
    "rtl_steps",
    "scan_occurrences",
    "stats_summary",
    "suffix_link_tree_as_pstree",
    "to_json_dict",
    "trans",
    "tree_equal",
    "upward_links_to_pdawg",
    "verify_duality",
    "weiner_links",
]
