"""Graph databases and query languages — the Mendelzon legacy.

The award announcement credits Alberto Mendelzon's "pioneering and
fundamental work"; his most influential technical line is the theory of
graph query languages: regular path queries and their evaluation
(Mendelzon & Wood, "Finding regular simple paths in graph databases"),
conjunctive RPQs, and the visual language GraphLog (Consens & Mendelzon)
defined by translation to stratified linear Datalog.

- :mod:`repro.graph.graphdb` — edge-labeled graphs.
- :mod:`repro.graph.regex` — path regular expressions (with inverses for
  2RPQs) and a small parser.
- :mod:`repro.graph.nfa` — Thompson construction and NFA utilities.
- :mod:`repro.graph.rpq` — RPQ/2RPQ evaluation via the product
  construction, plus the naive path-enumeration baseline (experiment E13).
- :mod:`repro.graph.simplepath` — simple-path semantics (NP-hard in
  general; exact backtracking for the sizes studied here).
- :mod:`repro.graph.crpq` — conjunctive RPQs by joining RPQ relations.
- :mod:`repro.graph.graphlog` — GraphLog queries translated to Datalog.
"""

from repro._lazy import lazy_exports

#: Each public name and the submodule that defines it (imported on first
#: access).
_EXPORTS = {
    "GraphDB": "graphdb",
    "Regex": "regex",
    "parse_regex": "regex",
    "NFA": "nfa",
    "DFA": "nfa",
    "regex_to_nfa": "nfa",
    "nfa_to_dfa": "nfa",
    "minimize_dfa": "nfa",
    "parse_edge_list": "io",
    "to_edge_list": "io",
    "rpq_eval": "rpq",
    "rpq_eval_naive": "rpq",
    "rpq_pairs": "rpq",
    "simple_path_pairs": "simplepath",
    "CRPQ": "crpq",
    "RPQAtom": "crpq",
    "crpq_eval": "crpq",
    "GraphLogQuery": "graphlog",
    "GraphLogEdge": "graphlog",
    "graphlog_eval": "graphlog",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
