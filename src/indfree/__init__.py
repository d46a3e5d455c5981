"""Witness constructions and feasibility tables for induced-subgraph-free
graph families.

For a forbidden graph G outside the four trivially non-feasible shapes
(clique, clique minus an edge, and their complements), `witness` builds a
graph with any requested vertex and edge count containing no induced copy
of G. `feasible_pairs` checks such claims exhaustively at small orders.
"""

from .catalog import parse_edge_list, parse_graph
from .classifier import (
    ClassTag,
    Construction,
    ForbiddenClass,
    TnfKind,
    WitnessCertificate,
    classify,
    recognize_h,
    recognize_tnf,
    tnf_infeasible_region,
    turan_max_edges,
    witness,
)
from .constructions import (
    HParams,
    QParams,
    SplitParams,
    h_graph,
    k3k2_decompose,
    k3k2_witness,
    matching_witness,
    q_graph,
    s_graph,
    split_pack_witness,
    uep_witness,
)
from .enumeration import (
    ENUMERATION_CAP,
    FamilySpec,
    PairTable,
    enumerate_nonisomorphic,
    feasible_pairs,
    interval_check_p3k1,
    table_to_csv,
    table_to_json,
)
from .errors import (
    CapacityError,
    DegenerateForbiddenError,
    IndfreeError,
    InfeasibleFamilyError,
    InternalInvariantError,
    ParameterError,
    ParseError,
    RangeError,
    ValidationError,
)
from .graph6 import (
    decode_graph6,
    decode_graph6_list,
    encode_graph6,
    encode_graph6_list,
)
from .graphs import (
    MAX_ORDER,
    Graph,
    complement,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    join,
    make_graph,
    matching_graph,
    path_graph,
    star_graph,
)
from .iso import Embedding, canonical_form, contains_induced, is_isomorphic, wl_colors

__version__ = "0.1.0"

# every name imported above, less the submodules those imports bind
__all__ = sorted(name for name, obj in globals().items() if name[0] != "_" and type(obj) is not type(iso))
