"""Cographs, cotrees, (s,k)-polarity, and minimal obstruction mining."""

__version__ = "0.1.0"

from .graphs import Graph, graph6_decode, graph6_encode  # noqa: F401
from .cotrees import (  # noqa: F401
    Cotree,
    NotCographError,
    P4Certificate,
    canonical_code,
    cotree_of,
    is_cograph,
    is_isomorphic,
    realize,
    recognize,
)
from .expressions import ExprError, evaluate, parse, unparse  # noqa: F401
from .polarity import (  # noqa: F401
    INF,
    PartitionWitness,
    PolarProfile,
    is_polar,
    profile_bruteforce,
    profile_of_graph,
    validate_witness,
)
from .obstructions import (  # noqa: F401
    ObstructionRecord,
    cograph_counts,
    enumerate_cographs,
    mine_obstructions,
)
from .catalog import MiningCache, verify_all, verify_claim  # noqa: F401
