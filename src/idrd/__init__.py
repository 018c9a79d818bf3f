"""Exact solvers, closed-form families, bound checks, and tree
classification for independent double Roman domination and its relatives."""

import types

from .graph import (
    EdgeListParseError,
    Graph,
    build_graph,
    parse_edge_list,
    prufer_decode,
    random_graph,
    random_tree,
    serialize_edge_list,
)
from .labelings import (
    DRLabeling,
    R2Labeling,
    RainbowLabeling,
    ValidationResult,
    is_2rdf,
    is_drdf,
    is_i2rdf,
    is_idrdf,
    is_ir2df,
    is_r2df,
)
from .rng import SplitMix64
from .solvers import (
    DEFAULT_SIZE_LIMIT,
    INVARIANT_NAMES,
    InvariantTable,
    SizeLimitError,
    compute_invariants,
    domination_number,
    gamma_dr,
    gamma_r2,
    i2rdn,
    idn,
    idrdn,
    ir2dn,
    max_matching,
    maximal_independent_sets,
    min_edge_cover,
    packing_number,
    tree_idn,
    tree_idrdn,
    tree_ir2dn,
)

__version__ = "0.1.0"

# The public names are the imported ones: no leading underscore, no module.
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
)
