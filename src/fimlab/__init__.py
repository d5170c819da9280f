"""fimlab: exact computation with truncated FI^m- and FI^m x G-modules over Q.

The package computes with finitely generated modules over the m-fold product
of the category of finite sets and injections (optionally times a finite
group), truncated to a degree window: free/induced/co-free constructions,
shift/kernel/derivative functors, torsion filtrations, homology in degrees 0
and 1 with honest EXACT / WINDOW_BOUNDED / INCONCLUSIVE statuses, and
verification drivers for the shift theorem and the classification of
finitely generated injectives, all in exact rational arithmetic.
"""

from .category import GroupTable, Window
from .linalg import RationalMatrix, Subspace
from .modules import (
    MarginError,
    ModuleMap,
    Presentation,
    TruncatedModule,
    direct_sum,
    external_tensor,
    hom_space,
    make_cofree,
    make_coinduced,
    make_free,
    quotient,
    submodule_generated,
)
from .functors import (
    averaging_splitting,
    canonical_map,
    derivative,
    derivative_sum,
    ind,
    induced_module,
    kernel_functor,
    kernel_sum,
    make_induced,
    res,
    shift,
    shift_prod,
    shift_sum,
)
from .homology import (
    EXACT,
    INCONCLUSIVE,
    WINDOW_BOUNDED,
    detect_torsion,
    h0,
    h1,
    is_S_induced,
    is_S_semi_induced,
    slice_module,
    tor_filtration,
)
from .theorems import (
    cogenerate,
    embed_into_shift,
    end_ring,
    ext1_vanishes,
    identify_summands,
    is_local_end,
    shift_theorem_search,
)

__version__ = "0.1.0"

# The elimination kernel in use; there is one, in pure Python.
BACKEND = "pure"
