"""Spectral clustering for multiplex networks.

Builds the two nk x nk multiplex operators (supra-adjacency and
dynamical-coupling), clusters their Laplacians, verifies the exact cut
identities against brute-force oracles, and reproduces the synthetic
experiment families as deterministic seeded sweeps.
"""

from .core import (
    DynamicCoupling,
    MultiplexNetwork,
    load_network,
    save_network,
)
from .cuts import (
    CutReport,
    brute_force_min_cut,
    cut_cost,
    decompose,
    decompose_dynamic,
    decompose_supra,
)
from .errors import MxspecError
from .generators import (
    RngSeed,
    SbmSpec,
    gen_er_layer,
    gen_er_multiplex,
    gen_fixed_sbm_multiplex,
    gen_overlap_multiplex,
    gen_sbm_layer,
)
from .operators import (
    SupraOperator,
    build_dynamic,
    build_supra,
    laplacian,
    symmetrize,
)
from .spectral import (
    EigenSystem,
    Partition,
    eig_sym,
    fiedler_bipartition,
    match_partitions,
    spectral_kway,
)
from .experiments import (
    SweepResult,
    classify_regime,
    fraction_copies_together,
    run_fixed_sbm_experiment,
    run_overlap_kway,
)

__version__ = "0.1.0"
