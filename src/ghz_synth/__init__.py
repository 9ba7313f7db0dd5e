"""Topology-aware GHZ state preparation: synthesis, simulation, benchmarks.

Two synthesis routes are provided for arbitrary connected qubit-connectivity
graphs: a measurement-based protocol that fuses small star GHZ states with
mid-circuit measurements and feedforward corrections, and a purely unitary
protocol that grows the state outward by breadth-first search. Circuits are
verified exactly with a stabilizer simulator (cross-checked against a dense
state-vector oracle) and benchmarked for depth, gate counts, measurement
overhead, and sampled Hellinger fidelity.
"""

from .bench import BenchmarkRecord, ProtocolSpec, SweepConfig, run_sweep
from .circuit import (
    CX,
    Circuit,
    CondX,
    H,
    MalformedCircuitError,
    MeasureZ,
    Operation,
    Reset,
    X,
    count_2q,
    count_measurements,
    depth,
    export_qasm,
)
from .growing import synthesize_growing
from .layouts import (
    LayoutGraph,
    average_degree,
    connected_erdos_renyi,
    eagle_127,
    random_connected_subgraph,
    rect_grid,
)
from .merging import (
    AbsoluteSize,
    HighestDegree,
    MergePlan,
    ScalingFactor,
    Star,
    StarSelectionStrategy,
    build_star_ghz,
    plan_merges,
    select_stars,
    synthesize_merging,
)
from .metrics import (
    Distribution,
    SummaryStats,
    counts_to_distribution,
    ghz_ideal_distribution,
    hellinger_fidelity,
    is_ghz,
    summarize,
)
from .schema import InputError
from .stabilizer import (
    CapacityError,
    InvalidForcingError,
    NoiseModel,
    SimOutcome,
    Tableau,
    run,
    sample_counts,
)
from .statevector import DenseOutcome, ghz_state, run_dense, state_fidelity

__version__ = "0.1.0"
