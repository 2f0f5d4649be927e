"""Age-and-size structured branching processes: renewal kernels, Malthus
exponent, Monte Carlo simulation, drift checks and explicit minorants.
"""

__version__ = "0.1.0"

from .errors import (BracketFailure, ConfigError, DegenerateData,
                     EmptyMinorant, GridMismatch, InsufficientData,
                     InvalidModel, MalthusError, NoConvergence,
                     PopulationCapExceeded)
from .model import (BetaFragmentation, ConstantHazard, MarkovModel, ModelSpec,
                    PhasePoint, TableFragmentation, TableHazard,
                    UniformFragmentation, make_adder, validate)
from .renewal import (FirstJumpLaw, KernelAssembler, KernelMatrix,
                      OrbitRule, RowQuadrature, SizeGrid)
from .eigen import (EigenResult, euler_lotka_residual, leading_eigen,
                    reconstruct_h, solve_malthus, spectral_value)
from .simulate import (ConsistencyReport, PopulationState,
                       SimConfig, Trajectory, division_age_cdf,
                       empirical_functional, estimate_malthus,
                       generator_consistency_check, individual_rng,
                       run_replicates, sample_division_age,
                       simulate_population)
from .stationary import (Density2D, DoeblinConstants, DriftReport,
                         ErgodicityReport, EtaStarProfile, check_drift,
                         default_V, doeblin_minorant, drift_offset,
                         empirical_profile, ergodicity_report,
                         pi_star, pi_star_density,
                         reference_profile, skeleton_mc_density,
                         solve_eta_star, weighted_tv)


def __getattr__(name):  # from cli on first use: `python -m malthus.cli` must find it unloaded
    if name in ("load_config", "model_from_config"):
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module 'malthus' has no attribute {name!r}")
