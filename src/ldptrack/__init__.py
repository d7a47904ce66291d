"""Locally private longitudinal frequency estimation.

Clients hold Boolean values that change at most k times over d steps; the
server continually estimates how many users hold 1, under local
differential privacy.  The package provides the dyadic client/server
protocol, a composed randomizer whose per-coordinate preservation gap
scales as eps / sqrt(k), three baseline randomizers, exact audits of the
privacy guarantee, and a Monte-Carlo benchmarking harness.
"""

from .baselines import ALGORITHMS, AlgorithmConfig, algorithm_config, make_client
from .dyadic import DerivativeStream, TruthSeries, decompose, derive
from .errors import CapacityError, ConfigError, ProtocolError, SparsityError
from .harness import (ExperimentSpec, RunMetrics, ScalingStudy, gen_population,
                      run_experiment, run_reference, scaling_study,
                      theoretical_bound)
from .protocol import (ClientState, ReportBatch, ReportRecord, ServerState,
                       client_init, client_step, read_reports, replay, server_init,
                       server_register, server_step, write_reports)
from .randomizer import (DistributionTable, RandomizerConfig,
                         exact_output_distribution, g_weight,
                         gap_lower_bound_expr, q_star, sample_composed_batch)
from .audit import (AuditReport, ChiSquareResult, audit_client, audit_client_certificate,
                    audit_client_sweep, audit_randomizer, chi_square)

__version__ = "0.1.0"
