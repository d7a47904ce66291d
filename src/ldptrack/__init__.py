"""Locally private longitudinal frequency estimation.

Clients hold Boolean values that change at most k times over d steps; the
server continually estimates how many users hold 1, under local
differential privacy.  The package provides the dyadic client/server
protocol, a composed randomizer whose per-coordinate preservation gap
scales as eps / sqrt(k), three baseline randomizers, exact enumeration
audits of the privacy guarantee, and a Monte-Carlo benchmarking harness.
"""

from .baselines import (ALGORITHMS, AlgorithmConfig, algorithm_config, bns19_config,
                        futurerand_algorithm, make_client, naive_config,
                        sample_one_config)
from .dyadic import (DerivativeStream, DyadicInterval, TruthSeries, decompose,
                     derive, order_support, partial_sum)
from .errors import CapacityError, ConfigError, ProtocolError, SparsityError
from .harness import (ExperimentSpec, RunMetrics, ScalingStudy, gen_population,
                      run_experiment, run_reference, scaling_study,
                      theoretical_bound)
from .protocol import (ClientState, EstimateSeries, ReportRecord, ServerState,
                       client_init, client_step, read_reports, server_init,
                       server_register, server_step, write_reports)
from .randomizer import (DistributionTable, RandomizerConfig, annulus_bounds,
                         compose_randomize, exact_output_distribution,
                         futurerand_config, g_weight, gap, gap_lower_bound_expr,
                         q_star, sample_outside_annulus)
from .audit import (AuditReport, ChiSquareResult, GapDiagnostics, audit_client,
                    audit_client_sweep, audit_randomizer, chi_square, verify_gap)

__version__ = "0.1.0"
