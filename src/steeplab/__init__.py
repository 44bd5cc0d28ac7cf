"""steeplab: secrecy rates and simulation for probe-echo key exchange.

Two parties share a reciprocal fading channel.  One probes, the other
echoes the probe back with a secret superimposed, and an eavesdropper
with better hardware watches both phases.  This package computes every
closed-form secrecy rate for that setup, simulates the analog and
digital protocols end to end, and verifies each closed form against
independent numerical oracles.
"""
from .params import (ChannelRealization, ParamError, RateReport,
                     SystemParams, format_config, parse_config, read_config,
                     validate)
from .channel import (AnalogEpisode, SimulationError, episode_to_csv,
                      run_echo, run_probing, sample_channel_batch,
                      sample_channels, simulate_episode)
from .rates import (PerRealizationRates, alpha, corollary1_capacity,
                    effective_snrs, per_realization_rates, phi, power_budget,
                    theorem1_bounds, theorem2_lower_bound,
                    theorem3_lower_bound, xi_tilde_analog)
from .mmse import (EstimateResult, alice_estimate_s, alice_limit_mse,
                   eve_estimate_s, eve_estimate_xA, mse_ratio_eta)
from .digital import (BscParams, DigitalEpisode, ReconcilePlan,
                      ReconcileResult, binary_entropy, bsc_convolve,
                      effective_error_rates, reconcile_and_amplify,
                      reconcile_plan, run_digital_episode, validate_bsc,
                      xi_digital)
from .codes import (LdpcCode, decode_syndrome, hexdump, make_ldpc,
                    pack_bit_record, syndrome_of, toeplitz_hash,
                    unpack_bit_record)
from .verify import (OracleReport, discrete_mi_enumerate, empirical_snr,
                     gaussian_mi_logdet, mac_bounds_digital, run_oracle_suite,
                     theorem1_term_oracles)
from .cli import SweepSpec, emit_plotdata, run_rates, run_sweep

__version__ = "0.1.0"

__all__ = [
    "AnalogEpisode", "BscParams", "ChannelRealization", "DigitalEpisode",
    "EstimateResult", "LdpcCode", "OracleReport", "ParamError",
    "PerRealizationRates", "RateReport", "ReconcilePlan", "ReconcileResult",
    "SimulationError", "SweepSpec", "SystemParams",
    "alice_estimate_s", "alice_limit_mse", "alpha", "binary_entropy",
    "bsc_convolve", "corollary1_capacity", "decode_syndrome",
    "discrete_mi_enumerate", "effective_error_rates", "effective_snrs",
    "emit_plotdata", "empirical_snr", "episode_to_csv", "eve_estimate_s",
    "eve_estimate_xA", "format_config", "gaussian_mi_logdet", "hexdump",
    "mac_bounds_digital", "make_ldpc", "mse_ratio_eta", "pack_bit_record",
    "parse_config", "per_realization_rates", "phi", "power_budget",
    "read_config", "reconcile_and_amplify", "reconcile_plan",
    "run_digital_episode", "run_echo", "run_oracle_suite", "run_probing",
    "run_rates", "run_sweep", "sample_channel_batch", "sample_channels",
    "simulate_episode", "syndrome_of", "theorem1_bounds",
    "theorem1_term_oracles", "theorem2_lower_bound", "theorem3_lower_bound",
    "toeplitz_hash", "unpack_bit_record", "validate", "validate_bsc",
    "xi_digital", "xi_tilde_analog",
]
