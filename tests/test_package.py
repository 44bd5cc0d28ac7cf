"""The public API: every name in ``steeplab.__all__`` and nothing else."""
import ast
from pathlib import Path

import steeplab

EXPORTS = [
    "AnalogEpisode", "BscParams", "ChannelRealization", "DigitalEpisode",
    "EstimateResult", "LdpcCode", "OracleReport", "ParamError",
    "PerRealizationRates", "RateReport", "ReconcilePlan", "ReconcileResult",
    "SimulationError", "SweepSpec", "SystemParams", "alice_estimate_s",
    "alice_limit_mse", "alpha", "binary_entropy", "bsc_convolve",
    "corollary1_capacity", "decode_syndrome", "discrete_mi_enumerate",
    "effective_error_rates", "effective_snrs", "emit_plotdata",
    "empirical_snr", "episode_to_csv", "eve_estimate_s", "eve_estimate_xA",
    "format_config", "gaussian_mi_logdet", "hexdump", "mac_bounds_digital",
    "make_ldpc", "mse_ratio_eta", "pack_bit_record", "parse_config",
    "per_realization_rates", "phi", "power_budget", "read_config",
    "reconcile_and_amplify", "reconcile_plan", "run_digital_episode",
    "run_echo", "run_oracle_suite", "run_probing", "run_rates", "run_sweep",
    "sample_channel_batch", "sample_channels", "simulate_episode",
    "syndrome_of", "theorem1_bounds", "theorem1_term_oracles",
    "theorem2_lower_bound", "theorem3_lower_bound", "toeplitz_hash",
    "unpack_bit_record", "validate", "validate_bsc", "xi_digital",
    "xi_tilde_analog",
]


def test_all_is_pinned_and_resolves():
    assert sorted(steeplab.__all__) == EXPORTS
    for name in steeplab.__all__:
        assert getattr(steeplab, name) is not None, name


def test_enumeration_oracles_live_in_verify():
    assert steeplab.mac_bounds_digital.__module__ == "steeplab.verify"


def _check_calls(node) -> int:
    return sum(isinstance(n, ast.Call)
               and getattr(n.func, "id", getattr(n.func, "attr", None))
               in ("validate", "validate_bsc")
               for n in ast.walk(node))


def test_params_are_validated_only_when_built():
    # a parameter set is valid by construction, so the checks run in the
    # two __post_init__ methods and nowhere else in the package
    found = {}
    for path in sorted(Path(steeplab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        total = _check_calls(tree)
        if total:
            found[path.name] = (total, sum(
                _check_calls(f) for f in ast.walk(tree)
                if isinstance(f, ast.FunctionDef) and f.name == "__post_init__"))
    assert found == {"digital.py": (1, 1), "params.py": (1, 1)}


def _pool_callers(node, owner=None):
    """(function, call) for each call of ``in_order`` under node, the
    function being the innermost ``def`` around the call."""
    if isinstance(node, ast.FunctionDef):
        owner = node.name
    if isinstance(node, ast.Call) and getattr(
            node.func, "id", getattr(node.func, "attr", None)) == "in_order":
        yield owner
    for child in ast.iter_child_nodes(node):
        yield from _pool_callers(child, owner)


def test_the_pool_has_the_callers_its_docstring_names():
    # the _workers docstring lists every fan-out; a new one comes with a
    # measured gain and an edit of this list
    callers, spawners = set(), {}
    for path in sorted(Path(steeplab.__file__).parent.glob("*.py")):
        if path.name == "_workers.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers.update(f"{path.stem}.{f}" for f in _pool_callers(tree))
        names = {getattr(n, "id", getattr(n, "attr", getattr(n, "name", "")))
                 for n in ast.walk(tree)}
        hits = names & {"ThreadPoolExecutor", "Thread", "cpu_count",
                        "sched_getaffinity"}
        if hits:
            spawners[path.name] = hits
    assert callers == {"cli.run_sweep", "channel._episode_csv_parts",
                       "codes.decode_syndrome",
                       "digital.reconcile_and_amplify",
                       "verify.run_oracle_suite"}
    assert spawners == {}
