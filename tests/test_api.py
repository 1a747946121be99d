import importlib

# The public surface: a name is listed when a command, a demo, the benchmark,
# another module or an acceptance criterion uses it, or when it is
# closed-form theory under test.  Growing the API means editing this table.
PUBLIC = {
    "crtseq": [
        "BinarySequence", "CrtParams", "GridPoint", "Variant", "crt_inverse", "crt_map",
        "generate_sequence", "correlation_spectrum", "crt_epsilon", "epsilon_uniformity",
        "predicted_autocorrelation", "predicted_cross_range", "predicted_distribution",
    ],
    "crtseq.core": [
        "Variant", "CrtParams", "GridPoint", "BinarySequence", "crt_map", "crt_inverse",
        "generate_sequence", "sequence_to_array", "format_sequence_entry", "is_prime",
    ],
    "crtseq.correlation": [
        "CorrelationSpectrum", "CrossParams", "UnsupportedParameters", "correlation_spectrum",
        "cross_params", "predicted_cross_range", "reduced_generator", "predicted_distribution",
        "predicted_autocorrelation", "count_congruent", "pairwise_epsilon",
        "epsilon_uniformity", "crt_epsilon",
    ],
    "crtseq.channel": [
        "IDLE", "SUCCESS", "COLLISION", "ActivitySignal", "check_codes", "UserSpec",
        "Scenario", "ChannelTrace", "ThroughputReport", "simulate", "channel_activity",
        "construction_params", "throughput_lower_bound", "optimal_user_count",
        "peak_throughput_bound", "monte_carlo_throughput", "exhaustive_pair_throughput",
        "scenario_from_json",
    ],
    "crtseq.sync": [
        "Activated", "Deactivated", "ActivityDetector", "run_detector", "GuaranteeLevel",
        "Verdict", "sync_guarantee", "judge", "slot_matrix", "partial_cross_correlation",
        "UncoveredOnes", "uncovered_ones",
    ],
    "crtseq.erasure": [
        "GF", "PRIMITIVE_POLYS", "session_params", "code_dimension", "CodeSpec",
        "ErasureCode", "DecodeFailure", "PayloadError", "session_roundtrip", "SessionReport",
    ],
    "crtseq.baselines": ["BaselineFamily", "prime_sequences", "extended_prime_sequences"],
}


def test_public_surface_is_pinned():
    for name, listed in PUBLIC.items():
        module = importlib.import_module(name)
        assert module.__all__ == listed, name
        missing = [n for n in listed if not hasattr(module, n)]
        assert not missing, (name, missing)
