import types

import mmvgreedy

# the package's public names, each listed once in its module's __all__
PUBLIC_NAMES = [
    "ConvexityConstants", "DivergenceError", "ExperimentSpec",
    "IterationRecord", "MmvObjective", "RegimeError", "RestrictedPropertyReport",
    "RipEstimate", "RngStream", "RowSupport", "SOLVERS", "SolveTrace",
    "SolverConfig", "TraceTable", "add_noise",
    "contraction_cstogradmp", "contraction_cstoiht", "contraction_mstogradmp",
    "contraction_mstoiht", "cstogradmp", "cstoiht", "draw_index",
    "frobenius_norm", "gaussian_sensing_matrix", "generate_instance",
    "least_squares_solve", "load_jsm", "mstogradmp", "mstoiht",
    "project_rows", "rip_constant", "row_norms",
    "row_sparse_signal", "row_support", "run_experiment", "run_sweep",
    "save_jsm", "support_union", "tolerance_mstogradmp",
    "top_k_indices", "top_k_rows", "verify_rsc_rss",
]


def test_root_exports_exactly_the_module_public_names():
    names = sorted(
        name for name, value in vars(mmvgreedy).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC_NAMES
    modules = [value for value in vars(mmvgreedy).values()
               if isinstance(value, types.ModuleType) and hasattr(value, "__all__")]
    assert sorted(name for module in modules for name in module.__all__) == PUBLIC_NAMES
