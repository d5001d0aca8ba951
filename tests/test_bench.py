import dataclasses
import statistics

import numpy as np
import pytest

from mmvgreedy.bench import (
    CSV_HEADER,
    ExperimentSpec,
    add_noise,
    gaussian_sensing_matrix,
    generate_instance,
    row_sparse_signal,
    run_experiment,
    run_sweep,
)
from mmvgreedy.linalg import RngStream
from mmvgreedy.sparsity import row_support


def small_spec(**overrides):
    base = dict(
        n=30, m=20, L=3, k=3, noise_sigma=0.0, algo="mstoiht",
        batch_size=1, gamma=1.0, max_iter=8, tol=0.0, trials=3, seed=42,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


def test_sensing_matrix_columns_are_normalized():
    A = gaussian_sensing_matrix(100, 200, RngStream(1, (0,)))
    np.testing.assert_allclose(np.linalg.norm(A, axis=0), 1.0, atol=1e-12)


def test_sensing_matrix_deterministic():
    A = gaussian_sensing_matrix(10, 20, RngStream(7, (3,)))
    B = gaussian_sensing_matrix(10, 20, RngStream(7, (3,)))
    np.testing.assert_array_equal(A, B)


def test_sensing_matrix_entry_statistics():
    # entries are drawn with variance 1/m (=1/100 here); normalization is
    # close to neutral, so pooled post-normalization moments stay near that
    means, variances = [], []
    for seed in range(50):
        A = gaussian_sensing_matrix(100, 200, RngStream(seed, (0,)))
        means.append(A.mean())
        variances.append(A.var())
    assert abs(np.mean(means)) < 0.01
    assert abs(np.mean(variances) - 0.01) < 0.002


def test_signal_full_support_when_k_equals_n():
    X = row_sparse_signal(6, 3, 6, RngStream(2, (0,)))
    assert len(row_support(X)) == 6


def test_signal_row_sparsity_is_exact():
    for k in (1, 4, 9):
        X = row_sparse_signal(12, 5, k, RngStream(3, (k,)))
        assert len(row_support(X)) == k


def test_signal_support_is_uniform():
    counts = np.zeros(10)
    rng = RngStream(4, (0,))
    for _ in range(2000):
        X = row_sparse_signal(10, 1, 2, rng)
        counts[list(row_support(X).indices)] += 1
    np.testing.assert_allclose(counts / 2000, 0.2, atol=0.03)


def test_add_noise_zero_sigma_is_identity():
    Y = RngStream(5, (0,)).standard_normal((4, 3))
    np.testing.assert_array_equal(add_noise(Y, 0.0, RngStream(6, (0,))), Y)


def test_add_noise_variance():
    Y = np.zeros((100, 40))
    levels = []
    for seed in range(10):
        out = add_noise(Y, 0.02, RngStream(seed, (1,)))
        levels.append((out**2).mean())
    assert np.mean(levels) == pytest.approx(4e-4, rel=0.3)


def test_add_noise_deterministic():
    Y = np.ones((3, 3))
    a = add_noise(Y, 0.5, RngStream(9, (0,)))
    b = add_noise(Y, 0.5, RngStream(9, (0,)))
    np.testing.assert_array_equal(a, b)


def test_trace_table_shape_single_trial_single_iter():
    table = run_experiment(small_spec(trials=1, max_iter=1))
    trial_rows = table.trial_rows(0)
    assert [r.iteration for r in trial_rows] == [0, 1]
    assert trial_rows[0].rel_err == 1.0
    assert trial_rows[0].time_s == 0.0


def test_trace_starts_at_unit_error():
    table = run_experiment(small_spec())
    for trial in range(3):
        assert table.trial_rows(trial)[0].rel_err == 1.0


def test_csv_header_and_determinism():
    spec = small_spec()
    text_a = run_experiment(spec).to_csv_text()
    text_b = run_experiment(spec).to_csv_text()
    assert text_a.splitlines()[0] == CSV_HEADER
    assert text_a == text_b


def test_csv_wall_timing_differs_but_default_is_stable():
    spec = small_spec()
    table = run_experiment(spec)
    off = table.to_csv_text(timing="off")
    wall = table.to_csv_text(timing="wall")
    assert off != wall  # real timings are present only in wall mode
    # time column is identically zero in the default mode
    for line in off.splitlines()[1:]:
        assert line.split(",")[3] == "0.0"


def test_first_trials_invariant_under_trial_count():
    few = run_experiment(small_spec(trials=2))
    many = run_experiment(small_spec(trials=5))
    for trial in range(2):
        a = few.trial_rows(trial)
        b = many.trial_rows(trial)
        assert [(r.iteration, r.rel_err, r.objective) for r in a] == [
            (r.iteration, r.rel_err, r.objective) for r in b
        ]


def test_aggregate_rows_cover_every_iteration():
    table = run_experiment(small_spec(tol=1e-3, max_iter=20))
    horizon = max(r.iteration for r in table.rows)
    means = [r for r in table.aggregates if r.trial == "mean"]
    medians = [r for r in table.aggregates if r.trial == "median"]
    assert [r.iteration for r in means] == list(range(horizon + 1))
    assert [r.iteration for r in medians] == list(range(horizon + 1))


def test_queries_and_aggregates_match_the_csv_rows():
    spec = small_spec(gamma=20.0, batch_size=20, max_iter=300, tol=1e-3, trials=6)
    table = run_experiment(spec)
    rows = {}
    for line in table.to_csv_text(timing="wall").splitlines()[1:]:
        trial, algo, it, *values = line.split(",")
        assert algo == spec.algo
        rows.setdefault(trial, []).append((int(it), *map(float, values)))
    trials = [rows.pop(str(t)) for t in range(spec.trials)]
    assert sorted(rows) == ["mean", "median"]
    stops = {
        "diverged" if t in table.divergences
        else "max_iter" if trial[-1][0] == spec.max_iter else "tolerance"
        for t, trial in enumerate(trials)
    }
    assert stops == {"diverged", "max_iter", "tolerance"}

    for t, trial in enumerate(trials):
        assert [r[0] for r in trial] == list(range(len(trial)))
        assert [
            (r.iteration, r.time_s, r.rel_err, r.objective)
            for r in table.trial_rows(t)
        ] == trial
    assert list(table.final_rel_errs()) == [trial[-1][2] for trial in trials]
    assert list(table.total_times()) == [trial[-1][1] for trial in trials]
    for threshold in (0.5, 1e-2, 1e-8):
        assert list(table.hit_iterations(threshold)) == [
            next((r[0] for r in trial if r[2] <= threshold), spec.max_iter + 1)
            for trial in trials
        ]

    horizon = max(len(trial) for trial in trials)
    for label, reduce in (("mean", statistics.fmean), ("median", statistics.median)):
        assert [r[0] for r in rows[label]] == list(range(horizon))
        for it, row in enumerate(rows[label]):
            # a trial that stopped before it carries its last row forward
            at_it = [trial[min(it, len(trial) - 1)] for trial in trials]
            for col in (1, 2, 3):
                want = reduce(r[col] for r in at_it)
                assert row[col] == pytest.approx(want, rel=1e-12), (label, it, col)


def test_workers_do_not_change_results():
    spec = small_spec(trials=4)
    a = run_experiment(spec, workers=1).to_csv_text()
    b = run_experiment(spec, workers=3).to_csv_text()
    assert a == b


def test_divergence_is_recorded_not_fatal():
    spec = small_spec(gamma=5e4, batch_size=20, max_iter=300, trials=2)
    table = run_experiment(spec)
    assert table.divergences  # at least one trial blew up
    # rows for the diverged trial still present (iteration 0 at minimum)
    for trial in table.divergences:
        assert table.trial_rows(trial)


def test_generate_instance_consistency():
    spec = small_spec(noise_sigma=0.0)
    A, X_star, Y = generate_instance(spec, 0)
    np.testing.assert_allclose(Y, A @ X_star, atol=1e-15)
    assert len(row_support(X_star)) == spec.k
    # noisy variant differs from the clean one
    A2, X2, Y2 = generate_instance(dataclasses.replace(spec, noise_sigma=0.05), 0)
    np.testing.assert_array_equal(A, A2)
    np.testing.assert_array_equal(X_star, X2)
    assert not np.array_equal(Y, Y2)


def test_hit_iterations_and_final_errors():
    spec = small_spec(algo="mstogradmp", k=3, max_iter=20, tol=1e-9)
    table = run_experiment(spec)
    finals = table.final_rel_errs()
    assert finals.shape == (3,)
    hits = table.hit_iterations(1e-6)
    assert hits.shape == (3,)
    for trial in range(3):
        if finals[trial] <= 1e-6:
            assert hits[trial] <= spec.max_iter


def test_sweep_writes_one_csv_per_value(tmp_path):
    base = small_spec(trials=2, max_iter=4)
    written = run_sweep(base, "sparsity", [2, 4], tmp_path)
    assert [p.name for p in written] == ["sparsity_2.csv", "sparsity_4.csv"]
    for path in written:
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER


def test_sweep_noise_values_are_floats(tmp_path):
    base = small_spec(trials=1, max_iter=3)
    written = run_sweep(base, "noise", [0.02, 0.08], tmp_path)
    assert [p.name for p in written] == ["noise_0.02.csv", "noise_0.08.csv"]


def test_sweep_unknown_param(tmp_path):
    with pytest.raises(ValueError):
        run_sweep(small_spec(), "granularity", [1], tmp_path)


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(trials=0)
    with pytest.raises(ValueError):
        small_spec(k=31)  # k > n
    with pytest.raises(ValueError):
        small_spec(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        small_spec(algo="gradient_descent")
    for bad in (dict(noise_sigma=np.nan), dict(noise_sigma=np.inf),
                dict(gamma=np.inf), dict(gamma=np.nan), dict(tol=np.nan)):
        with pytest.raises(ValueError):
            small_spec(**bad)


def test_spec_rejects_batches_larger_than_m_and_matching_past_half_n():
    small_spec(batch_size=20)  # m = 20 components
    with pytest.raises(ValueError, match="batch_size"):
        small_spec(batch_size=21)
    small_spec(algo="mstoiht", k=16)  # IHT needs no 2k <= n
    for algo in ("mstogradmp", "cstogradmp"):
        small_spec(algo=algo, k=15)  # 2k = n = 30
        with pytest.raises(ValueError, match="2k <= n"):
            small_spec(algo=algo, k=16)


def test_sweep_validates_every_value_before_the_first_run(tmp_path):
    with pytest.raises(ValueError, match="batch_size"):
        run_sweep(small_spec(), "batch", [1, 21], tmp_path)
    assert not list(tmp_path.iterdir())
