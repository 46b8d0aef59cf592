from compare import compare, exact_changes, verdict

STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


def scaled(values, factor):
    return [v * factor for v in values]


def test_unchanged_within_the_bound():
    assert verdict(STEADY, scaled(STEADY, 1.03), 0.05, "lower") == "unchanged"
    assert verdict(STEADY, scaled(STEADY, 0.97), 0.05, "lower") == "unchanged"


def test_regressed_and_improved_follow_the_direction():
    assert verdict(STEADY, scaled(STEADY, 1.2), 0.05, "lower") == "regressed"
    assert verdict(STEADY, scaled(STEADY, 0.8), 0.05, "lower") == "improved"
    assert verdict(STEADY, scaled(STEADY, 1.2), 0.05, "higher") == "improved"
    assert verdict(STEADY, scaled(STEADY, 0.8), 0.05, "higher") == "regressed"


def test_wide_overlapping_runs_are_unresolved_not_unchanged():
    noisy = [0.7, 1.3, 0.8, 1.2, 0.75, 1.25, 0.9, 1.1, 0.85, 1.15]
    assert verdict(noisy, scaled(noisy, 1.02), 0.05, "lower") == "unresolved"
    # Wide but disjoint: every run of B beats every run of A.
    assert verdict(noisy, scaled(noisy, 0.4), 0.05, "lower") == "improved"


def record(workload, seed, trace, metrics):
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
    }


def test_compare_rows_and_exit_flag():
    a = [record("dense_wide", s, 0, {"request_s": v, "setup_s": 0.3})
         for s, v in enumerate(STEADY)]
    b = [record("dense_wide", s, 0, {"request_s": v * 1.5, "setup_s": 0.3})
         for s, v in enumerate(STEADY)]
    rows, bad = compare(a, b)
    assert bad
    assert any("request_s" in row and row.endswith("regressed") for row in rows)
    assert any("setup_s" in row and row.endswith("unchanged") for row in rows)
    rows, bad = compare(a, a)
    assert not bad


def test_exact_layer_metrics_must_be_identical_on_the_same_seed():
    a = [record("small_batch", 0, 1, {"service.cache.hits": 48, "service.drain_s": 9.0})]
    same = [record("small_batch", 0, 1, {"service.cache.hits": 48, "service.drain_s": 7.0})]
    other = [record("small_batch", 0, 1, {"service.cache.hits": 47, "service.drain_s": 9.0})]
    unrelated_seed = [record("small_batch", 1, 1, {"service.cache.hits": 47})]
    assert exact_changes(a, same) == []
    assert exact_changes(a, unrelated_seed) == []
    changed = exact_changes(a, other)
    assert len(changed) == 1 and changed[0].endswith("changed")
    assert compare(a, other)[1]
