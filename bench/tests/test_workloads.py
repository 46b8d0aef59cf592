from workloads import (
    BATCH_REPEAT_EVERY,
    DENSE_CIRCUITS,
    SMALL_FAMILIES,
    WORKLOADS,
    requests_for,
)


def test_requests_are_a_pure_function_of_the_seed():
    for workload in WORKLOADS:
        assert requests_for(workload, 3) == requests_for(workload, 3)


def test_seed_changes_order_and_sampling_seed_not_the_circuits():
    first = requests_for("small_mixed", 0)
    second = requests_for("small_mixed", 1)
    assert [r.name for r in first] != [r.name for r in second]
    assert sorted(r.qasm for r in first) == sorted(r.qasm for r in second)
    assert {r.sample_seed for r in first} == {0}
    assert {r.sample_seed for r in second} == {1}


def test_small_request_list_shape():
    mixed = requests_for("small_mixed", 0)
    assert len(mixed) == 108
    # gs and qft ignore the generator seed, so 12 texts repeat.
    assert len({r.qasm for r in mixed}) == 96
    assert all(r.qasm.startswith("OPENQASM 2.0;") for r in mixed)
    cli = requests_for("small_cli", 0)
    assert sorted(r.name for r in cli) == sorted(
        f"{family}_{width}" for family in SMALL_FAMILIES for width in (8, 13)
    )
    assert {r.qasm for r in cli} <= {r.qasm for r in mixed}
    assert sorted(r.qasm for r in cli) == sorted(r.qasm for r in requests_for("small_cli", 1))
    batch = requests_for("small_batch", 0)
    assert batch == mixed + mixed[::BATCH_REPEAT_EVERY]
    assert len(batch) == 144
    # Every job beyond the 96 distinct texts is a cache hit.
    assert len(batch) - len({r.qasm for r in batch}) == 48


def test_dense_workloads_send_their_three_circuits():
    for workload, circuits in DENSE_CIRCUITS.items():
        names = sorted(r.name for r in requests_for(workload, 5))
        assert names == sorted(f"{family}_{width}" for family, width in circuits)


def test_paper_figures_sends_no_qasm():
    assert requests_for("paper_figures", 0) == []
