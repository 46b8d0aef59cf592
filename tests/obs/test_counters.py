"""CounterRegistry semantics and canonical JSON export."""

from __future__ import annotations

import json
import threading

from repro.obs import CounterRegistry


def test_count_and_get():
    counters = CounterRegistry()
    counters.count("kernels.dense")
    counters.count("kernels.dense", 4)
    assert counters.get("kernels.dense") == 5
    assert counters.get("missing") == 0


def test_add_is_alias_of_count():
    counters = CounterRegistry()
    counters.add("bytes.moved_raw", 1024)
    assert counters.get("bytes.moved_raw") == 1024


def test_merge_mapping_and_registry():
    a = CounterRegistry()
    a.count("x", 1)
    b = CounterRegistry()
    b.count("x", 2)
    b.count("y", 3)
    a.merge(b)
    a.merge({"z": 4})
    assert a.snapshot() == {"x": 3, "y": 3, "z": 4}


def test_snapshot_sorted_and_detached():
    counters = CounterRegistry()
    counters.count("zeta")
    counters.count("alpha")
    snapshot = counters.snapshot()
    assert list(snapshot) == ["alpha", "zeta"]
    snapshot["alpha"] = 99
    assert counters.get("alpha") == 1


def test_clear():
    counters = CounterRegistry()
    counters.count("x")
    counters.clear()
    assert counters.snapshot() == {}


def test_to_json_deterministic():
    counters = CounterRegistry()
    counters.count("b", 2)
    counters.count("a", 1)
    text = counters.to_json({"run": "bv_8"})
    assert text.endswith("\n")
    payload = json.loads(text)
    assert payload["counters"] == {"a": 1, "b": 2}
    assert payload["run"] == "bv_8"
    assert text == counters.to_json({"run": "bv_8"})


def test_to_json_without_extra_holds_only_counters():
    counters = CounterRegistry()
    assert counters.to_json() == '{\n "counters": {}\n}\n'
    counters.count("kernels.dense", 2)
    assert list(json.loads(counters.to_json())) == ["counters"]


def test_float_accumulators_add_and_merge():
    a = CounterRegistry()
    a.add("kernel_seconds.dense", 0.25)
    a.add("kernel_seconds.dense", 0.5)
    b = CounterRegistry()
    b.add("kernel_seconds.dense", 0.25)
    a.merge(b)
    assert a.get("kernel_seconds.dense") == 1.0
    assert isinstance(a.get("kernel_seconds.dense"), float)


def test_thread_safety_under_contention():
    counters = CounterRegistry()

    def work():
        for _ in range(1000):
            counters.count("hits")

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counters.get("hits") == 8000
