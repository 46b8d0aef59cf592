from spans import OFF, Span, SpanRecorder, self_times_ns


def span(span_id, parent, start, end, name="x"):
    return Span(span_id, name, parent, None, start, end)


def test_self_time_subtracts_direct_children_only():
    spans = [
        span(0, None, 0, 100),
        span(1, 0, 10, 40),
        span(2, 1, 15, 20),  # grandchild: already inside span 1
        span(3, 0, 50, 70),
    ]
    selfs = self_times_ns(spans)
    assert selfs == {0: 50, 1: 25, 2: 5, 3: 20}
    # The shares of one tree sum to the root's duration.
    assert sum(selfs.values()) == spans[0].duration_ns


def test_overlapping_children_are_counted_once():
    spans = [span(0, None, 0, 100), span(1, 0, 10, 60), span(2, 0, 40, 80)]
    assert self_times_ns(spans)[0] == 30


def test_child_outside_the_parent_is_clipped():
    spans = [span(0, None, 0, 100), span(1, 0, 90, 130)]
    assert self_times_ns(spans)[0] == 90


def test_recorder_nests_and_inherits_the_request_id(tmp_path):
    rec = SpanRecorder()
    with rec.span("request", "007-bv_8") as outer:
        with rec.span("simulator.run") as inner:
            pass
    with rec.span("layers"):
        pass
    assert [s.parent for s in rec.spans] == [None, outer.span_id, None]
    assert inner.request == "007-bv_8"
    assert rec.spans[2].request is None
    assert outer.start_ns <= inner.start_ns <= inner.end_ns <= outer.end_ns
    assert isinstance(outer.start_ns, int)
    assert rec.seconds("request") == outer.duration_ns / 1e9
    rec.write(tmp_path / "out" / "trace.json")
    assert (tmp_path / "out" / "trace.json").read_text().count('"self_ns"') == 3


def test_off_recorder_records_nothing():
    with OFF.span("request", "x"):
        pass
    assert not OFF.enabled
