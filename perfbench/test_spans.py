"""Self-time arithmetic of the span tracer.

Run with ``python3 -m pytest perfbench/test_spans.py``.
"""

import threading

from spans import Span, Tracer, covered_length, self_times


def test_overlapping_children_from_two_threads_count_once():
    parent = Span(1, None, "psd.certify", 0.0, 10.0, thread=100)
    spans = [
        parent,
        Span(2, 1, "psd.gram_matrix", 1.0, 5.0, thread=200),
        Span(3, 1, "psd.gram_matrix", 3.0, 7.0, thread=300),  # overlaps span 2
        Span(4, 1, "psd.gram_matrix", 9.0, 12.0, thread=200),  # runs past the parent
        Span(5, 2, "profiles.eval", 2.0, 4.0, thread=200),
    ]
    selfs = self_times(spans)
    # children cover [1, 7] and [9, 10] of the parent: 7 of its 10 seconds
    assert selfs[1] == 3.0
    assert selfs[2] == 2.0
    assert selfs[3] == 4.0
    assert selfs[5] == 2.0


def test_covered_length_merges_nested_and_touching_intervals():
    assert covered_length([(0, 2), (2, 3), (0.5, 1.0), (5, 6)], 0, 10) == 4
    assert covered_length([(4, 3)], 0, 10) == 0
    assert covered_length([], 0, 10) == 0


def test_carry_parents_worker_thread_spans_to_the_caller():
    tracer = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def leaf():
        barrier.wait()  # both leaves are open at once, on two threads

    traced_leaf = tracer.wrap("leaf", leaf)

    def fan_out():
        workers = [threading.Thread(target=tracer.carry(traced_leaf)) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)

    tracer.wrap("root", fan_out)()
    spans = tracer.take()
    root = next(s for s in spans if s.name == "root")
    leaves = [s for s in spans if s.name == "leaf"]
    assert len(leaves) == 2
    assert len({s.thread for s in leaves}) == 2
    assert all(s.parent == root.id for s in leaves)
    assert max(a.start for a in leaves) < min(a.end for a in leaves)  # they overlap
    union = covered_length([(s.start, s.end) for s in leaves], root.start, root.end)
    assert union < sum(s.duration for s in leaves)
    assert self_times(spans)[root.id] == root.duration - union
    assert tracer.take() == []
