"""Timing proxies: spans nest, sum to their parent, and come off again."""

import json

from tracing import Tracer


class Base:
    def leaf(self, x):
        return x + 1


class Layer(Base):
    def outer(self, x):
        return self.leaf(x) + self.leaf(x)


def test_child_spans_sum_to_the_parent(tmp_path):
    tracer = Tracer()
    tracer.patch(Layer, "outer", "layer.outer", lambda args, out: out)
    tracer.patch(Layer, "leaf", "layer.leaf")        # inherited from Base
    try:
        tracer.tick = 7
        assert Layer().outer(1) == 4                  # results pass through
    finally:
        tracer.unpatch()
    assert "leaf" not in Layer.__dict__ and Layer().outer(1) == 4
    assert len(tracer.spans) == 3                     # nothing after unpatch

    (outer,) = tracer.durations("layer.outer")
    leaves = tracer.durations("layer.leaf")
    (outer_self,) = tracer.self_durations("layer.outer")
    assert len(leaves) == 2 and sum(leaves) <= outer
    assert outer_self + sum(leaves) == outer
    assert tracer.counts("layer.outer") == [4]
    everything = [(0.0, float("inf"))]
    assert tracer.top_level_total(everything) == outer   # leaves have a parent
    assert tracer.count(everything) == 3
    assert tracer.count([(0.0, 0.0)]) == 0

    path = tmp_path / "spans.jsonl"
    tracer.write_jsonl(str(path), {"workload": "unit"})
    header, *rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert header["workload"] == "unit"
    assert [r["parent"] for r in rows] == [-1, 0, 0]
    assert all(r["tick"] == 7 and r["t1"] >= r["t0"] for r in rows)


def test_a_raising_call_still_closes_its_span():
    tracer = Tracer()

    def boom():
        raise KeyError("x")
    proxied = tracer.wrap(boom, "boom")
    try:
        proxied()
    except KeyError:
        pass
    with tracer.span("after"):
        pass
    assert [s[1] for s in tracer.spans] == [-1, -1]   # stack was unwound
