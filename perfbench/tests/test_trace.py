"""Self-time arithmetic, metric names and wrapper installation of the tracer."""

import itertools

from perfbench import trace


def make_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_on_nested_call_tree():
    # root(0..10) -> a(1..6) -> b(2..4); root -> c(7..9).
    tracer = trace.Tracer(clock=make_clock([0, 1, 2, 4, 6, 7, 9, 10]))

    b = tracer.wrap("b", lambda: None)
    c = tracer.wrap("c", lambda: None)
    a = tracer.wrap("a", lambda: b())

    def body():
        a()
        c()

    tracer.wrap("root", body)()
    totals = tracer.totals()
    assert totals["root"] == (1, 10, 10 - 5 - 2)
    assert totals["a"] == (1, 5, 5 - 2)
    assert totals["b"] == (1, 2, 2)
    assert totals["c"] == (1, 2, 2)
    # Self times partition the root's duration.
    assert sum(s for _, _, s in totals.values()) == 10
    parents = {name: parent for _, parent, name, *_ in tracer.spans}
    ids = {name: sid for sid, _, name, *_ in tracer.spans}
    assert parents == {"b": ids["a"], "a": ids["root"], "c": ids["root"], "root": -1}


def test_repeated_and_recursive_spans_accumulate():
    tracer = trace.Tracer(clock=make_clock(itertools.count()))

    def fact(n):
        return 1 if n == 0 else n * wrapped(n - 1)

    wrapped = tracer.wrap("fact", fact)
    assert wrapped(3) == 6
    calls, total, self_s = tracer.totals()["fact"]
    # Clock ticks 0..7: spans (3,4), (2,5), (1,6), (0,7) -> totals 1+3+5+7.
    assert (calls, total, self_s) == (4, 16, 7)


def test_span_closes_when_the_call_raises():
    tracer = trace.Tracer(clock=make_clock(itertools.count()))

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap("boom", boom)
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.totals()["boom"] == (1, 1, 1)
    assert tracer._stack == []


def test_layer_metrics_name_every_metric():
    values = trace.layer_metrics(trace.Tracer(), {})
    assert set(values) == set(trace.LAYER_METRICS)
    assert all(value == 0.0 for value in values.values())


def test_install_wraps_and_restores():
    from repro.analysis import metrics
    from repro.core import pipeline
    from repro.engine.engine import EvalEngine

    before = (metrics.evaluate_attack, pipeline.evaluate_attack,
              EvalEngine.forward, EvalEngine.__call__)
    restore = trace.install(trace.Tracer())
    try:
        assert metrics.evaluate_attack is not before[0]
        assert pipeline.evaluate_attack is metrics.evaluate_attack
        assert EvalEngine.__call__ is EvalEngine.forward is not before[2]
    finally:
        restore()
    after = (metrics.evaluate_attack, pipeline.evaluate_attack,
             EvalEngine.forward, EvalEngine.__call__)
    assert all(x is y for x, y in zip(before, after))
