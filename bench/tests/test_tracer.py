import importlib

from tracer import PATCHES, Tracer, self_times, summarize


def span(name, start, end, parent=-1):
    return [name, start, end, parent]


def test_self_time_nested_children():
    spans = [span("a", 0, 100), span("b", 10, 50, 0), span("c", 20, 30, 1)]
    assert self_times(spans) == [60, 30, 10]


def test_self_time_back_to_back_children():
    spans = [span("a", 0, 100), span("b", 10, 40, 0), span("c", 40, 70, 0)]
    assert self_times(spans) == [40, 30, 30]


def test_self_time_ignores_child_time_outside_parent():
    spans = [span("a", 0, 100), span("b", 90, 120, 0)]
    assert self_times(spans)[0] == 90


def test_summarize_aggregates_by_name():
    spans = [span("a", 0, 1_000_000_000), span("b", 0, 250_000_000, 0), span("b", 500_000_000, 750_000_000, 0)]
    out = summarize(spans)
    assert out["b"] == {"calls": 2, "total_s": 0.5, "self_s": 0.5}
    assert out["a"]["self_s"] == 0.5 and out["a"]["total_s"] == 1.0


def test_wrapped_calls_record_parents_and_counts():
    tracer = Tracer("t")

    def inner(x):
        return x + 1

    def count(counts, args, kwargs, result):
        counts["inner.calls"] += result

    inner_t = tracer.wrap(inner, "inner", count)
    outer_t = tracer.wrap(lambda: inner_t(1) + inner_t(2), "outer")
    assert outer_t() == 5
    names = [s[0] for s in tracer.spans]
    parents = [s[3] for s in tracer.spans]
    assert names == ["outer", "inner", "inner"]
    assert parents == [-1, 0, 0]
    assert tracer.counts["inner.calls"] == 5


def test_wrapped_exception_closes_span():
    tracer = Tracer("t")

    def boom():
        raise ValueError("x")

    wrapped = tracer.wrap(boom, "boom")
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.spans[0][2] >= tracer.spans[0][1] > 0
    assert tracer._open == []


def test_every_patch_target_exists_where_it_is_looked_up():
    for module_name, attr, _, _ in PATCHES:
        module = importlib.import_module(f"occsim.{module_name}")
        assert callable(getattr(module, attr, None)), f"occsim.{module_name}.{attr}"
