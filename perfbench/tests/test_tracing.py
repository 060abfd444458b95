"""Span bookkeeping of the traced run: self time and wrapper install/restore."""

import types

import numpy as np
import pytest

from tracing import Tracer, is_wrapped, layer_totals, self_times, span_cost


def test_self_time_subtracts_child_coverage():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    assert self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]
    # each child's wrapper cost is taken from its parent's self time
    assert self_times(parent, start, end, cost=0.5).tolist() == [2.0, 1.5, 1.0, 4.0]


def test_layer_totals_group_by_name_and_sum_roots():
    names = ["outer", "inner"]
    name_id = np.array([0, 1, 1, 0, 1])
    parent = np.array([-1, 0, 0, -1, 3])
    start = np.array([0.0, 1.0, 3.0, 10.0, 11.0])
    end = np.array([5.0, 2.0, 4.0, 14.0, 13.0])
    totals, root_s = layer_totals(names, name_id, parent, start, end)
    assert totals == {"outer": (2, 3.0 + 2.0), "inner": (3, 1.0 + 1.0 + 2.0)}
    assert root_s == 9.0
    # a slice that starts at a later pass re-bases parent indices
    totals, root_s = layer_totals(names, name_id, parent, start, end, lo=3)
    assert totals == {"outer": (1, 2.0), "inner": (1, 2.0)}
    assert root_s == 4.0
    # wrapper cost moves from parents' self time into the roots' share
    totals, root_s = layer_totals(names, name_id, parent, start, end, cost=0.25)
    assert totals == {"outer": (2, 5.0 - 0.75), "inner": (3, 4.0)}
    assert root_s == 9.5


def test_span_cost_is_small_and_positive():
    assert 0.0 < span_cost(calls=2_000, repeats=3) < 1e-4


@pytest.mark.parametrize(
    "parent, start, end",
    [
        ([-1, 0], [0.0, 1.0], [2.0, 3.0]),  # child ends after its parent
        ([-1, 0, 0], [0.0, 1.0, 2.0], [9.0, 3.0, 4.0]),  # siblings overlap
    ],
)
def test_self_time_rejects_impossible_nesting(parent, start, end):
    with pytest.raises(ValueError):
        self_times(np.array(parent), np.array(start), np.array(end))


def test_wrappers_record_nested_spans_and_restore():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: x + 1
    mod.outer = lambda x: mod.inner(x) * 2
    originals = (mod.inner, mod.outer)
    tracer = Tracer()
    tracer.wrap(mod, "inner", "m.inner", count=lambda r, a: {"m.inner.sum": a["x"]})
    tracer.wrap(mod, "outer", "m.outer")
    assert is_wrapped(mod.inner) and is_wrapped(mod.outer)

    assert mod.outer(1) == 4  # inactive: no spans
    assert len(tracer.start) == 0
    tracer.active = True
    assert mod.outer(2) == 6
    tracer.active = False

    name_id, parent, start, end = tracer.arrays()
    assert [tracer.names[i] for i in name_id] == ["m.outer", "m.inner"]
    assert parent.tolist() == [-1, 0]
    assert np.all(end >= start)
    assert tracer.counters == {"m.inner.sum": 2}
    tracer.restore()
    assert (mod.inner, mod.outer) == originals
    assert not is_wrapped(mod.inner)


def test_wrapping_a_method_on_its_class():
    class Box:
        def get(self):
            return 7

    tracer = Tracer()
    tracer.wrap(Box, "get", "box.get")
    tracer.active = True
    assert Box().get() == 7
    assert len(tracer.start) == 1
    tracer.restore()
    assert not is_wrapped(Box.__dict__["get"])


def test_package_boundaries_are_plain_until_wrapped_and_after_restore():
    import workloads

    assert not any(is_wrapped(o) for o in workloads.boundary_objects())
    tracer = Tracer()
    for owner, attr, layer, count in workloads.BOUNDARIES:
        tracer.wrap(owner, attr, layer, count)
    assert all(is_wrapped(o) for o in workloads.boundary_objects())
    tracer.restore()
    assert not any(is_wrapped(o) for o in workloads.boundary_objects())
