"""The tracer rebinds every copy of a traced function and restores them."""

from fractions import Fraction

import fpplab.elementary_rate
import fpplab.model
import fpplab.oracle
from fpplab.model import EdgeDistribution, LatticeBox
from fpplab.oracle import EventSpec

from tracing import Tracer, summarize


def test_install_reaches_from_import_copies_and_uninstall_restores():
    original = fpplab.model.sample_weights
    assert fpplab.elementary_rate.sample_weights is original
    tracer = Tracer()
    tracer.install()
    try:
        assert fpplab.model.sample_weights is not original
        assert fpplab.elementary_rate.sample_weights is fpplab.model.sample_weights
    finally:
        tracer.uninstall()
    assert fpplab.model.sample_weights is original
    assert fpplab.elementary_rate.sample_weights is original


def test_spans_nest_and_count_work():
    tracer = Tracer()
    tracer.install()
    try:
        tracer.job = "anchor"
        dist = EdgeDistribution.two_point(1.0, 2.0, Fraction(1, 2))
        event = EventSpec.passage_time_at_most((0, 0), (1, 1), 2.0)
        p = fpplab.oracle.exact_event_probability(event, dist, LatticeBox(2, 1)).p
    finally:
        tracer.uninstall()
    assert p == Fraction(7, 16)
    names = [s[2] for s in tracer.spans]
    assert "oracle.exact_event_probability" in names
    values = summarize(tracer.spans)
    assert values["oracle.exact_event_probability.calls"] == 1
    assert values["oracle.exact_event_probability.configs"] == 16
    assert all(s[5] == "anchor" for s in tracer.spans)


def test_self_time_excludes_children():
    # (id, parent, name, start, end, job, outermost, work)
    spans = [(1, 0, "geometry.hw_insert", 1.0, 3.0, None, True, None),
             (2, 1, "geometry.hw_insert", 1.5, 2.0, None, False, None),
             (0, None, "cli.main", 0.0, 10.0, None, True, None)]
    values = summarize(spans)
    assert values["cli.main.self_s"] == 8.0
    assert values["geometry.hw_insert.calls"] == 2
    assert values["geometry.hw_insert.busy_s"] == 2.0  # outermost calls only
    assert values["geometry.hw_insert.self_s"] == 2.0
    assert values["geometry.self_s"] == 2.0
