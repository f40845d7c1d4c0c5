"""The per-layer metrics and the layer -> end-to-end map.

A layer is one fpplab module.  ``SPANS`` names the traced calls whose
quantities are reported; ``LAYERS`` records which end-to-end metric each
layer should move and on which workloads it is busy or idle, so a later
change can state its prediction in these terms before it is measured.
"""

from __future__ import annotations

MODULES = ("cli", "model", "passage_time", "oracle", "elementary_rate",
           "geometry", "functional")

# span name -> reported quantities.  ``calls`` counts every call, ``busy_s``
# is inclusive time of the outermost calls, ``self_s`` excludes time in
# traced children, ``mean_us`` is busy_s per call, and ``configs`` /
# ``*_per_s`` come from the work counters in WORK.
SPANS = {
    "cli.main": ("calls", "busy_s", "self_s"),
    "passage_time.RescaledMetric.write_csv": ("busy_s",),
    "model.sample_weights": ("calls", "busy_s"),
    "passage_time.restricted_passage_time": ("calls", "busy_s", "mean_us"),
    "passage_time.rescaled_metric": ("calls", "busy_s"),
    "passage_time.uniform_gap": ("calls", "busy_s", "self_s"),
    "passage_time.ContinuousMetric.evaluate": ("calls", "busy_s"),
    "oracle.exact_event_probability": ("calls", "busy_s", "configs", "configs_per_s"),
    "oracle.fkg_supermultiplicativity_check": ("calls", "busy_s", "configs",
                                               "configs_per_s"),
    "oracle.monte_carlo_event_probability": ("calls", "busy_s", "fields_per_s"),
    "elementary_rate.estimate_rate_point": ("calls", "busy_s", "self_s"),
    "elementary_rate.estimate_time_constant": ("calls", "busy_s", "self_s",
                                               "fields_per_s"),
    "elementary_rate.extend_surface": ("busy_s",),
    "geometry.NormPlusHighways.evaluate": ("calls", "busy_s", "mean_us"),
    "geometry.NormPlusHighways.geodesic": ("calls", "busy_s"),
    "geometry.HWChain.insert": ("calls", "busy_s"),
    "geometry.HWChain.query": ("calls", "busy_s"),
    "geometry.hw_insert": ("calls", "busy_s", "self_s"),
    "geometry.build_highway_network": ("busy_s", "self_s"),
    "geometry.network_from_highways": ("busy_s",),
    "functional.functional_report": ("busy_s", "self_s"),
    "functional.strict_monotonicity_probe": ("busy_s", "self_s"),
    "functional.empirical_ld_trend": ("busy_s", "self_s"),
}


def _enumerated(args, result):
    return result.n_configs


def _fkg_configs(args, result):
    return len(args["dist"].atoms()[0]) ** args["box"].n_edges


def _mc_fields(args, result):
    return args["samples"]


def _tc_fields(args, result):
    return args.get("samples", 200) * len(args["n_ladder"])


# span name -> work done by one call, from its bound arguments and result.
WORK = {
    "oracle.exact_event_probability": _enumerated,
    "oracle.fkg_supermultiplicativity_check": _fkg_configs,
    "oracle.monte_carlo_event_probability": _mc_fields,
    "elementary_rate.estimate_time_constant": _tc_fields,
}

# Methods traced besides every public module-level function.
METHODS = {
    "passage_time": ("RescaledMetric.write_csv", "ContinuousMetric.evaluate"),
    "geometry": ("NormPlusHighways.evaluate", "NormPlusHighways.geodesic",
                 "HWChain.insert", "HWChain.query"),
}

# layer -> (end-to-end metrics it should move, workloads where it is busy,
# workloads where no change is predicted).
LAYERS = {
    "cli": (("wall_s", "setup_s"), "all; artifact writing mostly in mc-lattice", ()),
    "model": (("wall_s",), "mc-lattice", ("exact-enum", "highway-geometry")),
    "passage_time": (("wall_s",), "mc-lattice", ("highway-geometry",)),
    "oracle": (("wall_s", "peak_rss_mib"), "exact-enum", ("highway-geometry",)),
    "elementary_rate": (("wall_s",), "mc-lattice", ("exact-enum", "highway-geometry")),
    "geometry": (("wall_s",), "highway-geometry", ("exact-enum", "mc-lattice")),
    "functional": (("wall_s",), "highway-geometry; empirical_ld_trend in exact-enum", ()),
}

TRACE_METRICS = {"trace.overhead_s": "s", "trace.spans": "count"}


def unit_of(quantity: str) -> str:
    if quantity in ("calls", "configs"):
        return "count"
    if quantity == "mean_us":
        return "us"
    if quantity.endswith("_per_s"):
        return "1/s"
    return "s"


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    out = {f"{span}.{q}": unit_of(q) for span, qs in SPANS.items() for q in qs}
    out.update({f"{m}.self_s": "s" for m in MODULES})
    out.update(TRACE_METRICS)
    return out


def better(name: str) -> str:
    return "higher" if name.endswith("_per_s") else "lower"
