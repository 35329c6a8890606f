"""Which functions of quasiherm the traced run wraps, and the per-layer
metrics derived from their spans.

Work counts come from each call's arguments, result or geometry
attributes, so nothing is added inside the program.  Byte counts are the
sizes of returned arrays, computed, not measured memory traffic.  All
``*_s`` metrics are self time: a span's duration minus its traced
children, summed over the calls of the layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from spans import Probe, self_times, uncovered

MB = 1024.0  # ru_maxrss is in kB


def _geom(args):
    """The Geometry among a call's arguments (``self`` for its methods)."""
    for a in args:
        if hasattr(a, "n_points") and hasattr(a, "F"):
            return a
    raise ValueError("no geometry argument")


def _mask(args, kwargs):
    for a in list(args) + list(kwargs.values()):
        if getattr(a, "dtype", None) is not None and a.dtype == bool:
            return a
    raise ValueError("no boolean mask argument")


def _incidences(args, kwargs, result, state):
    q = _geom(args).F.q
    Q = q * q
    return {"incidences": int(_mask(args, kwargs).sum()) * (Q * Q + Q + 1)}


def _block(args, kwargs, result, state):
    return {"lines": int(result.shape[0]), "bytes": int(result.nbytes)}


def _all_lines(args, kwargs, result, state):
    return {"lines": int(_geom(args).n_lines)}


def group_order(q: int, kind: str) -> int:
    """|K| = |PSL(2, q^2)|, |G| = |PGL(2, q^2)|, |G'| = 2|G|."""
    n = q**2 * (q**4 - 1)
    return {"K": n // 2, "G": n, "Gp": 2 * n}[kind]


def _kind(args, kwargs, pos):
    return kwargs.get("kind", args[pos] if len(args) > pos else "K")


def _elements(args, kwargs, result, state):
    return {"elements": group_order(_geom(args).F.q, _kind(args, kwargs, 2))}


def _decomp_cached(args, kwargs):
    return ("decomp", _kind(args, kwargs, 1)) in _geom(args).cache


def _cache_hit(args, kwargs, result, state):
    return {"cache_hits": int(bool(state))}


# layer -> probes; a layer's metrics aggregate the spans of all its probes
LAYERS = {
    "gf": [Probe("gf.field_for_q"), Probe("gf.make_field")],
    "projgeom.geometry": [Probe("projgeom.geometry_for_q")],
    "projgeom.incidence_counts": [
        Probe("projgeom.Geometry.incidence_counts", after=_incidences)
    ],
    "projgeom.lines": [Probe("projgeom.Geometry.lines")],
    "projgeom.points_block": [Probe("projgeom.LineTable.points_block", after=_block)],
    "projgeom.lookup": [Probe("projgeom.LineTable.lookup")],
    "invariants.line_sweep": [
        Probe(f"invariants.{f}", after=_all_lines)
        for f in (
            "lines_in_set",
            "max_line_meet",
            "special_lines",
            "extended_subline_census",
            "build_V3",
        )
    ],
    "invariants.line_perm": [Probe("invariants.line_perm")],
    "invariants.klein_orbit_length": [Probe("invariants.klein_orbit_length")],
    "invariants.line_orbit_census": [Probe("invariants.line_orbit_census")],
    "invariants.pencil_net": [
        Probe("invariants.count_Yj"),
        Probe("invariants.net_rank_census"),
    ],
    "group.stabilizer_order": [Probe("group.stabilizer_order", after=_elements)],
    "group.orbit_decomposition": [
        Probe("group.orbit_decomposition", before=_decomp_cached, after=_cache_hit)
    ],
    "group.verify_generators": [Probe("group.verify_generators")],
    "group.orbits_from_perms": [Probe("group.orbits_from_perms")],
    "varieties": [
        Probe(f"varieties.{f}")
        for f in (
            "hermitian_values",
            "quadric_values",
            "f_gamma_values",
            "hermitian_set",
            "quadric_set",
            "sigma_set",
            "curve_points",
            "curve_set",
            "surface_S",
            "surface_E",
            "build_surface",
        )
    ],
    "quasi.verify_quasi_hermitian": [Probe("quasi.verify_quasi_hermitian")],
    "quasi.assemble": [Probe("quasi.assemble")],
    "tables.verify_table": [Probe("tables.verify_table")],
    "srg.graph_params": [Probe("srg.graph_params")],
    "srg.weight_distribution": [Probe("srg.weight_distribution")],
    "report.report_all": [Probe("report.report_all")],
    "cli.emit": [Probe("cli.emit")],
}

PROBES = [p for probes in LAYERS.values() for p in probes]


@dataclass
class Agg:
    calls: int = 0
    self_s: float = 0.0
    rss_rise_mb: float = 0.0
    counts: dict = field(default_factory=dict)

    def count(self, key: str) -> int:
        return self.counts.get(key, 0)

    def per_s(self, key: str) -> float:
        return self.count(key) / self.self_s if self.self_s > 0 else 0.0


def aggregate(spans) -> dict:
    """Layer name -> Agg over every span of that layer's probes."""
    layer_of = {p.target: layer for layer, ps in LAYERS.items() for p in ps}
    selfs = self_times(spans)
    out = {layer: Agg() for layer in LAYERS}
    for s in spans:
        a = out[layer_of[s.name]]
        a.calls += 1
        a.self_s += selfs[s.id]
        a.rss_rise_mb += (s.rss1_kb - s.rss0_kb) / MB
        for k, v in s.counts.items():
            a.counts[k] = a.counts.get(k, 0) + v
    return out


def _calls(layer):
    return lambda a: a[layer].calls


def _self(layer):
    return lambda a: a[layer].self_s


def _rss(layer):
    return lambda a: a[layer].rss_rise_mb


def _count(layer, key):
    return lambda a: a[layer].count(key)


def _rate(layer, key):
    return lambda a: a[layer].per_s(key)


def _hit_ratio(a):
    d = a["group.orbit_decomposition"]
    return d.count("cache_hits") / d.calls if d.calls else 0.0


IC, PB, LS, SO, OD = (
    "projgeom.incidence_counts",
    "projgeom.points_block",
    "invariants.line_sweep",
    "group.stabilizer_order",
    "group.orbit_decomposition",
)

# (metric name, unit, value from the aggregates)
METRICS = [
    ("gf.field_build_s", "s", _self("gf")),
    ("projgeom.geometry_build_s", "s", _self("projgeom.geometry")),
    (f"{IC}.calls", "count", _calls(IC)),
    (f"{IC}.self_s", "s", _self(IC)),
    (f"{IC}.incidences", "count", _count(IC, "incidences")),
    (f"{IC}.incidences_per_s", "1/s", _rate(IC, "incidences")),
    (f"{IC}.rss_rise_mb", "MB", _rss(IC)),
    ("projgeom.lines.build_s", "s", _self("projgeom.lines")),
    (f"{PB}.calls", "count", _calls(PB)),
    (f"{PB}.self_s", "s", _self(PB)),
    (f"{PB}.lines", "count", _count(PB, "lines")),
    (f"{PB}.bytes", "B_computed", _count(PB, "bytes")),
    ("projgeom.lookup.calls", "count", _calls("projgeom.lookup")),
    ("projgeom.lookup.self_s", "s", _self("projgeom.lookup")),
    (f"{LS}.calls", "count", _calls(LS)),
    (f"{LS}.self_s", "s", _self(LS)),
    (f"{LS}.lines", "count", _count(LS, "lines")),
    ("invariants.line_perm.calls", "count", _calls("invariants.line_perm")),
    ("invariants.line_perm.self_s", "s", _self("invariants.line_perm")),
    ("invariants.klein_orbit_length.calls", "count", _calls("invariants.klein_orbit_length")),
    ("invariants.klein_orbit_length.self_s", "s", _self("invariants.klein_orbit_length")),
    ("invariants.line_orbit_census.self_s", "s", _self("invariants.line_orbit_census")),
    ("invariants.pencil_net.self_s", "s", _self("invariants.pencil_net")),
    (f"{SO}.calls", "count", _calls(SO)),
    (f"{SO}.self_s", "s", _self(SO)),
    (f"{SO}.elements", "count", _count(SO, "elements")),
    (f"{SO}.elements_per_s", "1/s", _rate(SO, "elements")),
    (f"{OD}.calls", "count", _calls(OD)),
    (f"{OD}.self_s", "s", _self(OD)),
    (f"{OD}.cache_hits", "count", _count(OD, "cache_hits")),
    (f"{OD}.hit_ratio", "ratio", _hit_ratio),
    ("group.verify_generators.self_s", "s", _self("group.verify_generators")),
    ("group.orbits_from_perms.self_s", "s", _self("group.orbits_from_perms")),
    ("varieties.self_s", "s", _self("varieties")),
    ("quasi.verify_quasi_hermitian.calls", "count", _calls("quasi.verify_quasi_hermitian")),
    ("quasi.verify_quasi_hermitian.self_s", "s", _self("quasi.verify_quasi_hermitian")),
    ("quasi.assemble.self_s", "s", _self("quasi.assemble")),
    ("tables.verify_table.calls", "count", _calls("tables.verify_table")),
    ("tables.verify_table.self_s", "s", _self("tables.verify_table")),
    ("srg.graph_params.calls", "count", _calls("srg.graph_params")),
    ("srg.graph_params.self_s", "s", _self("srg.graph_params")),
    ("srg.graph_params.rss_rise_mb", "MB", _rss("srg.graph_params")),
    ("srg.weight_distribution.self_s", "s", _self("srg.weight_distribution")),
    ("report.report_all.self_s", "s", _self("report.report_all")),
    ("cli.emit.self_s", "s", _self("cli.emit")),
]

# computed from the whole traced pass rather than one layer
TRACE_METRICS = [
    ("trace.uncovered_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.absent_names", "count"),
]


def layer_metrics(spans, run_start: float, run_end: float) -> dict:
    """Every per-layer metric except trace.overhead_s, which needs the
    untraced pass: name -> (value, unit)."""
    agg = aggregate(spans)
    out = {name: (fn(agg), unit) for name, unit, fn in METRICS}
    out["trace.uncovered_s"] = (uncovered(spans, run_start, run_end), "s")
    return out
