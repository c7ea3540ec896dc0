"""Per-layer metrics of a traced child, computed from its spans.

A span is named ``<module>.<function>`` after the library function it wraps
(``cli.main`` for a whole CLI step).  Its self time, its busy time minus that
of its child spans, goes to one metric below, so the self-time metrics add up
to the traced child's wall time (plus the speed probe's share, about 3%).  ``arith`` and ``cf`` are helpers and are not
wrapped: their time is self time of the caller.
"""

from __future__ import annotations

from workloads import DEFAULT_SEED, WORKLOADS, steps

# Span name -> the per-layer metric that receives its self time.  child.py
# wraps exactly these functions.
SELF_METRIC = {
    "cli.main": "cli.self_s",
    "semigroup.iter_ball": "semigroup.ball_walk_s",  # generator: time inside next()
    "semigroup.iter_traces": "semigroup.pi_traces_s",  # BilinearSet method, generator
    "semigroup.ball_count": "semigroup.ball_count_s",
    "semigroup.trace_fiber": "semigroup.fiber_walk_s",
    "semigroup.build_fixed_length_ball": "semigroup.build_s",
    "semigroup.aleph_construct": "semigroup.build_s",
    "semigroup.build_pi": "semigroup.build_s",
    "sieve.sift_values": "sieve.sift_self_s",
    "sieve.remainder_profile": "sieve.ledger_s",
    "sieve.squarefree_trace_census": "sieve.census_self_s",
    "sieve.almost_prime_census": "sieve.census_self_s",
    "sieve.discriminant_census": "sieve.census_self_s",
    "sieve.class_census": "sieve.census_self_s",
    "forms.class_cycles": "forms.self_s",
    "forms.cycle": "forms.self_s",
    "forms.reduce_form": "forms.self_s",
    "forms.matrix_to_form": "forms.self_s",
    "forms.is_fundamental": "forms.self_s",
    "forms.count_mirror_merged": "forms.self_s",
    "forms.count_sign_merged": "forms.self_s",
    "forms.cycle_to_word": "forms.self_s",
    "modular.sl2_charsum": "modular.charsum_s",
    "modular.kloosterman": "modular.charsum_s",
    "modular.beta": "modular.density_s",
    "modular.sqrt4_count": "modular.density_s",
    "modular.sl2_order": "modular.density_s",
    "dimension.estimate": "dimension.estimate_s",
    "dimension.asymptote": "dimension.estimate_s",
    "geodesics.emit_arcs": "geodesics.s",
    "geodesics.geodesic_profile": "geodesics.s",
}

SUBCOMMANDS = sorted({s.command for w in WORKLOADS for s in steps(w, DEFAULT_SEED)})

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("semigroup.ball_walk_s", "s"), ("semigroup.ball_elements", "count"),
    ("semigroup.ball_count_s", "s"),
    ("semigroup.fiber_walk_s", "s"), ("semigroup.fiber_calls", "count"),
    ("semigroup.fiber_elements", "count"),
    ("semigroup.pi_traces_s", "s"), ("semigroup.pi_traces", "count"),
    ("semigroup.build_s", "s"),
    ("sieve.sift_self_s", "s"), ("sieve.source_size", "count"),
    ("sieve.distinct_values", "count"), ("sieve.distinct_ratio", "ratio"),
    ("sieve.ledger_s", "s"), ("sieve.ledger_rows", "count"),
    ("sieve.census_self_s", "s"), ("sieve.disc_records", "count"),
    ("sieve.disc_hit_ratio", "ratio"),
    ("forms.self_s", "s"), ("forms.cycles", "count"),
    ("modular.charsum_s", "s"), ("modular.charsum_calls", "count"),
    ("modular.density_s", "s"),
    ("dimension.estimate_s", "s"),
    ("geodesics.s", "s"),
    ("cli.self_s", "s"), ("cli.artifact_bytes", "bytes"),
    *((f"cli.{c}.wall_s", "s") for c in SUBCOMMANDS),
]


def layer_metrics(spans: list[dict], factors: list[float]) -> dict[str, float]:
    """Self times and work counts of one traced child.  Self times are scaled
    to the reference speed by ``factors[step]`` (see ``speed.py``).

    ``cli.*.wall_s`` and ``cli.artifact_bytes`` are left at 0 here; they come
    from the untraced children and the artifacts.
    """
    child_busy = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child_busy[s["parent"]] += s["busy"]
    m = {name: 0.0 if unit == "s" else 0 for name, unit in PER_LAYER}

    def under(i: int, name: str) -> bool:
        while i >= 0:
            if spans[i]["name"] == name:
                return True
            i = spans[i]["parent"]
        return False

    disc_walks = 0
    for i, s in enumerate(spans):
        name, count = s["name"], s["count"]
        m[SELF_METRIC[name]] += (s["busy"] - child_busy[i]) * factors[s["step"]]
        if name == "semigroup.iter_ball":
            m["semigroup.ball_elements"] += count
        elif name == "semigroup.trace_fiber":
            m["semigroup.fiber_calls"] += 1
            m["semigroup.fiber_elements"] += count
            disc_walks += under(s["parent"], "sieve.discriminant_census")
        elif name == "semigroup.iter_traces":
            m["semigroup.pi_traces"] += count
        elif name == "sieve.sift_values":
            m["sieve.source_size"] += count[0]
            m["sieve.distinct_values"] += count[1]
        elif name == "sieve.remainder_profile":
            m["sieve.ledger_rows"] += count
        elif name == "sieve.discriminant_census":
            m["sieve.disc_records"] += count
        elif name == "forms.cycle":
            m["forms.cycles"] += 1
        elif name in ("modular.sl2_charsum", "modular.kloosterman"):
            m["modular.charsum_calls"] += 1
    m["sieve.distinct_ratio"] = m["sieve.distinct_values"] / (m["sieve.source_size"] or 1)
    m["sieve.disc_hit_ratio"] = m["sieve.disc_records"] / (disc_walks or 1)
    return m
