"""Digital-library workload: skewed publication dates and date-range queries.

The paper's second motivating application class (Section 1) is digital
libraries: articles are indexed by publication date, queries ask for date
ranges, and the key distribution is heavily skewed (most insertions hit recent
dates).  Hash-based placement would balance storage but destroy range
locality; the order-preserving Data Store keeps ranges contiguous and relies
on splits, merges and redistributions to stay balanced -- which this example
makes visible.

The workload is expressed as a registered :class:`ScenarioSpec` (the
``skewed`` key generator with a hot recent region), exactly as described in
``docs/SCENARIOS.md``; the spec is then materialised so the storage balance
and maintenance operations can be inspected peer by peer.

Run with::

    python examples/digital_library.py
"""

from collections import Counter

from repro.harness.scenarios import (
    PhaseSpec,
    ScenarioSpec,
    WorkloadSpec,
    build_experiment,
    register,
)

# Keys are "days since epoch" over ~27 years; 80% of insertions fall in the
# most recent 10% of the timeline (hot region at the low end of the space).
SPEC = register(
    ScenarioSpec(
        name="digital_library",
        description="skewed publication dates: 80% of 220 articles hit 10% of the timeline",
        peers=36,
        seed=11,
        # One build phase; the queries below are hand-picked ranges.
        phases=(
            PhaseSpec(
                name="build",
                arrivals=35,
                arrival_period=1.0,
                workload=WorkloadSpec(
                    items=220,
                    insert_rate=3.0,
                    distribution="skewed",
                    params={"hot_fraction": 0.8, "hot_region": 0.1},
                ),
                settle=40.0,
            ),
        ),
    )
)


def main() -> None:
    experiment = build_experiment(SPEC, seed=11)
    index = experiment.index
    config = index.config
    print(f"Ingesting {SPEC.total_items()} articles with a skewed date distribution...")
    experiment.run_phases(SPEC.phases, total_peers=SPEC.peers)
    dates = experiment.inserted_keys

    members = index.ring_members()
    print(f"\nThe skew forced {len(members)} peers into the ring:")
    for peer in members:
        width = peer.store.range.span(config.key_space)
        print(
            f"  {peer.address}: {peer.store.item_count():3d} articles, "
            f"range width {width:8.1f} ({100 * width / config.key_space:5.2f}% of the key space)"
        )
    counts = [peer.store.item_count() for peer in members]
    print(
        f"Storage balance despite skew: min={min(counts)}, max={max(counts)}, "
        f"storage factor bounds are [{config.storage_factor}, {config.overflow_threshold}]"
    )

    # Date-range queries of different widths.
    print("\nDate-range queries:")
    hot_edge = config.key_space * 0.1
    for label, lb, ub in (
        ("last week of the hot region", hot_edge * 0.93, hot_edge),
        ("whole hot region", 0.0, hot_edge),
        ("one cold decade", hot_edge * 3, hot_edge * 6),
        ("entire collection", 0.0, config.key_space),
    ):
        outcome = experiment.run_query(lb, ub)
        expected = len([d for d in dates if lb < d <= ub])
        print(
            f"  {label:28s} ({lb:8.1f}, {ub:8.1f}] -> {len(outcome.keys):3d} articles "
            f"(expected {expected:3d}), {outcome.hops} hops, complete={outcome.complete}"
        )

    # How the maintenance operations distributed the load.
    operations = Counter(op.kind for op in index.history.history())
    print(
        f"\nData Store maintenance performed: {operations['split_finished']} splits, "
        f"{operations.get('redistribute', 0)} redistributions, "
        f"{operations.get('merge_finished', 0)} merges"
    )


if __name__ == "__main__":
    main()
