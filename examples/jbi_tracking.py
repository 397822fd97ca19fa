"""JBI-style object tracking: range queries over object positions under churn.

The paper motivates P2P range indices with the Joint Battlespace Infosphere
(Section 1): information objects are stored with their geographic position as
the search key, commanders query regions, and the infrastructure must keep
working -- and keep every object findable -- while peers come, go and fail.

This example linearises positions to one dimension (e.g. kilometres along a
corridor), streams position updates (delete + re-insert), injects peer
failures, and shows that region queries stay correct throughout.

Run with::

    python examples/jbi_tracking.py
"""

from typing import List

from repro import (
    PRingIndex,
    check_item_availability,
    count_lost_items,
    default_config,
)


def main() -> List[float]:
    """Run the tracking scenario; return the keys of the objects it lost."""
    config = default_config(seed=42)
    index = PRingIndex(config)
    index.bootstrap()
    for _ in range(14):
        index.add_peer()

    # 150 tracked objects spread over a 10,000 "km" corridor.
    rng = index.rngs.stream("jbi")
    objects = {}
    for number in range(150):
        position = round(rng.uniform(1.0, config.key_space - 1.0), 3)
        objects[f"vehicle-{number:03d}"] = position
        index.insert_item_now(position, payload=f"vehicle-{number:03d}")
        index.run(0.3)
    index.run(30.0)
    print(f"Tracking {len(objects)} objects on {len(index.ring_members())} live peers")

    # Operational phase: objects move (delete + reinsert at the new position),
    # peers fail, and commanders run region queries the whole time.
    moved, failed_peers, queries = 0, 0, 0
    for round_number in range(12):
        # A few objects move.
        for name in list(objects)[round_number::25]:
            old_position = objects[name]
            new_position = round(rng.uniform(1.0, config.key_space - 1.0), 3)
            index.delete_item_now(old_position)
            index.insert_item_now(new_position, payload=name)
            objects[name] = new_position
            moved += 1
        # Occasionally a peer fails (fail-stop).  Give the replication manager
        # a refresh period first so freshly moved objects have replicas -- the
        # paper's guarantee is that *maintenance* never reduces availability,
        # not that an object survives a failure in the instant after insertion.
        index.run(config.replication_refresh_period)
        if round_number % 4 == 3 and len(index.ring_members()) > 4:
            victim = index.ring_members()[round_number % len(index.ring_members())]
            index.fail_peer(victim.address)
            failed_peers += 1
        index.run(8.0)

        # Region query: objects in a 1,500 km window.
        window_start = rng.uniform(0.0, config.key_space - 1500.0)
        result = index.range_query_now(window_start, window_start + 1500.0)
        expected = sorted(
            position
            for position in objects.values()
            if window_start < position <= window_start + 1500.0
        )
        queries += 1
        status = "OK" if result["keys"] == expected else "MISMATCH"
        print(
            f"round {round_number:2d}: region ({window_start:7.1f}, {window_start + 1500.0:7.1f}] "
            f"-> {len(result['keys'])} objects ({status}, {result['hops']} hops)"
        )

    index.run(40.0)  # allow replica revival after the failures
    lost = count_lost_items(index.history.history(), index.live_peers())
    print(f"\nObjects moved: {moved}, peer failures: {failed_peers}, region queries: {queries}")
    print(f"Objects lost: {len(lost)}")
    print("Item availability check:", check_item_availability(index.history.history()).ok)
    return lost


if __name__ == "__main__":
    main()
