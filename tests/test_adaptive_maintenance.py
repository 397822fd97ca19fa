"""Integration tests for the adaptive maintenance policy on live deployments.

Two claims are pinned down here:

* **Invariants hold.**  The incremental membership index must equal a
  from-scratch rescan after every step of a randomized churn schedule *under
  the adaptive policy* -- backing off validations, passively skipping
  predecessor pings and serving joins from the redirect cache must never make
  the index diverge from reality (``tests/test_membership_invariants.py``
  pins the same schedule under the fixed policy and stays unchanged).

* **Traffic drops.**  On a deployment large enough to have settled phases,
  the adaptive policy issues measurably fewer ``ring_ping`` validation RPCs
  than the fixed policy while ending with an equally healthy ring.
"""

from __future__ import annotations

import random

from repro import PRingIndex, default_config
from repro.harness.scenarios import get_scenario, run_spec
from repro.maintenance import maintenance_policy_from_params
from repro.transport import Endpoint

from tests.test_membership_invariants import assert_membership_consistent

CHURN_STEPS = 250
# scale_100's stress-phase route_table_entry RPCs per ring member per simulated
# second: 0.21 at seed 0, plus 20% headroom (CI's scale-smoke gates the same).
ROUTER_WALK_RATE = 0.255


def build_adaptive_index(seed: int, free_peers: int = 0) -> PRingIndex:
    config = default_config(
        seed=seed, maintenance=maintenance_policy_from_params("adaptive")
    ).with_pepper_protocols()
    index = PRingIndex(config)
    index.bootstrap()
    for _ in range(free_peers):
        index.add_peer()
    return index


# --------------------------------------------------------------------------- churn invariants
def test_membership_index_matches_rescan_under_adaptive_policy():
    """Randomized joins/inserts/deletes/failures with every mechanism enabled."""
    index = build_adaptive_index(seed=71)
    rng = random.Random(0xADA9)
    next_key = iter(range(1, 100_000))
    inserted: list = []

    for step in range(CHURN_STEPS):
        roll = rng.random()
        if roll < 0.20:
            index.add_peer()
        elif roll < 0.55:
            key = (next(next_key) * 7.3) % index.config.key_space
            if index.insert_item_now(key):
                inserted.append(key)
        elif roll < 0.70 and inserted:
            victim_key = inserted.pop(rng.randrange(len(inserted)))
            index.delete_item_now(victim_key)
        elif roll < 0.80:
            members = index.ring_members()
            if len(members) > 3:
                index.fail_peer(rng.choice(members).address)
        index.run(rng.uniform(0.05, 0.4))
        assert_membership_consistent(index, context=f"after adaptive step {step}")

    assert index.history.count("peer_failed") > 0
    assert index.metrics.count("insert_succ") > 0


def test_membership_survives_merges_under_adaptive_policy():
    """Mass deletions force merges/leaves while validations are backed off."""
    index = build_adaptive_index(seed=72, free_peers=10)
    rng = random.Random(17)
    keys = [i * 97.0 % index.config.key_space for i in range(1, 60)]
    for key in keys:
        index.insert_item_now(key)
        index.run(0.2)
    index.run(20.0)
    assert_membership_consistent(index, "after adaptive build")
    before = len(index.ring_members())
    assert before > 2
    for key in rng.sample(keys, int(len(keys) * 0.8)):
        index.delete_item_now(key)
        index.run(0.5)
        assert_membership_consistent(index, f"after deleting {key}")
    index.run(30.0)
    assert_membership_consistent(index, "after adaptive merge settle")
    assert len(index.ring_members()) < before
    assert len(index.free_peers()) > 0


# --------------------------------------------------------------------------- traffic reduction
def test_adaptive_policy_reduces_ring_ping_traffic():
    """The headline claim, at CI scale: fewer validation RPCs, same ring."""
    fixed = run_spec(get_scenario("scale_100"), seed=0)
    adaptive = run_spec(get_scenario("scale_100_adaptive"), seed=0)
    assert fixed.rpc_per_method["ring_ping"] > 0
    ratio = fixed.rpc_per_method["ring_ping"] / adaptive.rpc_per_method["ring_ping"]
    assert ratio >= 1.5, f"adaptive ring_ping reduction only {ratio:.2f}x"
    # Both cells run the router's one refresh cadence, which backs off once
    # the tables have converged: the stress phase's table walks stay under a
    # fixed rate per ring member (a walk every base period cost 0.31 here).
    for cell in (fixed, adaptive):
        (stress,) = [phase for phase in cell.phases if phase["phase"] == "stress"]
        members = (stress["ring_members_start"] + stress["ring_members"]) / 2
        rate = stress["rpc_per_method"]["route_table_entry"] / members / stress["sim_seconds"]
        assert rate <= ROUTER_WALK_RATE, f"{cell.scenario}: {rate:.3f} table RPCs per member-second"
    # Per-entry freshness actually skipped re-pings of confirmed successors.
    assert adaptive.metrics.get("ring_ping_fresh_skip", {}).get("count", 0) > 0
    assert "ring_ping_fresh_skip" not in fixed.metrics
    # The leaner maintenance must not cost ring health or query quality.
    assert adaptive.ring_members >= fixed.ring_members * 0.9
    assert adaptive.items_stored >= fixed.items_stored * 0.9
    assert adaptive.queries_complete == adaptive.queries_run


def test_adaptive_cells_registered():
    for name in (
        "scale_100_adaptive",
        "scale_300_adaptive",
        "scale_1000_adaptive",
        "scale_1000_wan_adaptive",
        "scale_5000",
        "scale_5000_adaptive",
    ):
        assert get_scenario(name) is not None
    adaptive = get_scenario("scale_1000_adaptive")
    assert adaptive.maintenance.policy == "adaptive"
    assert get_scenario("scale_1000").maintenance.policy is None
    wan = get_scenario("scale_1000_wan_adaptive")
    assert wan.latency.model == "lan_wan"
    assert wan.maintenance.policy == "adaptive"


def test_redirect_cache_serves_join_redirects():
    """A join through a stale contact is redirected, striding past one-hop.

    First-hand predecessor adoption (``adopt_inserted_predecessor``) removed
    the systemic source of stale split contacts, so live scale cells no longer
    produce join redirects to count.  The mechanism still matters -- a lagging
    stabilization round can leave any pointer stale -- so this forges the
    situation directly: a join addressed at a member two ring steps before its
    insertion point must be rejected with a redirect, and the redirect cache /
    successor-list stride must answer with the *closest known* predecessor
    instead of the one-step successor walk.
    """
    index = build_adaptive_index(seed=73, free_peers=8)
    for i in range(1, 61):
        index.insert_item_now((i * 83.0) % index.config.key_space)
        index.run(0.2)
    index.run(30.0)
    members = sorted(index.ring_members(), key=lambda peer: peer.ring.value)
    assert len(members) >= 4
    contact, one_step, stride_target, after = members[:4]
    join_value = (stride_target.ring.value + after.ring.value) / 2.0

    redirects_before = index.metrics.count("join_redirect")
    cached_before = index.metrics.count("join_redirect_cached")
    coordinator = Endpoint(index.sim, index.network, "test-redirect-driver")
    responses = []

    def drive():
        response = yield coordinator.call(
            contact.address,
            "ring_insert_successor",
            {"address": "test-joiner", "value": join_value, "bad_redirects": []},
        )
        responses.append(response)

    index.run_process(drive())
    (response,) = responses
    assert response["accepted"] is False
    # The cache strode straight to the closest known predecessor of the
    # joining value, not merely to the contact's immediate successor.
    assert response["redirect"] == stride_target.address
    assert response["redirect"] != one_step.address
    assert index.metrics.count("join_redirect") == redirects_before + 1
    assert index.metrics.count("join_redirect_cached") == cached_before + 1
