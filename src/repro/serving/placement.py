"""Placement & migration planning for the cluster layer.

Submitting to a replica set (:class:`~repro.serving.engine.executor
.ExecutorBase`) means: probe every replica, save the router cursor,
route, range-check the answer, restore the cursor on rejection, and book
the placement into hit/miss/cold affinity stats. This module is that
logic as an explicit three-phase surface::

    placement = engine.place(request, views)        # route (cursor saved)
    ... submit to views[placement.target] ...
    engine.commit(placement)                        # book stats
    # or, when the submission was rejected:
    engine.rollback(placement)                      # restore the cursor

plus the *migration planner* behind live KV migration:

- :meth:`PlacementEngine.plan_rebalance` drains whole sessions from the
  most loaded replica toward the least loaded one until the skew drops
  under ``cluster.rebalance_ratio``;
- :meth:`PlacementEngine.plan_handoffs` moves sessions that finished
  prefill on a ``prefill``-role replica to the least-loaded
  decode-capable replica (disaggregated prefill/decode).

Plans are pure data (:class:`MigrationPlan`); the executor applies them
with the ``export_kv``/``import_kv`` worker ops
(:meth:`~repro.serving.server.SpeContextServer.export_session` /
``import_session`` underneath). All planning is deterministic: ties
break toward the lowest replica index and the lowest request id, so a
replayed trace rebalances identically.

Roles (``cluster.roles``) bias *placement only*: new requests land on
prefill-capable replicas, handoffs target decode-capable ones. Every
replica remains a full server, so a cluster with no live decode target
degrades to local decode rather than failing.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.api.config import ClusterConfig
from repro.api.errors import EngineUnavailableError
from repro.serving.policies import ROUTERS, ReplicaView

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.serving.server import PreemptionEvent

ROLE_PREFILL = "prefill"
ROLE_DECODE = "decode"
ROLE_MIXED = "mixed"


@dataclass
class ClusterRoutingStats:
    """Per-target placement accounting (one list slot per target).

    A routed request is an **affinity hit** when the chosen target's
    prefix cache covered at least ``stickiness_tokens`` of its prompt at
    placement time, an **affinity miss** when some *other* target held
    such a match but the chosen one did not (locality left on the
    table — the round-robin failure mode), and **cold** when no target
    held a qualifying match (nothing to exploit; every group's first
    request is cold). Hits + misses + cold = routed.
    """

    routed: list[int] = field(default_factory=list)
    affinity_hits: list[int] = field(default_factory=list)
    affinity_misses: list[int] = field(default_factory=list)
    cold: list[int] = field(default_factory=list)

    @property
    def total_routed(self) -> int:
        return sum(self.routed)

    @property
    def hit_rate(self) -> float:
        """Affinity hits over non-cold placements (1.0 when all cold)."""
        contested = sum(self.affinity_hits) + sum(self.affinity_misses)
        if contested == 0:
            return 1.0
        return sum(self.affinity_hits) / contested


@dataclass(frozen=True)
class Placement:
    """One routing decision, held open until committed or rolled back.

    ``matches`` is the per-replica prefix-probe result (every replica,
    placement-eligible or not) so commit-time affinity accounting sees
    the same matches the router saw. ``cursor`` is the router's stateful
    cursor *before* routing — ``rollback`` restores it so a rejected
    submission leaves placement identical to a run that never saw it.
    """

    target: int
    matches: tuple[int, ...]
    cursor: int


@dataclass(frozen=True)
class MigrationPlan:
    """One planned session move: drain ``request_id`` from source to target.

    ``charge`` is the session's reserved-token commitment
    (``prompt + max_new_tokens``), the load the move transfers; ``reason``
    is ``"rebalance"`` (load skew), ``"prefill_handoff"`` (disaggregated
    prefill -> decode role transition) or ``"manual"``
    (:meth:`~repro.serving.engine.executor.ExecutorBase.migrate`).
    """

    request_id: int
    source: int
    target: int
    charge: int
    reason: str


@dataclass(frozen=True)
class ClusterPreemptionEvent:
    """One replica-local preemption, tagged with its replica index."""

    replica: int
    event: "PreemptionEvent"


class PlacementEngine:
    """The placement/migration decision-maker of a replica set."""

    def __init__(self, cluster: ClusterConfig, n_targets: int):
        self.cluster = cluster
        self.n_targets = int(n_targets)
        self.roles: tuple[str, ...] = tuple(
            cluster.roles
            if cluster.roles is not None
            else (ROLE_MIXED,) * self.n_targets
        )
        if len(self.roles) != self.n_targets:
            raise ValueError(
                f"{len(self.roles)} roles for {self.n_targets} targets"
            )
        router_opts = {}
        if ROUTERS.resolve(cluster.router) == "prefix_affinity":
            router_opts["stickiness_tokens"] = cluster.stickiness_tokens
        self.router = ROUTERS.make(cluster.router, **router_opts)
        self.routing = ClusterRoutingStats(
            routed=[0] * self.n_targets,
            affinity_hits=[0] * self.n_targets,
            affinity_misses=[0] * self.n_targets,
            cold=[0] * self.n_targets,
        )

    # ---- roles -----------------------------------------------------------------

    @property
    def disaggregated(self) -> bool:
        """True when any replica is role-specialized (non-mixed)."""
        return any(role != ROLE_MIXED for role in self.roles)

    def can_prefill(self, index: int) -> bool:
        return self.roles[index] in (ROLE_PREFILL, ROLE_MIXED)

    def can_decode(self, index: int) -> bool:
        return self.roles[index] in (ROLE_DECODE, ROLE_MIXED)

    # ---- routing ---------------------------------------------------------------

    def place(
        self,
        request,
        views: Sequence[ReplicaView],
        alive: Sequence[bool] | None = None,
    ) -> Placement:
        """Route one request onto a live, prefill-capable target.

        ``views`` is the full per-target view list (one entry per
        replica, dead ones included — callers hand dead workers sentinel
        loads so cursor arithmetic never depends on liveness). ``alive``
        marks which targets can actually accept a submission; load-aware
        routers avoid dead targets through the sentinels, and round-robin
        simply advances past one, so re-routing terminates.

        Returns a :class:`Placement` that MUST be either committed or
        rolled back. Raises :class:`~repro.api.errors
        .EngineUnavailableError` when no eligible live target exists.
        """
        matches = tuple(view.prefix_match_tokens for view in views)
        cursor = self.router.cursor
        # Routers see the prefill-capable targets re-indexed by position
        # (round-robin returns a cursor position, the others a view index,
        # and the two agree only on a positional list); with every target
        # eligible the re-index is the identity.
        eligible = [i for i in range(self.n_targets) if self.can_prefill(i)]
        routable = [
            replace(views[i], index=pos) for pos, i in enumerate(eligible)
        ]
        for _ in range(len(eligible)):
            chosen = self.router.route(request, routable)
            if not 0 <= chosen < len(routable):
                raise ValueError(
                    f"router {self.router.name!r} returned target {chosen}; "
                    f"{len(routable)} targets are placement-eligible"
                )
            target = eligible[chosen]
            if alive is None or alive[target]:
                return Placement(target=target, matches=matches, cursor=cursor)
        self.router.cursor = cursor
        raise EngineUnavailableError("router found no live worker")

    def commit(self, placement: Placement) -> None:
        """Book a successful submission into the affinity stats."""
        target = placement.target
        self.routing.routed[target] += 1
        threshold = self.cluster.stickiness_tokens
        if placement.matches[target] >= threshold:
            self.routing.affinity_hits[target] += 1
        elif max(placement.matches) >= threshold:
            self.routing.affinity_misses[target] += 1
        else:
            self.routing.cold[target] += 1

    def rollback(self, placement: Placement) -> None:
        """Undo a rejected placement: restore the router cursor."""
        self.router.cursor = placement.cursor

    # ---- migration planning ----------------------------------------------------

    def plan_rebalance(
        self,
        loads: Sequence[int | None],
        migratable: Mapping[int, Sequence[tuple[int, int, bool]]],
    ) -> list[MigrationPlan]:
        """Plan session moves that shrink cluster load skew.

        ``loads[i]`` is target *i*'s load (reserved tokens + queue depth,
        the least-loaded router's quantity) or None when it is dead.
        ``migratable[i]`` lists ``(request_id, charge, prefill_done)``
        for sessions that could leave target *i*.

        Greedy and deterministic: while the most loaded target exceeds
        ``rebalance_ratio`` times the least loaded *role-compatible*
        target, move the largest session whose charge fits inside the
        gap (so a move never flips the imbalance), up to
        ``max_migrations_per_pass`` moves. Each move updates the modeled
        loads, so one pass converges instead of oscillating.
        """
        live = [i for i, load in enumerate(loads) if load is not None]
        if len(live) < 2:
            return []
        loads = list(loads)
        remaining: dict[int, list[tuple[int, int, bool]]] = {
            i: list(migratable.get(i, ())) for i in live
        }
        plans: list[MigrationPlan] = []
        ratio = self.cluster.rebalance_ratio
        while len(plans) < self.cluster.max_migrations_per_pass:
            order = sorted(live, key=lambda i: (-loads[i], i))
            planned = None
            for source in order:
                if not remaining[source]:
                    continue
                # Largest movable session first (ties toward the lowest
                # request id): moves the most load per migration.
                for rid, charge, done in sorted(
                    remaining[source],
                    key=lambda item: (-item[1], item[0]),
                ):
                    compatible = self.can_decode if done else self.can_prefill
                    targets = [
                        i for i in live if i != source and compatible(i)
                    ]
                    if not targets:
                        continue
                    target = min(targets, key=lambda i: (loads[i], i))
                    if loads[source] <= ratio * max(loads[target], 1):
                        continue  # skew below the trigger for this pair
                    if charge >= loads[source] - loads[target]:
                        continue  # the move would overshoot the gap
                    planned = (source, target, rid, charge, done)
                    break
                if planned is not None:
                    break
            if planned is None:
                return plans
            source, target, rid, charge, done = planned
            remaining[source].remove((rid, charge, done))
            loads[source] -= charge
            loads[target] += charge
            plans.append(
                MigrationPlan(
                    request_id=rid,
                    source=source,
                    target=target,
                    charge=charge,
                    reason="rebalance",
                )
            )
        return plans

    def plan_handoffs(
        self,
        loads: Sequence[int | None],
        migratable: Mapping[int, Sequence[tuple[int, int, bool]]],
    ) -> list[MigrationPlan]:
        """Plan prefill -> decode handoffs (disaggregated mode only).

        Every session that has *completed* prefill on a ``prefill``-role
        target moves to the least-loaded live decode-capable target, in
        (source index, request id) order. With no live decode-capable
        target the session stays put and decodes locally — roles bias
        placement, they never strand work.
        """
        if not self.disaggregated:
            return []
        live = [i for i, load in enumerate(loads) if load is not None]
        decode_targets = [i for i in live if self.can_decode(i)]
        if not decode_targets:
            return []
        loads = list(loads)
        plans: list[MigrationPlan] = []
        for source in live:
            if self.roles[source] != ROLE_PREFILL:
                continue
            for rid, charge, done in sorted(migratable.get(source, ())):
                if not done:
                    continue
                target = min(decode_targets, key=lambda i: (loads[i], i))
                loads[source] -= charge
                loads[target] += charge
                plans.append(
                    MigrationPlan(
                        request_id=rid,
                        source=source,
                        target=target,
                        charge=charge,
                        reason="prefill_handoff",
                    )
                )
        return plans
