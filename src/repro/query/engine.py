"""The multi-threaded query engine with ASAP data push.

*"The multi-threaded Query Engine executes in parallel at all the nodes at
a given level of the QET.  Results from child nodes are passed up the tree
as soon as they are generated. ... even in the case of a query that takes
a very long time to complete, the user starts seeing results almost
immediately."*

:class:`QueryEngine` owns the physical sources (container stores) and is
the single-store executor behind :class:`~repro.session.Session`:
``prepare`` parses and plans query text into an *unstarted* QET
(a :class:`PreparedQuery`); the session's
:class:`~repro.session.Job` starts every node's thread and streams the
batches, recording time-to-first-row — the measurable form of the ASAP
claim.  Run queries through
``Archive.connect(engine)`` (or ``Archive.connect(stores=...)``).

Hosted by an :class:`~repro.net.server.ArchiveServer`, the same engine
also prepares ``mode="shard"`` submissions: the pushed-down shard half
of one SELECT, for a remote scatter-gather coordinator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.htm.ranges import RangeSet
from repro.query.ast_nodes import Select, SetOp
from repro.query.errors import PlanError
from repro.query.optimizer import (
    fused_top_k,
    output_schema_for,
    plan_query,
    shard_candidates,
    split_plan,
)
from repro.query.parser import extract_into, parse_query
from repro.query.qet import (
    AggregateNode,
    DifferenceNode,
    FilterNode,
    IntersectNode,
    LimitNode,
    ProjectNode,
    ScanNode,
    SortNode,
    TopKNode,
    UnionNode,
)

__all__ = ["PreparedQuery", "QueryEngine", "build_query_tree", "collect_selects"]


@dataclass
class PreparedQuery:
    """Everything the session needs to run one query.

    Attributes
    ----------
    text:
        The original query text.
    root:
        The unstarted QET root; starting its threads begins execution.
    schema:
        Statically-derived output schema (``None`` only when unknowable
        without data).
    reports:
        One :class:`~repro.distributed.routing.ShardFanoutReport` per
        SELECT for distributed backends; empty for single-store ones.
    sources:
        The routed physical source of every SELECT (e.g. ``['tag']``
        after tag routing) — the stores whose shared sweeps this query
        rides; the session admits one ``sweep:<source>`` machine job per
        distinct source for single-store backends.
    into:
        The ``SELECT ... INTO mydb.x`` destination, or ``None`` for
        ordinary queries.  The session layer materializes the drained
        result into the submitting user's MyDB workspace.
    """

    text: str
    root: object
    schema: object = None
    reports: list = field(default_factory=list)
    sources: list = field(default_factory=list)
    into: str | None = None

    def simulated_seconds(self):
        """Total simulated scan seconds across the fan-out (0.0 when the
        backend does not model per-server cost)."""
        return sum(report.simulated_seconds for report in self.reports)


def collect_selects(ast):
    """Every SELECT of a parsed query, in deterministic execution order.

    The same left-to-right depth-first order every executor builds its
    tree in, so a remote coordinator and its shard servers number
    SELECTs identically: ``select_index`` means the same subquery on
    both ends of the wire.
    """
    if isinstance(ast, SetOp):
        return collect_selects(ast.left) + collect_selects(ast.right)
    if isinstance(ast, Select):
        return [ast]
    raise PlanError(f"cannot execute {type(ast).__name__}")


_SET_NODES = {
    "UNION": UnionNode,
    "INTERSECT": IntersectNode,
    "EXCEPT": DifferenceNode,
}


def build_query_tree(ast, build_select):
    """The unstarted QET of a parsed query.

    ``build_select(select)`` returns ``(root, schema)`` for one SELECT
    and is called in :func:`collect_selects` order; set operations
    combine the branch trees.  Returns ``(root, schema)``, where a set
    operation reports its left branch's schema.
    """
    if isinstance(ast, SetOp):
        left, schema = build_query_tree(ast.left, build_select)
        right, _right_schema = build_query_tree(ast.right, build_select)
        node_class = _SET_NODES.get(ast.op)
        if node_class is None:
            raise PlanError(f"unknown set operator {ast.op}")
        return node_class(left, right), schema
    if not isinstance(ast, Select):
        raise PlanError(f"cannot execute {type(ast).__name__}")
    return build_select(ast)


class QueryEngine:
    """Single-store executor over the archive's physical stores.

    Run queries through ``Archive.connect(engine)``; the engine itself
    only prepares unstarted trees (see :meth:`prepare`).

    Parameters
    ----------
    stores:
        Mapping of source name -> :class:`ContainerStore`; conventional
        names are ``photo``, ``tag`` and ``spectro``.  A ``tag`` store
        enables automatic tag routing of eligible photo queries.
    density_maps:
        Optional per-source :class:`DensityMap` for cost estimates.
    batch_rows:
        Target rows per execution morsel: scans coalesce delivered
        containers into batches of roughly this size before each
        vectorized predicate pass (and emit batches of at most this
        size).  Must be positive.
    workers:
        Morsel-parallel worker threads per scan/aggregate/top-k node.
        ``None`` resolves from the ``REPRO_WORKERS`` environment
        variable (default 1 — the serial path).  Workers pull off the
        same shared sweep subscription and output stays row-for-row
        identical to serial execution (see
        :mod:`repro.machines.workers`).
    """

    kind = "local"
    #: this backend can overlay per-user MyDB stores and run INTO
    supports_mydb = True

    def __init__(self, stores, density_maps=None, batch_rows=4096, workers=None):
        if not stores:
            raise ValueError("QueryEngine needs at least one store")
        from repro.machines.workers import resolve_workers

        self.stores = dict(stores)
        self.density_maps = dict(density_maps or {})
        self.batch_rows = int(batch_rows)
        self.workers = resolve_workers(workers)
        self.schemas = {name: store.schema for name, store in self.stores.items()}

    def generations_for(self, sources, extra_stores=None):
        """``{source: (store_uid, generation)}`` snapshot for cache
        validation, or ``None`` when a source does not resolve."""
        stores = self.stores
        if extra_stores:
            stores = {**stores, **extra_stores}
        generations = {}
        for source in sources:
            store = stores.get(source)
            if store is None:
                return None
            generations[source] = (store.store_uid, store.generation)
        return generations

    def prepare(
        self,
        text,
        allow_tag_route=True,
        extra_stores=None,
        mode="full",
        select_index=0,
        ranges=None,
    ):
        """Parse and plan ``text`` into an unstarted :class:`PreparedQuery`.

        ``extra_stores`` overlays additional sources (e.g. a user's
        ``mydb.*`` workspace tables) for this query only, without
        mutating the engine's catalog.  ``mode="shard"`` prepares only
        the pushed-down shard half of SELECT number ``select_index``
        (see :meth:`_prepare_shard`); a remote coordinator's merge tree
        finishes the job.
        """
        ast = parse_query(text)
        if mode == "shard":
            return self._prepare_shard(
                text, ast, allow_tag_route, select_index, ranges
            )
        if mode != "full":
            raise PlanError(f"unknown submission mode {mode!r}")
        stores = self.stores
        schemas = self.schemas
        if extra_stores:
            stores = {**stores, **extra_stores}
            schemas = {name: store.schema for name, store in stores.items()}
        plans = []

        def build_select(select):
            plan = plan_query(
                select,
                schemas,
                density_maps=self.density_maps,
                allow_tag_route=allow_tag_route,
            )
            plans.append(plan)
            return self._select_tree(plan, stores), output_schema_for(plan, schemas)

        root, schema = build_query_tree(ast, build_select)
        return PreparedQuery(
            text=text,
            root=root,
            schema=schema,
            sources=[plan.routed_source for plan in plans],
            into=extract_into(ast),
        )

    def _select_tree(self, plan, stores):
        """The single-store QET for one planned SELECT.

        ``ORDER BY ... LIMIT k`` fuses into a streaming
        :class:`TopKNode` (bounded candidate buffer) instead of the
        full-materialize ``SortNode -> LimitNode`` pair.
        """
        store = stores[plan.routed_source]
        workers = self.workers
        node = ScanNode(
            store, plan, batch_rows=self.batch_rows, workers=workers
        )
        top_k = fused_top_k(plan)
        if plan.is_aggregate:
            node = AggregateNode(
                node,
                plan.group_specs,
                plan.aggregate_specs,
                plan.output_order,
                workers=workers,
            )
            if plan.having_fn is not None:
                node = FilterNode(node, plan.having_fn)
            if top_k is not None:
                node = TopKNode(
                    node, plan.order_key_fns, plan.order_descending, top_k
                )
            elif plan.order_key_fns:
                node = SortNode(node, plan.order_key_fns, plan.order_descending)
            elif plan.limit is not None:
                node = LimitNode(node, plan.limit)
            return node
        if top_k is not None:
            node = TopKNode(
                node,
                plan.order_key_fns,
                plan.order_descending,
                top_k,
                workers=workers,
            )
        elif plan.order_key_fns:
            node = SortNode(node, plan.order_key_fns, plan.order_descending)
        elif plan.limit is not None:
            node = LimitNode(node, plan.limit)
        if plan.projection:
            node = ProjectNode(node, plan.projection)
        return node

    def _prepare_shard(self, text, ast, allow_tag_route, select_index, ranges):
        """The server side of remote scatter-gather.

        Plans and splits SELECT number ``select_index`` exactly like the
        coordinator did — both ends of the wire split deterministically,
        so no plan closures travel — then builds the QET for
        ``sharded.shard`` over this engine's own containers.  Partial
        aggregates, per-shard sort and LIMIT copies stream back.
        """
        from repro.distributed.engine import build_shard_tree

        selects = collect_selects(ast)
        index = int(select_index)
        if not 0 <= index < len(selects):
            raise PlanError(
                f"select_index {index} out of range: query has "
                f"{len(selects)} SELECTs"
            )
        plan = plan_query(
            selects[index],
            self.schemas,
            density_maps=self.density_maps,
            allow_tag_route=allow_tag_route,
        )
        sharded = split_plan(plan)
        store = self.stores[plan.routed_source]
        coverage, _candidates = shard_candidates(plan, store.depth)
        restrict = None
        track = False
        if ranges is not None:
            # A replicated-cluster submission: scan only the coordinator's
            # disjoint container assignment, and stamp every batch with
            # the cumulative delivered ranges so a failover can resume
            # exactly where this stream died.  Tracking needs the serial
            # scan, so the morsel pool is not spun up.
            restrict = RangeSet(tuple((int(lo), int(hi)) for lo, hi in ranges))
            track = True
        root = build_shard_tree(
            store,
            sharded,
            coverage,
            batch_rows=self.batch_rows,
            workers=1 if track else self.workers,
            restrict=restrict,
            track_delivery=track,
        )
        return PreparedQuery(
            text=text,
            root=root,
            schema=output_schema_for(sharded.shard, self.schemas),
            sources=[plan.routed_source],
        )
