"""The distributed query executor: full QET queries, scatter-gather.

*"The base-data objects will be spatially partitioned among the servers
... Splitting the data among multiple servers enables parallel, scalable
I/O"* — and the query system rides that split: every parsed query is
planned once, the plan is divided by
:func:`~repro.query.optimizer.split_plan` into a per-shard sub-plan
(scan + filter + partial aggregation + sort/limit/projection pushdown)
and a coordinator merge, and the sub-plan is *shipped* to each partition
server whose HTM range intersects the plan's cover.  Every shard runs
the paper's multi-threaded QET locally; the coordinator's merge nodes
(:class:`~repro.query.qet.ExchangeNode`,
:class:`~repro.query.qet.MergeSortNode`, re-aggregation) preserve the
ASAP-push contract — the user sees the first batch while the slowest
shard is still scanning.

:class:`DistributedQueryEngine` is the scatter-gather executor behind
:class:`~repro.session.Session`: run queries through
``Archive.connect(archive=...)`` or ``Archive.connect(engine)``.
Nothing about the server set is cached between queries: each ``prepare``
reads the archive's current partition map and container placement, so
execution stays correct across ``add_servers`` repartitioning.
"""

from __future__ import annotations

from repro.distributed.routing import route_plan
from repro.query.engine import PreparedQuery, build_query_tree
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
    ExchangeNode,
    FilterNode,
    LimitNode,
    MergeSortNode,
    ProjectNode,
    ScanNode,
    SortNode,
    TopKNode,
)

__all__ = [
    "DistributedQueryEngine",
    "build_shard_tree",
    "build_merge_tree",
]


def build_shard_tree(
    store,
    sharded,
    coverage,
    batch_rows=4096,
    workers=1,
    restrict=None,
    track_delivery=False,
):
    """One server's sub-QET: the pushed-down shard half of a split plan.

    Shared by the in-process engine (scan trees built directly over each
    touched :class:`~repro.storage.cluster.ServerNode` store) and a
    hosted :class:`~repro.query.engine.QueryEngine` (the same tree built
    server-side for a ``mode="shard"`` submission).
    ``workers`` applies morsel parallelism *within* the shard — on a
    process-backed shard each server multiplies cores this way.

    ``restrict`` (a :class:`~repro.htm.ranges.RangeSet`) limits the scan
    to the coordinator's disjoint container assignment on a replicated
    cluster, and ``track_delivery`` makes every emitted batch carry the
    cumulative delivered-container annotation the failover bookkeeping
    needs (forcing the serial scan path — see
    :class:`~repro.query.qet.ScanNode`).
    """
    shard = sharded.shard
    node = ScanNode(
        store,
        shard,
        batch_rows=batch_rows,
        coverage=coverage,
        workers=workers,
        restrict=restrict,
        track_delivery=track_delivery,
    )
    if shard.is_aggregate:
        return AggregateNode(
            node,
            shard.group_specs,
            shard.aggregate_specs,
            shard.output_order,
            workers=workers,
        )
    top_k = fused_top_k(shard)
    if top_k is not None:
        # Each shard needs at most the global top-k: the fused node
        # keeps the shard's candidate set bounded too.
        node = TopKNode(
            node,
            shard.order_key_fns,
            shard.order_descending,
            top_k,
            workers=workers,
        )
    else:
        if shard.order_key_fns:
            node = SortNode(node, shard.order_key_fns, shard.order_descending)
        if shard.limit is not None:
            node = LimitNode(node, shard.limit)
    if shard.projection:
        node = ProjectNode(node, shard.projection)
    return node


def build_merge_tree(shard_roots, sharded, batch_rows=4096):
    """The coordinator half: recombine shard streams per the merge spec.

    ``shard_roots`` may be local sub-trees *or* remote nodes streaming a
    far server's shard half (:class:`~repro.net.client.RemoteRootNode`)
    — the merge logic is identical, which is exactly why scatter-gather
    survives the move across process boundaries unchanged.
    """
    merge = sharded.merge
    if merge.kind == "aggregate":
        node = ExchangeNode(shard_roots)
        node = AggregateNode(
            node,
            merge.group_specs,
            merge.reaggregate_specs,
            merge.reaggregate_order,
        )
        node = ProjectNode(node, merge.final_projection)
        if merge.having_fn is not None:
            node = FilterNode(node, merge.having_fn)
        top_k = fused_top_k(merge)  # MergeSpec quacks like a plan here
        if top_k is not None:
            node = TopKNode(
                node, merge.order_key_fns, merge.order_descending, top_k
            )
        elif merge.order_key_fns:
            node = SortNode(node, merge.order_key_fns, merge.order_descending)
        elif merge.limit is not None:
            node = LimitNode(node, merge.limit)
        return node
    if merge.kind == "ordered":
        node = MergeSortNode(
            shard_roots,
            merge.order_key_fns,
            merge.order_descending,
            batch_rows=batch_rows,
        )
        if merge.limit is not None:
            node = LimitNode(node, merge.limit)
        if merge.projection:
            node = ProjectNode(node, merge.projection)
        return node
    node = ExchangeNode(shard_roots)
    if merge.limit is not None:
        node = LimitNode(node, merge.limit)
    return node


class DistributedQueryEngine:
    """Scatter-gather executor over a
    :class:`~repro.storage.cluster.DistributedArchive`.

    The same query language as the single-store engine, with tag
    routing and cost estimation, but each SELECT fans out to the
    partition servers: shard sub-QETs run in parallel against each
    touched server's container stores and a coordinator merge tree
    recombines the streams (union, ordered k-way merge, or partial
    aggregate re-combination).  Servers outside the plan's HTM cover are
    pruned and never read.

    Parameters
    ----------
    archive:
        A :class:`DistributedArchive`; secondary sources (the tag table)
        must have been attached with ``attach_source`` for tag routing.
    density_maps:
        Optional per-source :class:`DensityMap` for cost estimates.

    Physically, each partition server runs *one* shared sweep per
    hosted store: every shard :class:`~repro.query.qet.ScanNode`
    subscribes to the server store's
    :class:`~repro.machines.sweep.SweepScanner`, so concurrent
    distributed queries share each server's circular read (and its
    :class:`~repro.storage.buffer.BufferPool`) instead of multiplying
    physical I/O by the number of in-flight queries.
    """

    kind = "distributed"
    #: per-user store overlays do not partition across shards (yet)
    supports_mydb = False

    def __init__(self, archive, density_maps=None, batch_rows=4096, workers=None):
        if not archive.servers:
            raise ValueError("archive has no servers")
        from repro.machines.workers import resolve_workers

        self.archive = archive
        self.density_maps = dict(density_maps or {})
        self.batch_rows = int(batch_rows)
        self.workers = resolve_workers(workers)

    @property
    def schemas(self):
        """Current source schemas (live view — repartition/attach safe)."""
        return self.archive.source_schemas()

    def generations_for(self, sources, extra_stores=None):
        """Per-source tuples of every shard's ``(store_uid, generation)``
        — a mutation on *any* partition server invalidates."""
        generations = {}
        for source in sources:
            pairs = []
            for server in self.archive.servers:
                store = server.stores().get(source)
                if store is None:
                    return None
                pairs.append((store.store_uid, store.generation))
            generations[source] = tuple(pairs)
        return generations

    def prepare(self, text, allow_tag_route=True):
        """Parse, plan, split and route ``text`` into an unstarted
        :class:`~repro.query.engine.PreparedQuery` carrying one
        :class:`~repro.distributed.routing.ShardFanoutReport` per SELECT."""
        ast = parse_query(text)
        schemas = self.schemas
        reports = []

        def build_select(select):
            plan = plan_query(
                select,
                schemas,
                density_maps=self.density_maps,
                allow_tag_route=allow_tag_route,
            )
            sharded = split_plan(plan)
            coverage, candidates = shard_candidates(plan, self.archive.depth)
            touched, report = route_plan(
                self.archive, plan.routed_source, candidates
            )
            reports.append(report)
            shard_roots = []
            for server in touched:
                shard_root = build_shard_tree(
                    server.stores()[plan.routed_source],
                    sharded,
                    coverage,
                    batch_rows=self.batch_rows,
                    workers=self.workers,
                )
                # Annotation consumed by the session layer's structured
                # explain: which server this sub-tree runs on.
                shard_root.server_id = server.server_id
                shard_roots.append(shard_root)
            root = build_merge_tree(shard_roots, sharded, batch_rows=self.batch_rows)
            root.fanout_report = report
            return root, output_schema_for(plan, schemas)

        root, schema = build_query_tree(ast, build_select)
        return PreparedQuery(
            text=text,
            root=root,
            schema=schema,
            reports=reports,
            sources=[report.source for report in reports],
            into=extract_into(ast),
        )
