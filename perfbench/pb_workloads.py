"""The three archive workloads: set-up, seeded operation streams, checks.

Every workload runs the bench catalog (the ``SurveyParameters`` of
``benchmarks/bench_session.py``: 48,900 objects, HTM depth 6) through
the public session API.  Operation streams are made from the workload
seed before anything is timed; the program only ever sees SQL text.

``sweep_scan``
    Two clients, local single-store backend, the photo store behind a
    20 MiB buffer pool (about half its 41 MB), four sweeping shapes
    submitted as batch jobs, the paper's sweeping searches.  Tag routing
    is off, so every shape sweeps photo through the pool, which a
    circular sweep evicts every lap.
``cone_search``
    One client, in-process 3-server ``DistributedArchive``, ``CIRCLE``
    cones of 0.5, 1, 2 and 4 degrees around seeded catalog objects.
``remote_mixed``
    Two authenticated tenant sessions, alternated by one client, over
    localhost TCP against one ``ArchiveServer`` with the result cache
    and MyDB: hot cones, result-shipping filters,
    ``SELECT ... INTO mydb`` writes and reads of those tables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

import pb_oracle

#: the bench_session catalog: 48,900 objects of 839 B
CATALOG = dict(n_galaxies=30000, n_stars=18000, n_quasars=900, seed=20020101)
DEPTH = 6
#: sweep_scan's photo buffer pool: about half the 41 MB photo store
SWEEP_POOL_BYTES = 20 << 20
CONE_RADII = (0.5, 1.0, 2.0, 4.0)
#: remote_mixed: hot cone centres, Zipf exponent, MyDB tables per user
HOT_CENTRES = 20
ZIPF_S = 1.1
MYDB_TABLES = 3
#: random stream of the hot set, apart from every client's own stream
HOT_STREAM = 99
#: remote_mixed op shares per block of ten
REMOTE_BLOCK = ("cone",) * 5 + ("ship",) * 3 + ("write", "read")


@dataclass
class Op:
    kind: str
    sql: str
    params: dict = field(default_factory=dict)
    #: False for a blocking shape (aggregate, ORDER BY): its first row
    #: is its last, so it is left out of the first-row metric
    streaming: bool = True
    #: index of the session (tenant) that submits it
    session: int = 0
    #: keyword arguments of ``Session.submit`` besides the text
    submit: dict = field(default_factory=dict)


@dataclass
class World:
    """Everything one set-up built: sessions, the catalog, and what the
    per-layer counters are read from."""

    data: np.ndarray
    sessions: list
    #: container stores whose pools and sweeps the workload reads
    stores: list
    timings: dict
    server: object = None
    closers: list = field(default_factory=list)

    @property
    def cache(self):
        return None if self.server is None else self.server.service.cache

    def close(self):
        for session in self.sessions:
            session.close()
        for close in self.closers:
            close()


def _generate_catalog():
    from repro import SkySimulator, SurveyParameters
    from repro.catalog import make_tag_table

    photo = SkySimulator(SurveyParameters(**CATALOG)).generate()
    return photo, make_tag_table(photo)


def _rng(seed, client):
    return np.random.default_rng([int(seed), int(client)])


def _num(value, digits=3):
    """A float whose repr is what the SQL text carries."""
    return float(round(float(value), digits))


def _catalog_centre(rng, data):
    row = data[int(rng.integers(len(data)))]
    return _num(row["ra"], 6), _num(row["dec"], 6)


def _blocks(rng, block, n_ops):
    """``n_ops`` kinds, each block of ``block`` shuffled: every stream
    keeps the same mix however far a client gets."""
    kinds = []
    while len(kinds) < n_ops:
        kinds.extend(block[i] for i in rng.permutation(len(block)))
    return kinds[:n_ops]


def _ids(batches):
    """The ``objid`` column of a result delivered as ``batches``."""
    if not batches:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([np.asarray(batch["objid"]) for batch in batches])


def _names(batches):
    return tuple(batches[0].schema.field_names()) if batches else ()


# ----------------------------------------------------------------------
# sweep_scan
# ----------------------------------------------------------------------


class SweepScan:
    name = "sweep_scan"
    clients = 2
    shapes = ("narrow", "wide", "agg", "topk")
    #: batch jobs that sweep photo even when the tag table would do
    submit = {"query_class": "batch", "allow_tag_route": False}

    def setup(self):
        from repro import Archive, ContainerStore
        from repro.storage import BufferPool

        t0 = time.perf_counter()
        photo, tags = _generate_catalog()
        t1 = time.perf_counter()
        stores = {
            "photo": ContainerStore.from_table(
                photo, DEPTH, buffer_pool=BufferPool(SWEEP_POOL_BYTES)
            ),
            "tag": ContainerStore.from_table(tags, DEPTH),
        }
        t2 = time.perf_counter()
        sessions = [Archive.connect(stores=stores) for _ in range(self.clients)]
        return World(
            data=photo.data,
            sessions=sessions,
            stores=[stores["photo"]],
            timings=_timings(t0, t1, t2),
        )

    def op(self, kind, rng):
        if kind == "narrow":
            return Op(kind, "SELECT objid FROM photo")
        if kind == "wide":
            x = _num(rng.uniform(19.0, 20.0))
            return Op(kind, f"SELECT * FROM photo WHERE mag_r < {x!r}", {"x": x})
        if kind == "agg":
            y = _num(rng.uniform(20.0, 22.0))
            return Op(
                kind,
                "SELECT objtype, AVG(mag_r) AS m, COUNT(objid) AS n FROM photo "
                f"WHERE mag_i < {y!r} GROUP BY objtype",
                {"y": y},
                streaming=False,
            )
        y = _num(rng.uniform(20.5, 22.5))
        return Op(
            kind,
            f"SELECT objid, mag_r FROM photo WHERE mag_g < {y!r} "
            "ORDER BY mag_r, objid LIMIT 50",
            {"y": y},
            streaming=False,
        )

    def streams(self, seed, data, n_ops):
        streams = []
        for client in range(self.clients):
            rng = _rng(seed, client)
            warmup = [self.op(kind, rng) for kind in self.shapes]
            timed = [self.op(k, rng) for k in _blocks(rng, self.shapes, n_ops)]
            for op in warmup + timed:
                op.session = client
                op.submit = self.submit
            streams.append((warmup, timed))
        return streams

    def digest(self, op, batches):
        if op.kind == "agg":
            return [
                (int(r["objtype"]), float(r["m"]), int(r["n"]))
                for batch in batches
                for r in batch.data
            ]
        return (_ids(batches), _names(batches))

    def checker(self, data):
        all_ids = data["objid"]
        columns = tuple(data.dtype.names)

        def check(op, digest, state):
            if op.kind == "agg":
                expected = pb_oracle.group_mean(
                    data, data["mag_i"] < op.params["y"], "objtype", "mag_r"
                )
                return pb_oracle.aggregate_equal(
                    digest, expected, data.dtype["mag_r"]
                )
            ids, names = digest
            if op.kind == "narrow":
                return names == ("objid",) and pb_oracle.ids_equal(ids, all_ids)
            if op.kind == "wide":
                mask = data["mag_r"] < op.params["x"]
                return names == columns and pb_oracle.ids_equal(ids, all_ids[mask])
            expected = pb_oracle.top_k(data, data["mag_g"] < op.params["y"], 50)
            return np.array_equal(ids, expected["objid"])

        return check


# ----------------------------------------------------------------------
# cone_search
# ----------------------------------------------------------------------


class ConeSearch:
    name = "cone_search"
    clients = 1

    def setup(self):
        from repro import Archive
        from repro.storage import DistributedArchive

        t0 = time.perf_counter()
        photo, tags = _generate_catalog()
        t1 = time.perf_counter()
        archive = DistributedArchive.from_table(photo, depth=DEPTH, n_servers=3)
        archive.attach_source("tag", tags)
        t2 = time.perf_counter()
        session = Archive.connect(archive=archive)
        stores = [
            store for server in archive.servers for store in server.stores().values()
        ]
        return World(
            data=photo.data,
            sessions=[session],
            stores=stores,
            timings=_timings(t0, t1, t2),
        )

    def op(self, radius, rng, data):
        ra, dec = _catalog_centre(rng, data)
        return Op(
            "cone",
            f"SELECT objid, ra, dec, mag_r FROM photo "
            f"WHERE CIRCLE({ra!r}, {dec!r}, {radius!r})",
            {"ra": ra, "dec": dec, "r": radius},
        )

    def streams(self, seed, data, n_ops):
        rng = _rng(seed, 0)
        warmup = [self.op(r, rng, data) for r in CONE_RADII]
        timed = [self.op(r, rng, data) for r in _blocks(rng, CONE_RADII, n_ops)]
        return [(warmup, timed)]

    def digest(self, op, batches):
        return _ids(batches)

    def checker(self, data):
        def check(op, ids, state):
            p = op.params
            mask = pb_oracle.cone_mask(data, p["ra"], p["dec"], p["r"])
            return pb_oracle.ids_equal(ids, data["objid"][mask])

        return check


# ----------------------------------------------------------------------
# remote_mixed
# ----------------------------------------------------------------------


class RemoteMixed:
    name = "remote_mixed"
    #: one closed-loop client alternates the tenants' sessions: two
    #: concurrent clients mostly measure their contention for the
    #: interpreter lock with the in-process server's threads
    clients = 1
    tenants = 2

    def setup(self):
        from repro import Archive, ContainerStore
        from repro.net import ArchiveServer

        t0 = time.perf_counter()
        photo, tags = _generate_catalog()
        t1 = time.perf_counter()
        stores = {
            "photo": ContainerStore.from_table(photo, DEPTH),
            "tag": ContainerStore.from_table(tags, DEPTH),
        }
        t2 = time.perf_counter()
        users = {f"tenant{k}": f"token-{k}" for k in range(self.tenants)}
        server = ArchiveServer(stores=stores, auth=users, cache=True).start()
        host_port = server.url.removeprefix("archive://")
        try:
            sessions = [
                Archive.connect(f"archive://{user}:{token}@{host_port}")
                for user, token in users.items()
            ]
        except Exception:
            server.stop()
            raise
        return World(
            data=photo.data,
            sessions=sessions,
            stores=list(stores.values()),
            timings=_timings(t0, t1, t2),
            server=server,
            closers=[server.stop],
        )

    def _hot(self, seed, data):
        """The shared hot cones (same for both tenants, so their repeats
        hit one cache entry) and their Zipf weights."""
        rng = np.random.default_rng([int(seed), HOT_STREAM])
        cones = [
            (*_catalog_centre(rng, data), CONE_RADII[k % len(CONE_RADII)])
            for k in range(HOT_CENTRES)
        ]
        weights = 1.0 / np.arange(1, HOT_CENTRES + 1) ** ZIPF_S
        return cones, weights / weights.sum()

    def op(self, kind, rng, data, hot):
        cones, weights = hot
        if kind == "cone":
            ra, dec, r = cones[int(rng.choice(len(cones), p=weights))]
            return Op(
                kind,
                f"SELECT objid, mag_r FROM photo WHERE CIRCLE({ra!r}, {dec!r}, {r!r})",
                {"ra": ra, "dec": dec, "r": r},
            )
        if kind == "ship":
            x = _num(rng.uniform(19.8, 20.1))
            return Op(
                kind,
                "SELECT objid, ra, dec, mag_g, mag_r, mag_i FROM photo "
                f"WHERE mag_r < {x!r}",
                {"x": x},
            )
        table = f"w{int(rng.integers(MYDB_TABLES))}"
        if kind == "write":
            return self._write(table, rng, data)
        x = _num(rng.uniform(20.0, 23.0))
        return Op(
            kind,
            f"SELECT objid, mag_r FROM mydb.{table} WHERE mag_r < {x!r}",
            {"table": table, "x": x},
        )

    def _write(self, table, rng, data):
        ra, dec = _catalog_centre(rng, data)
        return Op(
            "write",
            f"SELECT objid, ra, dec, cx, cy, cz, mag_r INTO mydb.{table} "
            f"FROM photo WHERE CIRCLE({ra!r}, {dec!r}, 4.0)",
            {"table": table, "ra": ra, "dec": dec, "r": 4.0},
        )

    def streams(self, seed, data, n_ops):
        hot = self._hot(seed, data)
        rng = _rng(seed, 0)
        warmup = []
        for tenant in range(self.tenants):
            # Every MyDB table exists before the first timed read.
            ops = [self._write(f"w{k}", rng, data) for k in range(MYDB_TABLES)]
            ops += [self.op(kind, rng, data, hot) for kind in ("cone", "ship", "read")]
            for op in ops:
                op.session = tenant
            warmup += ops
        timed = [
            self.op(kind, rng, data, hot) for kind in _blocks(rng, REMOTE_BLOCK, n_ops)
        ]
        for k, op in enumerate(timed):
            op.session = k % self.tenants
        return [(warmup, timed)]

    def digest(self, op, batches):
        return _ids(batches)

    def checker(self, data):
        ids = data["objid"]

        def cone_ids(p):
            return ids[pb_oracle.cone_mask(data, p["ra"], p["dec"], p["r"])]

        def check(op, got, state):
            # ``state`` maps a tenant's MyDB table to its last write.
            p = op.params
            if op.kind == "cone":
                return pb_oracle.ids_equal(got, cone_ids(p))
            if op.kind == "ship":
                return pb_oracle.ids_equal(got, ids[data["mag_r"] < p["x"]])
            if op.kind == "write":
                state[op.session, p["table"]] = p
                return pb_oracle.ids_equal(got, cone_ids(p))
            written = state[op.session, p["table"]]
            mask = pb_oracle.cone_mask(
                data, written["ra"], written["dec"], written["r"]
            ) & (data["mag_r"] < p["x"])
            return pb_oracle.ids_equal(got, ids[mask])

        return check


def _timings(t0, t1, t2):
    """Catalog generation and store build; server start and connect are
    counted in ``setup_s`` only."""
    return {"generate_s": t1 - t0, "load_s": t2 - t1}


WORKLOADS = {w.name: w for w in (SweepScan(), ConeSearch(), RemoteMixed())}
