"""Served plans carry plan nodes only: the constant-node catalog contract.

A serving core interns every constant node (table, attribute, predicate,
join predicate, output: no plan operator below it) in a per-core
:class:`~repro.featurization.catalog.ConstantCatalog` and keeps, per route,
the hidden states those nodes took under the route's model
(:class:`~repro.featurization.catalog.ConstantStates`).  The load-bearing
contract: every served value equals ``predict_runtimes(featurize_records(
...))`` — the full-graph reference — bit for bit, on both transports,
with a cold or a warm memo, at any batch size, for every card source and
node type, right after a promote, and across a catalog reset.
"""

import dataclasses
import marshal
import multiprocessing
from hashlib import blake2b

import numpy as np
import pytest

import repro.featurization.catalog as catalog_module
from repro import perfstats
from repro.core import TrainingConfig, ZeroShotCostModel, featurize_records
from repro.core.model import ZeroShotModel
from repro.core.training import predict_runtimes
from repro.datagen import generate_database, random_database_spec
from repro.featurization import (FeatureScalers, TargetScaler,
                                 build_query_graphs, plan_token)
from repro.featurization.catalog import ConstantCatalog, ConstantStates
from repro.featurization.graph import TYPE_CODES
from repro.serving import (ModelRegistry, PredictorFleet, PredictorServer,
                           RequestStatus, ServerConfig)
from repro.optimizer import PlanNode
from repro.sql import (AggregateSpec, BooleanPredicate, Comparison, JoinEdge,
                       PredOp)
from repro.workloads import WorkloadConfig, WorkloadGenerator, generate_trace

TRANSPORTS = ["server", "fleet"]
if "fork" not in multiprocessing.get_all_start_methods():
    TRANSPORTS = ["server"]

# Disjunctions, IN and LIKE literals, group and sort keys: every node type.
_COMPLEX = WorkloadConfig(mode="complex", max_joins=2, group_by_prob=0.3,
                          order_by_prob=0.3, disjunction_prob=0.5,
                          in_pred_prob=0.4, string_pred_prob=0.5)


def _make_db(name, seed):
    spec = random_database_spec(name, seed=seed, layout="snowflake",
                                base_rows=400, n_tables=4, complexity=0.8)
    return generate_database(spec)


def _nest(query):
    """``query`` with every boolean filter ``B`` nested one level deeper,
    as ``OR(B, first child of B)``."""
    filters = {}
    for table, predicate in query.filters.items():
        if isinstance(predicate, BooleanPredicate):
            predicate = BooleanPredicate(
                PredOp.OR, (predicate, predicate.children[0]))
        filters[table] = predicate
    return dataclasses.replace(query, filters=filters)


def _records(db, n, seed):
    queries = WorkloadGenerator(db, _COMPLEX, seed=seed).generate(n)
    queries = [_nest(q) if i % 2 else q for i, q in enumerate(queries)]
    return list(generate_trace(db, queries, seed=seed))


def _make_model(graphs, runtimes, seed):
    model = ZeroShotModel(hidden_dim=16, seed=seed).eval()
    model.to(np.float32)
    return ZeroShotCostModel(model, FeatureScalers().fit(graphs),
                             TargetScaler().fit(runtimes),
                             TrainingConfig(hidden_dim=16, dtype="float32"))


def _reference(model, records, dbs, cards="exact", storage_formats=None):
    """The full-graph reference the served values must equal."""
    graphs = featurize_records(records, dbs, cards=cards,
                               storage_formats=storage_formats)
    return predict_runtimes(model.model, graphs, model.feature_scalers,
                            model.target_scaler, batch_cache=False)


def _predicate_kinds(predicate, depth=0, kinds=None):
    kinds = set() if kinds is None else kinds
    if predicate[0] == "C":
        kinds.add(predicate[3])
    else:
        kinds.add("nested" if depth else "boolean")
        for child in predicate[2]:
            _predicate_kinds(child, depth + 1, kinds)
    return kinds


def _node_kinds(token, kinds):
    if token[9] is not None:
        _predicate_kinds(token[9], 0, kinds)
    for slot, name in ((10, "join"), (11, "output"), (12, "group_by"),
                       (13, "sort")):
        if token[slot]:
            kinds.add(name)
    for child in token[14]:
        _node_kinds(child, kinds)
    return kinds


@pytest.fixture(scope="module")
def world():
    db_a, db_b = _make_db("const_a", seed=41), _make_db("const_b", seed=42)
    dbs = {db_a.name: db_a, db_b.name: db_b}
    records = {db_a.name: _records(db_a, 36, seed=3),
               db_b.name: _records(db_b, 36, seed=4)}
    # Round-robin over the databases, like live traffic: every batch of
    # two or more mixes them.
    mix = [(name, recs[i]) for i in range(36)
           for name, recs in records.items()]
    graphs = featurize_records([record for _, record in mix], dbs)
    runtimes = np.array([record.runtime_ms for _, record in mix])
    return {"dbs": dbs, "mix": mix,
            "model": _make_model(graphs, runtimes, seed=0),
            "model_v2": _make_model(graphs, runtimes, seed=1)}


def _registry(tmp_path, model):
    registry = ModelRegistry(tmp_path)
    registry.publish("main", model, default=True)
    return registry


def _transport(kind, registry, dbs, config):
    if kind == "fleet":
        return PredictorFleet(registry, dbs, config, n_workers=1)
    return PredictorServer(registry, dbs, config)


def _submit(transport, mix):
    return [transport.submit(record.plan, name) for name, record in mix]


def _values(handles):
    values = [handle.result(60) for handle in handles]
    assert all(handle.status is RequestStatus.DONE for handle in handles)
    return np.array(values)


def _counters(transport):
    transport.stats()  # a fleet's worker counters arrive with it
    return perfstats.snapshot()


class TestServedConstantNodes:
    def test_plans_cover_every_node_type(self, world):
        """The fixture's plans hold every node type and literal feature the
        catalog keys: IN lists, LIKE patterns, nested booleans, joins,
        outputs, group and sort keys."""
        kinds = set()
        for _, record in world["mix"]:
            _node_kinds(plan_token(record.plan), kinds)
        assert {"IN", "LIKE", "boolean", "nested", "join", "output",
                "group_by", "sort"} <= kinds
        catalog = ConstantCatalog()
        featurize_records([record for _, record in world["mix"]],
                          world["dbs"], catalog=catalog)
        assert set(catalog.codes) == {TYPE_CODES[t] for t in (
            "predicate", "table", "attribute", "output")}

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_cold_then_warm_memo(self, world, tmp_path, transport):
        """A first pass computes every constant node; a second pass over
        the same plans (result cache off) reads them all from the route's
        states.  Both equal the full-graph reference."""
        config = ServerConfig(result_cache_size=0, max_batch_size=8)
        expected = _reference(world["model"],
                              [record for _, record in world["mix"]],
                              world["dbs"])
        perfstats.reset()
        with _transport(transport, _registry(tmp_path, world["model"]),
                        world["dbs"], config) as served:
            cold = _values(_submit(served, world["mix"]))
            counters = _counters(served)
            perfstats.reset()
            warm = _values(_submit(served, world["mix"]))
            warm_counters = _counters(served)
        np.testing.assert_array_equal(cold, expected)
        np.testing.assert_array_equal(warm, expected)
        assert counters["serve.constant_nodes.computed"] > 0
        assert warm_counters.get("serve.constant_nodes.computed", 0) == 0
        assert warm_counters["serve.constant_nodes.reused"] > 0

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("batch_size", [1, 2, 64])
    def test_batch_sizes(self, world, tmp_path, transport, batch_size):
        """Queued before start, the mix runs as batches of exactly
        ``batch_size`` plans (the last one shorter); every batch of two or
        more spans both databases."""
        config = ServerConfig(result_cache_size=0, max_batch_size=batch_size)
        mix = world["mix"][:64 if batch_size == 64 else 10]
        served = _transport(transport, _registry(tmp_path, world["model"]),
                            world["dbs"], config)
        handles = _submit(served, mix)
        with served:
            got = _values(handles)
            sizes = served.stats()["batch_size_hist"]
        np.testing.assert_array_equal(got, _reference(
            world["model"], [record for _, record in mix], world["dbs"]))
        assert max(sizes) == batch_size

    @pytest.mark.parametrize("transport", TRANSPORTS)
    @pytest.mark.parametrize("cards", ["exact", "optimizer", "deepdb"])
    def test_every_card_source(self, world, tmp_path, transport, cards):
        mix = world["mix"][:24]
        config = ServerConfig(cards=cards, result_cache_size=0,
                              max_batch_size=len(mix))
        served = _transport(transport, _registry(tmp_path, world["model"]),
                            world["dbs"], config)
        # One batch, annotated in submit order (DeepDB samples), as the
        # reference annotates them.
        handles = _submit(served, mix)
        with served:
            got = _values(handles)
        np.testing.assert_array_equal(got, _reference(
            world["model"], [record for _, record in mix], world["dbs"],
            cards=cards))

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_promote_starts_an_empty_memo(self, world, tmp_path, transport):
        """After a promote the new route computes every constant node
        under the new model: none of the old model's states is read."""
        mix = world["mix"][:24]
        records = [record for _, record in mix]
        registry = _registry(tmp_path, world["model"])
        config = ServerConfig(result_cache_size=0, max_batch_size=8)
        with _transport(transport, registry, world["dbs"],
                        config) as served:
            before = _values(_submit(served, mix))
            registry.publish("main", world["model_v2"])  # auto-promote
            perfstats.reset()
            after = _values(_submit(served, mix))
            counters = _counters(served)
        np.testing.assert_array_equal(before, _reference(
            world["model"], records, world["dbs"]))
        np.testing.assert_array_equal(after, _reference(
            world["model_v2"], records, world["dbs"]))
        assert counters["serve.constant_nodes.computed"] > 0

    @pytest.mark.parametrize("transport", TRANSPORTS)
    def test_across_catalog_resets(self, world, tmp_path, transport,
                                   monkeypatch):
        """A small cap resets the catalog between batches: the cached
        graphs and every route's states go with it, and the values do not
        change."""
        monkeypatch.setattr(catalog_module, "CATALOG_CAP", 24)
        config = ServerConfig(result_cache_size=0, max_batch_size=4)
        perfstats.reset()
        with _transport(transport, _registry(tmp_path, world["model"]),
                        world["dbs"], config) as served:
            first = _values(_submit(served, world["mix"]))
            second = _values(_submit(served, world["mix"]))
            counters = _counters(served)
        expected = _reference(world["model"],
                              [record for _, record in world["mix"]],
                              world["dbs"])
        np.testing.assert_array_equal(first, expected)
        np.testing.assert_array_equal(second, expected)
        assert counters["featurize.catalog.reset"] >= 2

    def test_cap_bounds_the_catalog(self, world, tmp_path, monkeypatch):
        """The core checks the cap before each batch: a catalog holds at
        most the cap plus one batch's new nodes, and a reset empties the
        featurization cache and starts a new epoch."""
        cap = 40
        monkeypatch.setattr(catalog_module, "CATALOG_CAP", cap)
        config = ServerConfig(result_cache_size=0, max_batch_size=1)
        served = PredictorServer(_registry(tmp_path, world["model"]),
                                 world["dbs"], config)
        core = served.core
        catalog = core._catalog
        sizes, epochs = [], []
        with served:
            for name, record in world["mix"][:30]:
                epoch = catalog.epoch
                served.submit(record.plan, name).result(60)
                if catalog.epoch != epoch:
                    # Reset before this batch: only its graph is cached.
                    assert len(core._feat_cache) == 1
                sizes.append(len(catalog))
                epochs.append(catalog.epoch)
        per_plan = max(b - a for a, b in zip([0] + sizes, sizes))
        assert max(sizes) < cap + per_plan
        assert epochs[-1] >= 1
        route = next(iter(core._routes.values()))
        assert route.states.epoch == catalog.epoch

    def test_storage_format_is_part_of_the_key(self, world):
        """One catalog and one set of states serve the same plans under
        two storage-format maps: each equals its own full-graph
        reference (a table's key holds its format)."""
        model = world["model"]
        records = [record for _, record in world["mix"][:12]]
        catalog = ConstantCatalog()
        states = ConstantStates(catalog)
        for formats in ({}, {table: "column" for db in world["dbs"].values()
                             for table in db.tables}, {}):
            graphs = featurize_records(records, world["dbs"],
                                       storage_formats=formats,
                                       catalog=catalog)
            got = predict_runtimes(model.model, graphs, model.feature_scalers,
                                   model.target_scaler, states=states)
            np.testing.assert_array_equal(got, _reference(
                model, records, world["dbs"], storage_formats=formats))

    def test_literal_features_are_part_of_the_key(self, world):
        """IN lists of other lengths and LIKE patterns of other complexity
        on one column are distinct catalog nodes."""
        catalog = ConstantCatalog()
        featurize_records([record for _, record in world["mix"]],
                          world["dbs"], catalog=catalog)
        predicate = TYPE_CODES["predicate"]
        leaves = {}
        for node, code in enumerate(catalog.codes):
            children = catalog.children[node]
            if code == predicate and len(children) == 1:
                leaves.setdefault((children[0], catalog.rows[node][1]),
                                  set()).add(catalog.rows[node][0])
        assert any(len(features) > 1 for features in leaves.values())

    def test_catalog_ids_do_not_depend_on_hash_order(self, world):
        """Ids are assigned in traversal order, never in set or dict order:
        the catalog of fixed hand-built plans is pinned (CI reruns this
        class under other hash seeds)."""
        db = world["dbs"]["const_a"]
        catalog = ConstantCatalog()
        graphs = build_query_graphs(db, _pinned_plans(db), "exact",
                                    catalog=catalog)
        content = marshal.dumps((catalog.codes, catalog.levels,
                                 catalog.children, catalog.rows,
                                 [graph.constant_edges.tolist()
                                  for graph in graphs]), 2)
        assert len(catalog) == PINNED_NODES
        assert blake2b(content, digest_size=8).hexdigest() == PINNED_DIGEST


def _pinned_plans(db):
    """Hand-built plans over ``db``'s tables in sorted order: nested
    booleans with IN and LIKE leaves, joins, aggregates, group and sort
    keys."""
    tables = sorted(db.tables)
    scans = []
    for index, table in enumerate(tables):
        first, last = sorted(db.table(table).columns)[::len(
            db.table(table).columns) - 1]
        # IN lists of two lengths and LIKE patterns of two complexities on
        # one column: distinct nodes only by their literal features.
        leaves = (Comparison(table, first, PredOp.EQ, 1),
                  Comparison(table, last, PredOp.IN, (1, 2)),
                  Comparison(table, last, PredOp.IN, (1, 2, 3)[:2 + index % 2]),
                  Comparison(table, first, PredOp.LIKE, "%ab_"),
                  Comparison(table, first, PredOp.LIKE, "%ab_%x"[:2 + index]),
                  Comparison(table, last, PredOp.LT, 2.5))
        scans.append(PlanNode("SeqScan", table=table, est_rows=40.0 + index,
                              true_rows=38.0, filter_predicate=BooleanPredicate(
                                  PredOp.OR, (
                                      BooleanPredicate(PredOp.AND, leaves[:3]),
                                      BooleanPredicate(PredOp.AND,
                                                       leaves[3:])))))
    plans = list(scans)
    for (left, right), (t_left, t_right) in zip(
            zip(scans, scans[1:]), zip(tables, tables[1:])):
        key_left = sorted(db.table(t_left).columns)[0]
        key_right = sorted(db.table(t_right).columns)[0]
        join = PlanNode("HashJoin", children=[left, right], est_rows=30.0,
                        join=JoinEdge(t_left, key_left, t_right, key_right))
        aggregate = PlanNode(
            "HashAggregate", children=[join], est_rows=4.0,
            aggregates=(AggregateSpec("count"),
                        AggregateSpec("sum", t_left, key_left)),
            group_by=((t_right, key_right),))
        plans.append(PlanNode("Sort", children=[aggregate], est_rows=4.0,
                              sort_keys=((t_left, key_left),)))
    return plans


PINNED_NODES = 52
PINNED_DIGEST = "dfad784c5b0ef402"
