"""Tests for the per-atom workload queues."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CostModel, MetricConfig, SchedulerConfig
from repro.core.jaws import JAWSScheduler
from repro.core.metrics import aged_metric, workload_throughput
from repro.core.queues import WorkloadQueues
from repro.core.two_level import select_two_level
from repro.grid.atoms import AtomMapper
from repro.grid.dataset import DatasetSpec
from repro.grid.interpolation import InterpolationSpec
from repro.workload.query import Query, preprocess_query

INTERP = InterpolationSpec()

SPEC = DatasetSpec.small(n_timesteps=4, atoms_per_axis=4)
MAPPER = AtomMapper(SPEC)


def make_subqueries(n_positions=50, timestep=0, seed=0, qid=0):
    rng = np.random.default_rng(seed)
    q = Query(
        query_id=qid,
        job_id=qid,
        seq=0,
        user_id=0,
        op="velocity",
        timestep=timestep,
        positions=rng.uniform(0, SPEC.grid_side, (n_positions, 3)),
    )
    return preprocess_query(q, MAPPER, INTERP)


def one_atom_clones(n_atoms, qid=0):
    """One sub-query per atom id ``0..n_atoms-1``, all of one query."""
    sq = make_subqueries(5, qid=qid)[0]
    return [
        type(sq)(query=sq.query, atom_id=atom, n_positions=sq.n_positions)
        for atom in range(n_atoms)
    ]


class TestAddPop:
    def test_counts_aggregate(self):
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        subs = make_subqueries(100)
        for sq in subs:
            queues.add(sq, now=1.0)
        assert queues.total_positions == 100
        assert len(queues) == len({sq.atom_id for sq in subs})

    def test_pop_returns_all_subqueries(self):
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        subs = make_subqueries(200, seed=1)
        for sq in subs:
            queues.add(sq, now=0.0)
        atom = subs[0].atom_id
        drained = queues.pop_atom(atom)
        assert all(sq.atom_id == atom for sq in drained)
        assert atom not in queues
        assert queues.total_positions == 200 - sum(sq.n_positions for sq in drained)

    def test_pop_missing_raises(self):
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        with pytest.raises(KeyError):
            queues.pop_atom(42)

    def test_slot_recycling(self):
        """Rows freed by drains are reused: fill/drain cycles never grow
        the columns and leave the queues coherent."""
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        subs = make_subqueries(30, seed=2)
        for cycle in range(3):
            for sq in subs:
                queues.add(sq, now=float(cycle))
            assert queues.check_consistency() == []
            for atom in sorted({sq.atom_id for sq in subs}):
                queues.pop_atom(atom)
        assert len(queues) == 0
        assert queues.total_positions == 0
        assert queues.capacity == 256

    def test_oldest_arrival_preserved_across_adds(self):
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        subs = make_subqueries(20, seed=3)
        atom = subs[0].atom_id
        queues.add(subs[0], now=1.0)
        queues.add(subs[0], now=9.0)  # later arrival must not reset age
        assert queues.oldest_arrival(atom) == 1.0

    def test_swap_remove_keeps_rows_addressable(self):
        """Draining a middle atom moves the last row into its place;
        every surviving atom keeps its own count and age."""
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        clones = one_atom_clones(6)
        for i, sq in enumerate(clones):
            queues.add(sq, now=float(i))
        queues.pop_atom(2)
        for atom in (0, 1, 3, 4, 5):
            assert queues.oldest_arrival(atom) == float(atom)
            assert queues.positions_pending(atom) == clones[atom].n_positions
        assert queues.positions_pending(2) == 0
        assert queues.check_consistency() == []


class TestViews:
    def test_active_view_parallel_arrays(self):
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        for sq in make_subqueries(120, seed=4):
            queues.add(sq, now=2.0)
        ids, steps, counts, oldest, ut = queues.active_view()
        assert len(ids) == len(queues)
        assert counts.sum() == 120
        assert (oldest == 2.0).all()
        np.testing.assert_array_equal(steps, queues.timesteps_of(ids))
        uncached = np.zeros(len(ids), dtype=bool)
        np.testing.assert_array_equal(ut, workload_throughput(counts, uncached, CostModel()))

    def test_empty_view(self):
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        assert all(len(arr) == 0 for arr in queues.active_view())

    def test_timesteps_of(self):
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        ids = np.array([0, SPEC.atoms_per_timestep + 3, 2 * SPEC.atoms_per_timestep])
        np.testing.assert_array_equal(queues.timesteps_of(ids), [0, 1, 2])

    def test_active_view_is_activation_order(self):
        """Swap-remove permutes the packed rows, but the view lists
        atoms in activation order; a re-activated atom goes last."""
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        clones = one_atom_clones(5)
        for sq in clones:
            queues.add(sq, now=0.0)
        queues.pop_atom(1)
        queues.add(clones[1], now=1.0)
        assert queues.active_view().atom_ids.tolist() == [0, 2, 3, 4, 1]
        order = [subs[0].atom_id for subs in queues.iter_subquery_lists()]
        assert order == [0, 2, 3, 4, 1]

    def test_active_view_groups_time_steps(self):
        """Across time steps the view is grouped by step, ascending;
        within each step it keeps activation order."""
        per = SPEC.atoms_per_timestep
        queues = WorkloadQueues(per)
        sq = one_atom_clones(1)[0]
        for atom in (2 * per + 1, 5, per + 7, 2 * per, 3, per + 2):
            queues.add(type(sq)(query=sq.query, atom_id=atom, n_positions=1), now=0.0)
        view = queues.active_view()
        assert view.atom_ids.tolist() == [5, 3, per + 7, per + 2, 2 * per + 1, 2 * per]
        assert view.timesteps.tolist() == [0, 0, 1, 1, 2, 2]
        # Evacuation walks activation order across steps.
        drained = [s.atom_id for _, s in queues.pop_all_entries()]
        assert drained == [2 * per + 1, 5, per + 7, 2 * per, 3, per + 2]
        assert len(queues) == 0 and queues.check_consistency() == []

    def test_packed_columns_match_view(self):
        cost = CostModel(t_b=0.02)
        queues = WorkloadQueues(SPEC.atoms_per_timestep, cost=cost)
        subs = make_subqueries(80, seed=12)
        for sq in subs:
            queues.add(sq, now=3.0)
        queues.on_cache_insert(subs[0].atom_id)
        ids, ut, oldest = queues.packed()
        v_ids, _, v_counts, v_oldest, v_ut = queues.active_view()
        order, v_order = np.argsort(ids), np.argsort(v_ids)
        np.testing.assert_array_equal(ids[order], v_ids[v_order])
        np.testing.assert_array_equal(oldest[order], v_oldest[v_order])
        v_cached = v_ids == subs[0].atom_id
        expected = workload_throughput(v_counts, v_cached, cost)
        np.testing.assert_array_equal(ut[order], expected[v_order])
        np.testing.assert_array_equal(v_ut, expected)


class TestCacheFlags:
    def test_flags_follow_listeners(self):
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        subs = make_subqueries(40, seed=5)
        atom = subs[0].atom_id
        queues.on_cache_insert(atom)  # cached before any queue entry
        for sq in subs:
            queues.add(sq, now=0.0)
        assert queues._cached[queues._pos[atom]]
        queues.on_cache_evict(atom)
        assert not queues._cached[queues._pos[atom]]
        assert queues.check_consistency() == []

    def test_growth_beyond_initial_slot_block(self):
        """The columns start at 256 rows and double when full;
        exercise crossing the initial capacity (the 4-step x 64-atom
        spec has exactly 256 distinct atoms)."""
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        made = 0
        for seed in range(40):
            for sq in make_subqueries(60, timestep=seed % 4, seed=seed, qid=seed):
                queues.add(sq, now=0.0)
                made += sq.n_positions
        assert queues.total_positions == made
        view = queues.active_view()
        assert view.counts.sum() == made
        assert len(view.atom_ids) <= 256


class TestGrowth:
    def test_capacity_doubles_geometrically(self):
        queues = WorkloadQueues(atoms_per_timestep=1 << 20)
        assert queues.capacity == 256
        for clone in one_atom_clones(300):  # force one doubling past 256
            queues.add(clone, now=0.0)
        assert queues.capacity == 512
        assert len(queues) == 300
        assert queues.check_consistency() == []

    def test_capacity_hint_preallocates(self):
        queues = WorkloadQueues(atoms_per_timestep=4096, capacity_hint=1000)
        assert queues.capacity == 1024  # next power of two >= hint
        assert WorkloadQueues(4096, capacity_hint=0).capacity == 256


class TestVersionedView:
    def test_view_memoized_between_mutations(self):
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        for sq in make_subqueries(50, seed=6):
            queues.add(sq, now=1.0)
        first = queues.active_view()
        assert queues.active_view() is first  # no mutation: same snapshot
        queues.add(make_subqueries(10, seed=7, qid=1)[0], now=2.0)
        assert queues.active_view() is not first

    def test_view_arrays_read_only(self):
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        for sq in make_subqueries(30, seed=8):
            queues.add(sq, now=0.0)
        for arr in queues.active_view():
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_version_bumps_on_every_mutation(self):
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        subs = make_subqueries(30, seed=9, qid=3)
        v = queues.version
        queues.add(subs[0], now=0.0)
        assert queues.version > v
        v = queues.version
        queues.on_cache_insert(subs[0].atom_id)
        assert queues.version > v
        v = queues.version
        queues.pop_atom(subs[0].atom_id)
        assert queues.version > v

    def test_cache_event_on_idle_atom_keeps_view(self):
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        for sq in make_subqueries(20, seed=10):
            queues.add(sq, now=0.0)
        view = queues.active_view()
        queues.on_cache_insert(10 ** 6)  # atom with no pending work
        assert queues.active_view() is view


class TestRemoveQuery:
    def overlapping_queries(self):
        """Two queries over the same positions (same atoms), plus the
        queues loaded with both at distinct arrival times."""
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        early = make_subqueries(80, seed=11, qid=100)
        late = make_subqueries(80, seed=11, qid=101)
        for sq in early:
            queues.add(sq, now=1.0)
        for sq in late:
            queues.add(sq, now=5.0)
        return queues, early, late

    def test_remove_missing_query_is_noop(self):
        queues, _, _ = self.overlapping_queries()
        before = queues.total_positions
        assert queues.remove_query(999) == 0
        assert queues.total_positions == before

    def test_remove_restores_true_oldest_arrival(self):
        queues, early, late = self.overlapping_queries()
        atom = early[0].atom_id
        assert queues.oldest_arrival(atom) == 1.0
        queues.remove_query(100)  # cancel the older query
        # The true remaining age is the later query's arrival — not the
        # stale conservative 1.0 the pre-index implementation kept.
        assert queues.oldest_arrival(atom) == 5.0
        assert queues.check_consistency() == []

    def test_remove_counts_and_positions(self):
        queues, early, late = self.overlapping_queries()
        removed = queues.remove_query(101)
        assert removed == len(late)
        assert queues.total_positions == sum(sq.n_positions for sq in early)
        assert queues.check_consistency() == []

    def test_remove_last_query_frees_slots(self):
        queues, early, late = self.overlapping_queries()
        queues.remove_query(100)
        queues.remove_query(101)
        assert len(queues) == 0
        assert queues.total_positions == 0
        assert queues.check_consistency() == []

    def test_pop_atom_entries_keeps_per_subquery_arrivals(self):
        queues, early, late = self.overlapping_queries()
        atom = early[0].atom_id
        entries = queues.pop_atom_entries(atom)
        arrivals = {arrival for arrival, _ in entries}
        assert arrivals == {1.0, 5.0}
        for arrival, sq in entries:
            assert arrival == (1.0 if sq.query.query_id == 100 else 5.0)
        assert atom not in queues
        assert queues.check_consistency() == []

    # The audits below corrupt private state on purpose: no public
    # operation can produce an incoherent queue.
    def test_consistency_detects_arrival_drift(self):
        queues, early, _ = self.overlapping_queries()
        queues._oldest[queues._pos[early[0].atom_id]] = 0.25  # no arrival matches
        assert any("min arrival" in p for p in queues.check_consistency())

    def test_consistency_detects_index_drift(self):
        queues, early, _ = self.overlapping_queries()
        queues._by_query[100].remove(early[0].atom_id)
        assert any("inverted index" in p for p in queues.check_consistency())


class TestPackedAudit:
    """``check_consistency`` also audits the packed columns."""

    def loaded(self):
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        for i, sq in enumerate(one_atom_clones(6)):
            queues.add(sq, now=float(i))
        return queues

    def test_clean_after_mixed_mutations(self):
        queues = self.loaded()
        queues.on_cache_insert(3)
        queues.pop_atom(1)
        queues.remove_query(0)
        assert len(queues) == 0
        assert queues.check_consistency() == []

    def test_detects_broken_inverse_map(self):
        queues = self.loaded()
        queues._pos[0], queues._pos[1] = queues._pos[1], queues._pos[0]
        assert any("not inverse" in p for p in queues.check_consistency())

    def test_detects_stale_ut(self):
        queues = self.loaded()
        queues._ut[0] += 1.0
        assert any("Eq. 1" in p for p in queues.check_consistency())

    def test_detects_duplicate_sequence_numbers(self):
        queues = self.loaded()
        queues._seq[1] = queues._seq[0]
        assert any("not unique" in p for p in queues.check_consistency())


def queue_state(queues):
    """Everything ``add`` and ``add_query`` write, column by column."""
    n = len(queues)
    cols = tuple(
        col[:n].tolist()
        for col in (queues._ids, queues._counts, queues._oldest, queues._cached,
                    queues._ut, queues._seq)
    )
    return (
        cols,
        dict(queues._pos),
        [[id(sq) for sq in subs] for subs in queues._subqueries],
        queues._arrivals,
        queues._by_query,
        queues.total_positions,
        queues.version,
        queues.capacity,
    )


def record_state(queues):
    """:func:`queue_state` with each row's sub-queries compared by
    their fields: a record builds new objects on every pass."""
    state = queue_state(queues)
    rows = [
        [(sq.query.query_id, sq.atom_id, sq.n_positions, sq.neighbor_keys) for sq in subs]
        for subs in queues._subqueries
    ]
    return state[:2] + state[3:], rows


class TestAddQuery:
    """``add_query`` is sequential ``add`` with vectorized column writes."""

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sequential_add(self, seed):
        batched = WorkloadQueues(SPEC.atoms_per_timestep)
        scalar = WorkloadQueues(SPEC.atoms_per_timestep)
        rng = np.random.default_rng(seed)
        for queues in (batched, scalar):
            queues.on_cache_insert(3)
        for step in range(12):
            # A list, so both queues are handed the same objects (a
            # record builds new ones on every pass).
            subs = list(make_subqueries(
                int(rng.integers(1, 80)), timestep=int(rng.integers(0, 4)),
                seed=seed * 100 + step, qid=step,
            ))
            # Arrivals move back and forth, so some rows' oldest drops.
            now = float(rng.uniform(0, 10))
            batched.add_query(subs, now)
            for sq in subs:
                scalar.add(sq, now)
            if step % 3 == 2:
                atom = int(batched.active_view()[0][0])
                batched.pop_atom(atom)
                scalar.pop_atom(atom)
            assert queue_state(batched) == queue_state(scalar)
            assert batched.check_consistency() == []

    def test_growth_past_capacity_in_one_call(self):
        batched = WorkloadQueues(atoms_per_timestep=1 << 20)
        scalar = WorkloadQueues(atoms_per_timestep=1 << 20)
        clones = one_atom_clones(600)
        batched.add_query(clones, 2.0)
        for sq in clones:
            scalar.add(sq, 2.0)
        assert batched.capacity == 1024
        assert queue_state(batched) == queue_state(scalar)

    def test_empty_list_is_a_no_op(self):
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        queues.add_query([], 1.0)
        assert queues.version == 0 and len(queues) == 0

    def test_record_matches_sequential_add(self):
        """A record's columns leave the same state as ``add`` on each of
        its sub-queries: the same rows, fields and index entry."""
        batched = WorkloadQueues(SPEC.atoms_per_timestep)
        scalar = WorkloadQueues(SPEC.atoms_per_timestep)
        for step in range(6):
            record = make_subqueries(40, timestep=step % 4, seed=step, qid=step % 4)
            batched.add_query(record, float(step))
            for sq in record:
                scalar.add(sq, float(step))
        assert record_state(batched) == record_state(scalar)
        assert batched.check_consistency() == []


class TestQueryIndex:
    """An entry lives from arrival to completion or cancellation."""

    def test_drain_keeps_entry_until_forgotten(self):
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        record = make_subqueries(60, seed=13, qid=7)
        queues.add_query(record, 0.0)
        assert queues._by_query[7].tolist() == record.atom_ids.tolist()
        for atom in record.atom_ids.tolist():
            queues.pop_atom(atom)
        assert 7 in queues._by_query
        version = queues.version
        assert queues.remove_query(7) == 0
        # Cancelling a drained query keeps the memoized view and metrics.
        assert queues.version == version
        queues.add_query(record, 1.0)
        queues.forget_query(7)
        assert queues._by_query == {}

    def test_readmitted_atom_is_cancelled_once(self):
        """A drained atom re-admitted for the same query appears twice
        in its entry; cancellation still removes it once."""
        queues = WorkloadQueues(SPEC.atoms_per_timestep)
        subs = list(make_subqueries(60, seed=14, qid=8))
        queues.add_query(subs, 0.0)
        other = make_subqueries(60, seed=14, qid=9)
        queues.add_query(other, 0.5)
        entries = queues.pop_atom_entries(subs[0].atom_id)
        queues.add(subs[0], 0.0)
        queues.add(other[0], 0.5)
        assert queues._by_query[8].count(subs[0].atom_id) == 2
        assert queues.remove_query(8) == len(subs)
        assert len(entries) == 2
        assert queues.total_positions == sum(sq.n_positions for sq in other)
        assert queues.check_consistency() == []

    def test_cancel_visits_only_the_query_rows(self):
        """On a 16k-atom queue, cancelling a 50-atom query filters 50
        rows, not 16k."""
        queues = WorkloadQueues(atoms_per_timestep=1 << 30)
        for sq in one_atom_clones(16_000, qid=1):
            queues.add(sq, 0.0)
        target = one_atom_clones(50, qid=2)
        queues.add_query(target, 1.0)
        visited = []
        drop = queues._drop_query_from_row

        def counting(atom_id, p, query_id):
            visited.append(atom_id)
            return drop(atom_id, p, query_id)

        queues._drop_query_from_row = counting
        assert queues.remove_query(2) == 50
        assert sorted(visited) == list(range(50))
        assert len(queues) == 16_000
        assert queues.check_consistency() == []


def _reference_choice(queues, now, alpha, metric, k, cost):
    """The decision computed the way it was before the view was grouped
    by time step: rows in activation order, Eq. 1 recomputed from the
    counts, and a stable argsort by time step for the per-step sums."""
    n = len(queues)
    order = np.argsort(queues._seq[:n], kind="stable")
    ids = queues._ids[:n][order]
    u_t = workload_throughput(queues._counts[:n][order], queues._cached[:n][order], cost)
    u_e = aged_metric(u_t, queues._oldest[:n][order], now, alpha, metric)
    ts = queues.timesteps_of(ids)
    by_step = np.argsort(ts, kind="stable")
    starts = np.concatenate(([0], np.flatnonzero(np.diff(ts[by_step])) + 1))
    sums = np.add.reduceat(u_e[by_step], starts)
    best = ts[by_step][starts[int(np.argmax(sums))]]
    in_step = ts == best
    step_ut = u_t[in_step]
    qualified = step_ut > step_ut.mean()
    if not qualified.any():
        qualified[:] = True
    cand_ids, cand_ue = ids[in_step][qualified], u_e[in_step][qualified]
    top = np.lexsort((cand_ids, -cand_ue))[:k]
    u_e_of = dict(zip(ids.tolist(), u_e.tolist()))
    return sorted(int(a) for a in cand_ids[top]), u_e_of, ids[by_step].tolist()


_OPS = ("add", "record", "list", "pop", "cancel", "insert", "evict", "reactivate", "readmit")


class TestDecisionAgainstActivationOrderOracle:
    """Random mutation sequences: the grouped view, the maintained
    ``u_t`` column and two-level selection choose what the
    activation-order computation chooses, with bit-identical U_e, and
    the view lists the rows in the order the per-step sums read them."""

    @settings(max_examples=60, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(_OPS), st.integers(0, 2**32 - 1)),
            min_size=1,
            max_size=40,
        ),
        alpha=st.sampled_from([0.0, 0.25, 1.0]),
        k=st.integers(1, 6),
        normalize=st.booleans(),
    )
    def test_choice_matches_reference(self, ops, alpha, k, normalize):
        cost = CostModel(t_b=0.02, t_m=1e-4)
        config = SchedulerConfig(
            alpha=alpha, adaptive_alpha=False, job_aware=False, batch_size=k,
            metric=MetricConfig(normalize=normalize),
        )
        s = JAWSScheduler(SPEC, cost, config)
        queues = s.queues
        drained: list = []
        qid = 0
        now = 0.0
        for op, seed in ops:
            rng = np.random.default_rng(seed)
            now += float(rng.uniform(0.0, 2.0))
            active = queues.active_view().atom_ids.tolist()
            if op in ("record", "list", "add"):
                record = make_subqueries(
                    int(rng.integers(1, 40)), timestep=int(rng.integers(0, 4)),
                    seed=seed, qid=qid,
                )
                qid += 1
                arrival = now - float(rng.uniform(0.0, 3.0))
                if op == "record":
                    queues.add_query(record, arrival)
                elif op == "list":
                    queues.add_query(list(record), arrival)
                else:
                    queues.add(record[int(rng.integers(len(record)))], arrival)
            elif op == "pop" and active:
                atom = active[int(rng.integers(len(active)))]
                drained.extend(queues.pop_atom(atom))
            elif op == "cancel" and qid:
                queues.remove_query(int(rng.integers(qid)))
            elif op in ("insert", "evict"):
                atom = int(rng.integers(SPEC.n_atoms))
                if active and rng.random() < 0.7:
                    atom = active[int(rng.integers(len(active)))]
                if op == "insert":
                    queues.on_cache_insert(atom)
                else:
                    queues.on_cache_evict(atom)
            elif op == "reactivate" and drained:
                queues.add(drained.pop(int(rng.integers(len(drained)))), now)
            elif op == "readmit" and active:
                atom = active[int(rng.integers(len(active)))]
                s.readmit(queues.pop_atom_entries(atom), now)
            assert queues.check_consistency() == []
            if not len(queues):
                continue
            ids, timesteps, u_t, u_e = s._metric_view(now)
            chosen = select_two_level(ids, timesteps, u_t, u_e, k)
            expected, expected_ue, expected_order = _reference_choice(
                queues, now, alpha, config.metric, k, cost
            )
            assert chosen == expected
            assert dict(zip(ids.tolist(), u_e.tolist())) == expected_ue
            assert ids.tolist() == expected_order
