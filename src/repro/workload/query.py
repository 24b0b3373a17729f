"""Queries, sub-queries, and the query pre-processor.

A Turbulence query is "a list of positions on which to perform
computation" at one time step (paper §III-B).  Its primary atom set
``A(q)`` is an :class:`AtomSet`, a bitmap offset by its lowest atom.
The pre-processor identifies the atom containing each position and
emits one *sub-query* per touched atom; sub-queries can execute in any
order and the query's result is the combination of its sub-queries'
results.  Sub-queries are emitted in Morton order, as one
:class:`SubQueries` record of columns per query; a :class:`SubQuery`
object is built from it only where one sub-query is needed on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence, overload

import numpy as np

from repro.grid.atoms import AtomMapper
from repro.grid.dataset import DatasetSpec
from repro.grid.interpolation import InterpolationSpec, group_overshoot_keys

__all__ = ["AtomSet", "Query", "SubQueries", "SubQuery", "preprocess_query"]

#: Operations a query can perform, mirroring the paper's workload
#: classes: velocity/pressure lookup, Lagrangian interpolation (particle
#: tracking), and statistics over a region.
OPERATIONS = ("velocity", "interp", "stats")


class AtomSet(NamedTuple):
    """A set of atom ids as a bitmap offset by its lowest id: bit ``i``
    of ``bits`` is set when atom ``lo + i`` is in the set.

    A query's atoms lie in one time step, so the bitmap of ``A(q)`` is
    at most ``atoms_per_timestep`` bits wide.  The empty set is
    ``(0, 0)``.  An ``AtomSet`` is the pair, not a container of ids:
    ``len``, iteration and ``in`` see ``(lo, bits)``; :meth:`ids`,
    :attr:`n_atoms`, :attr:`span` and :meth:`shares` read the set.
    """

    lo: int
    bits: int

    @classmethod
    def of(cls, ids: Iterable[int]) -> AtomSet:
        """The set of ``ids``: any iterable of ints, or an integer array,
        whose values are never boxed.  Duplicates set the same flag."""
        a = ids if isinstance(ids, np.ndarray) else np.fromiter(ids, np.int64)
        if not len(a):
            return cls(0, 0)
        lo = int(a.min())
        flags = np.zeros(int(a.max()) - lo + 1, dtype=np.uint8)
        flags[a - lo] = 1
        return cls(lo, int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little"))

    @property
    def span(self) -> tuple[int, int]:
        """``(min, max)`` of the ids; the empty range ``(0, -1)`` for the
        empty set, which shares nothing."""
        return self.lo, self.lo + self.bits.bit_length() - 1

    @property
    def n_atoms(self) -> int:
        """Number of ids (a popcount)."""
        return self.bits.bit_count()

    def shares(self, other: AtomSet) -> bool:
        """Do the two sets have an atom in common?  The bitmap with the
        lower ``lo`` shifts right onto the other's offset; then one AND."""
        d = other.lo - self.lo
        if d >= 0:
            return (self.bits >> d) & other.bits != 0
        return (other.bits >> -d) & self.bits != 0

    def ids(self) -> list[int]:
        """The atom ids, ascending."""
        raw = self.bits.to_bytes((self.bits.bit_length() + 7) // 8, "little")
        flags = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return (np.flatnonzero(flags) + self.lo).tolist()


@dataclass
class Query:
    """One query: a set of positions evaluated at one time step.

    Attributes
    ----------
    query_id:
        Globally unique id.
    job_id:
        Owning job (every query belongs to a job; one-off queries are
        single-query jobs).
    seq:
        0-based index within the job's query sequence.
    user_id:
        Submitting user (input to job identification).
    op:
        One of :data:`OPERATIONS`.
    timestep:
        Stored time step the positions are evaluated against.
    positions:
        ``(N, 3)`` float array in voxel units.

    A query is immutable during a run: nothing derived from it is
    stored on it (see :meth:`atoms`).
    """

    query_id: int
    job_id: int
    seq: int
    user_id: int
    op: str
    timestep: int
    positions: np.ndarray

    def __post_init__(self) -> None:
        if self.op not in OPERATIONS:
            raise ValueError(f"unknown operation {self.op!r}")
        self.positions = np.asarray(self.positions, dtype=np.float64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError("positions must have shape (N, 3)")
        if len(self.positions) == 0:
            raise ValueError("query must contain at least one position")

    @property
    def n_positions(self) -> int:
        return len(self.positions)

    def atoms(self, spec: DatasetSpec) -> AtomSet:
        """Primary atom set ``A(q)`` (§IV-B), computed on every call.

        The engine computes a job's sets for alignment once per
        submission (:class:`~repro.workload.job.JobAtomSets`).
        """
        return AtomSet.of(AtomMapper(spec).atom_ids(self.positions, self.timestep))


@dataclass(slots=True)
class SubQuery:
    """The positions of one query falling within one atom.

    ``n_positions`` counts them: the scheduler's Eq. 1 and the cost
    model's ``T_m`` term need only the count.  ``neighbor_keys`` are the
    distinct halo-overshoot keys of those positions' interpolation
    stencils (see :func:`repro.grid.interpolation.group_overshoot_keys`),
    resolved to neighbor atoms by the executor; empty for most
    sub-queries.
    """

    query: Query
    atom_id: int
    n_positions: int
    neighbor_keys: tuple[int, ...] = ()


class SubQueries(Sequence[SubQuery]):
    """One query's sub-queries as columns, in Morton order.

    ``atom_ids`` (``int64``) and ``n_positions`` are arrays with one
    entry per touched atom and ``neighbor_keys`` holds each atom's
    overshoot keys.  The record is a ``Sequence[SubQuery]``: indexing
    or iterating it builds :class:`SubQuery` objects with plain ``int``
    fields, so a holder keeps the three columns instead of one object
    per pending sub-query.  Each access builds a new object.
    """

    __slots__ = ("query", "atom_ids", "n_positions", "neighbor_keys")

    def __init__(
        self,
        query: Query,
        atom_ids: np.ndarray,
        n_positions: np.ndarray,
        neighbor_keys: Sequence[tuple[int, ...]],
    ) -> None:
        self.query = query
        self.atom_ids = atom_ids
        self.n_positions = n_positions
        self.neighbor_keys = neighbor_keys

    def __len__(self) -> int:
        return len(self.atom_ids)

    @overload
    def __getitem__(self, i: int) -> SubQuery: ...

    @overload
    def __getitem__(self, i: slice) -> SubQueries: ...

    def __getitem__(self, i: int | slice) -> SubQuery | SubQueries:
        if isinstance(i, slice):
            return self.take(range(len(self))[i])
        return SubQuery(
            self.query, self.atom_ids.item(i), self.n_positions.item(i), self.neighbor_keys[i]
        )

    def __iter__(self) -> Iterator[SubQuery]:
        query = self.query
        for atom_id, n, keys in zip(
            self.atom_ids.tolist(), self.n_positions.tolist(), self.neighbor_keys
        ):
            yield SubQuery(query, atom_id, n, keys)

    def take(self, index: Sequence[int]) -> SubQueries:
        """The sub-queries at positions ``index``, as a record of their own."""
        keys = self.neighbor_keys
        rows = np.asarray(index, dtype=np.intp)
        return SubQueries(
            self.query, self.atom_ids[rows], self.n_positions[rows], [keys[i] for i in index]
        )


def preprocess_query(
    query: Query, mapper: AtomMapper, interp: InterpolationSpec
) -> SubQueries:
    """Split a query into per-atom sub-queries in Morton order.

    Implements the pre-processing stage of Figure 1: each sub-query is
    the set of the query's positions that fall within one atom;
    sub-queries are independent; their union reconstructs the query.
    An ``interp`` query's sub-queries also carry the overshoot keys of
    their stencils under ``interp`` (the engine's kernel).  The query is
    left as it was.  The sub-queries come back as one
    :class:`SubQueries` record.
    """
    order, bounds, atoms = mapper.sort_by_atom(query.positions, query.timestep)
    keys: list[tuple[int, ...]]
    if query.op == "interp":
        keys = group_overshoot_keys(mapper.spec, query.positions, order, bounds, interp)
    else:
        keys = [()] * len(atoms)
    return SubQueries(query, atoms, np.diff(bounds), keys)
