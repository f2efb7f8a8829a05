"""Color refinement for node-level and node-pair-level WL-style tests.

Six tests share one machinery: classic node refinement (plain and with the
two target nodes marked) and two pair rules, plain and folklore. Each pair
rule runs over one neighbourhood per node: every node for the dense tests
(WL2, FWL2), or the node's neighbours in the observed edges for the local
tests (WL2_Local, FWL2_Local). A dense session tracks all ordered pairs, a
local one both orientations of every edge.

Masked-target semantics: when a pair is the prediction target, its edge (if
present) is removed from the working edge set before refinement, so neither
the pair's own indicator nor any neighborhood can leak whether the link
exists. The pair tests also keep their targets out of the tracked pairs: a
target that is not tracked already is a read-out, coloured from the tracked
pairs each step but never fed back into them. So every target of one masked
graph can share a session (``session_groups``).

The folklore step is the tensor form of 2-FWL (Maron et al., NeurIPS 2019):
numpy sorts every pair's row of order-preserving int64 entries at once, and
a sorted row enters the signature as a tuple of ints, so it stays exact.

The plain step is an array step over the disjoint union of all sessions of
a lockstep run (``_PlainUnion``; a lone session is a union of one): numpy
ranks every node's sorted row and column of colours at once, and a pair's
new colour is the dense rank of (colour, column rank, row rank). Each rank
keeps the order of the tuple it stands for, so the ids are those of the
sorted signatures, exactly.
"""

from __future__ import annotations

import enum
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .graph import Graph, check_target, label01


class RefinementError(ValueError):
    pass


class MemoryGateError(RefinementError):
    """Raised when a pair test would need more than the dense cap's n^2 state."""


class TestKind(enum.Enum):
    WL1 = "WL1"
    WL1_LABEL01 = "WL1_Label01"
    WL2 = "WL2"
    FWL2 = "FWL2"
    WL2_LOCAL = "WL2_Local"
    FWL2_LOCAL = "FWL2_Local"

    @property
    def pair_indexed(self) -> bool:
        return self not in (TestKind.WL1, TestKind.WL1_LABEL01)

    @property
    def dense(self) -> bool:
        return self in (TestKind.WL2, TestKind.FWL2)

    @property
    def local(self) -> bool:
        return self in (TestKind.WL2_LOCAL, TestKind.FWL2_LOCAL)

    @property
    def folklore(self) -> bool:
        return self in (TestKind.FWL2, TestKind.FWL2_LOCAL)

    @staticmethod
    def parse(name: str) -> "TestKind":
        for kind in TestKind:
            if kind.value == name:
                return kind
        valid = ", ".join(k.value for k in TestKind)
        raise RefinementError(f"unknown test kind {name!r}; valid: {valid}")


ALL_KINDS = tuple(TestKind)

# Reserved color for pairs a local folklore session does not track yet.
# Never handed out by an interner; _encode_entries codes it as 0.
ABSENT = -1
_ENTRY_COLOR_BOUND = 2**31 - 1  # every encoded colour id is below it

# Dense pair tests refuse more nodes than this; FWL2_Local expansion more pairs than its square.
DEFAULT_DENSE_NODE_LIMIT = 128


class Interner:
    """Injective signature -> dense id table (exact, no lossy hashing), with
    ids in first-appearance order: ``unroll``'s hash-consing table.

    The node and folklore steps number colours by the same rule in a plain
    dict that lives for one iteration (``table.setdefault(sig, len(table))``,
    inlined for speed): ``lockstep`` hands one to all the sessions it steps
    together, and a lone session makes its own. The plain pair step ranks
    its signatures in arrays instead (``_PlainUnion``). Either way colour ids
    compare across the sessions of one iteration, never across iterations.
    """

    def __init__(self):
        self.table = {}

    def intern(self, sig) -> int:
        return self.table.setdefault(sig, len(self.table))

    def __len__(self) -> int:
        return len(self.table)


@dataclass
class ColorMap:
    """Colors for one iteration; unit keys are node ids or ordered pairs.

    ``readouts`` holds the iteration's read-out colours (targets that are
    not tracked); they are not units of the partition.
    """

    colors: dict
    readouts: dict = field(default_factory=dict)

    def num_classes(self) -> int:
        return len(set(self.colors.values()))

    def partition(self):
        classes = {}
        for unit, c in self.colors.items():
            classes.setdefault(c, []).append(unit)
        return sorted(frozenset(v) for v in classes.values())


def _init_pair_sig(labels, eff: Graph, r: int, s: int):
    e_ind = 1 if r != s and eff.has_edge(r, s) else 0
    return ("i", labels[r], labels[s], e_ind, 1 if r == s else 0)


def _canonical_ids(colors, readouts, table, tracked: int):
    """Renumber one iteration's colours in the sorted order of their signatures.

    ``table`` maps signature -> colour, the first ``tracked`` colours the
    tracked ones and the rest read-out-only. Tracked colours keep coming
    first, so read-outs never shift a tracked id. Returns the new dicts (the
    old ones if no id moves) and the signatures by new id.
    """
    sigs = list(table)
    canon = sorted(sigs[:tracked]) + sorted(sigs[tracked:])
    if canon != sigs:
        ids = {sig: i for i, sig in enumerate(canon)}
        new = [ids[sig] for sig in sigs]
        colors = {u: new[c] for u, c in colors.items()}
        readouts = {u: new[c] for u, c in readouts.items()}
    return colors, readouts, canon


def _encode_entries(a, b):
    """Folklore entries (a, b) as int64 ``(a + 1) << 32 | (b + 1)``: for
    ABSENT <= a, b < _ENTRY_COLOR_BOUND injective and ordered like the pairs,
    so sorted rows of codes compare like sorted rows of pairs."""
    if a.size and max(a.max(), b.max()) >= _ENTRY_COLOR_BOUND:
        raise RefinementError(f"colour id above {_ENTRY_COLOR_BOUND - 1} cannot be encoded")
    return (a + 1) << 32 | (b + 1)


def _find(keys, x):
    """Positions of ``x`` in the sorted array ``keys``, and whether it is there."""
    i = np.minimum(np.searchsorted(keys, x), len(keys) - 1)
    return i, keys[i] == x


def _check_splits(old, new):
    """``_check_split_only`` for arrays: ``old[i]`` and ``new[i]`` are one
    unit's colours before and after a step."""
    origin = np.empty(int(new.max()) + 1 if new.size else 0, np.int64)
    origin[new] = old
    if (origin[new] != old).any():
        raise RefinementError("refinement merged two color classes")


def _dense_ranks(keys):
    """Dense ranks of ``keys`` (a 1-d array or the rows of a 2-d one) in
    sorted order, and the number of distinct keys."""
    order = np.lexsort(keys.T[::-1]) if keys.ndim > 1 else np.argsort(keys)
    keys = keys[order]
    new = keys[1:] != keys[:-1]
    step = np.zeros(len(keys), np.int64)
    step[1:] = new.any(1) if keys.ndim > 1 else new
    ranks = np.empty(len(keys), np.int64)
    ranks[order] = np.cumsum(step)
    return ranks, int(step.sum()) + 1 if len(keys) else 0


def _pack(major, major_bound, mid, minor, bound):
    """The keys (major, mid, minor) as int64 in the same order, for 0 <= major
    < major_bound and 0 <= mid, minor < bound; the range must fit."""
    if major_bound * bound * bound > 2**63:
        raise RefinementError("plain step signatures do not fit in int64 keys")
    return (major * bound + mid) * bound + minor


class RefinementSession:
    """One refinement run: a graph, a test kind, an optional masked target.

    ``extra_targets`` are further pairs whose link colours the caller reads.
    A pair kind keeps every target coloured: a target it does not track
    already (a dense kind tracks every pair) is read out. Node kinds only
    check them.

    Every iteration has its own colour ids, which restart at 0. Init and a
    lone step number the colours canonically: the iteration's distinct
    signatures are sorted and numbered in that order (Shervashidze et al.,
    JMLR 2011). Tracked ids depend only on (kind, graph, mask) up to
    isomorphism; read-out-only ids follow them, in signature order, so the
    targets never shift a tracked id. In a ``lockstep`` run of several
    sessions, a node or folklore step interns into the one table it shares
    with them instead, in first-appearance order, and the plain step numbers
    the union of all sessions canonically. Every signature is purely
    structural, so ids compare across the sessions of one iteration.
    """

    def __init__(
        self,
        kind: TestKind,
        graph: Graph,
        mask=None,
        extra_targets=(),
    ):
        mask = None if mask is None else check_target(graph, mask)
        targets = ([] if mask is None else [mask]) + [check_target(graph, t) for t in extra_targets]
        if kind.dense and graph.n > DEFAULT_DENSE_NODE_LIMIT:
            raise MemoryGateError(
                f"{kind.value} needs n^2 state; n={graph.n} exceeds the "
                f"dense node limit {DEFAULT_DENSE_NODE_LIMIT}"
            )
        if kind is TestKind.WL1_LABEL01 and mask is None:
            raise RefinementError("WL1_Label01 requires a target pair")

        self.kind = kind
        self.graph = graph
        self.mask = mask
        self.eff = graph.without_edge(*mask) if mask is not None else graph
        if kind is TestKind.WL1_LABEL01:
            self.labels = label01(self.eff, mask).labels
        else:
            self.labels = self.eff.labels
        n = graph.n
        self.nbrs = (tuple(range(n)),) * n if kind.dense else self.eff.adj
        if kind.folklore:
            # nbrs as one flat array, and the sorted codes p * n + u of the
            # pairs (p, u), u in nbrs[p]
            self._deg = np.array([len(nb) for nb in self.nbrs], np.int64)
            self._flat = np.array([u for nb in self.nbrs for u in nb], np.int64)
            self._start = np.cumsum(self._deg) - self._deg
            self._nbr_codes = np.repeat(np.arange(n), self._deg) * n + self._flat
            self._layers, self._plan = None, None
        # readouts maps each target pair that is not tracked to its current
        # read-out colour; _readout_sigs to its init signature. _init_sigs
        # lists the init signatures by id until the first step.
        table = {}
        colors, self._readout_sigs = self._init_colors(table, targets)
        tracked, sd = len(table), table.setdefault
        readouts = {pair: sd(sig, len(table)) for pair, sig in self._readout_sigs.items()}
        colors, readouts, self._init_sigs = _canonical_ids(colors, readouts, table, tracked)
        self.colors, self.readouts = colors, readouts

    # -- initialization ---------------------------------------------------

    def _init_colors(self, table, targets):
        """Init colours of the tracked units, and init signatures of read-outs.

        A pair kind tracks (p, u) for every u in nbrs[p] and reads out every
        other target pair: no tracked signature reads a read-out, so the
        targets never change the tracked colours.
        """
        eff, labels, nbrs, sd = self.eff, self.labels, self.nbrs, table.setdefault
        if not self.kind.pair_indexed:
            return {v: sd(("i", labels[v]), len(table)) for v in range(eff.n)}, {}
        colors = {
            (p, u): sd(_init_pair_sig(labels, eff, p, u), len(table))
            for p, nb in enumerate(nbrs)
            for u in nb
        }
        untracked = {
            pair: _init_pair_sig(labels, eff, *pair)
            for p, q in targets
            for pair in ((p, q), (q, p))
            if pair not in colors
        }
        return colors, untracked

    # -- stepping ---------------------------------------------------------

    def step(self, expand: bool = True, table: dict = None) -> dict:
        """Advance one iteration; returns the new color map.

        ``expand`` controls walk expansion of the local folklore test: an
        expanding step starts tracking the pairs one walk step further away
        (``_walk_layers``). Other kinds ignore it. ``table`` is the
        iteration's table shared with the other sessions of a lockstep run;
        without one the step numbers its colours canonically. The plain
        kinds take no table: they share ids only through ``lockstep``, which
        steps all of a run's sessions as one ``_PlainUnion``.
        """
        kind, lone = self.kind, table is None
        if kind.pair_indexed and not kind.folklore:
            if not lone:
                raise RefinementError("a plain pair session shares colour ids only in lockstep")
            _PlainUnion([self]).step()
            return self.colors
        self._init_sigs = None  # t = 0 is over
        if lone:
            table = {}
        if kind.folklore:
            new, read_out = self._step_folklore(table, expand and kind.local)
        else:
            new, read_out = self._step_wl1(table), None
        self._check_split_only(new)
        tracked, sd = len(table), table.setdefault
        readouts = {
            pair: sd(read_out(sig, *pair), len(table))
            for pair, sig in self._readout_sigs.items()
            if pair not in new
        }
        if lone:
            new, readouts, _ = _canonical_ids(new, readouts, table, tracked)
        self.colors, self.readouts = new, readouts
        return new

    def _step_wl1(self, table):
        c, nbrs, sd = self.colors, self.nbrs, table.setdefault
        return {
            v: sd(("s", c[v], tuple(sorted(c[u] for u in nbrs[v]))), len(table))
            for v in c
        }

    def _step_folklore(self, table, expand: bool):
        # A pair that is not tracked yet has no previous colour; it carries
        # its init signature under its own tag instead, because ids restart
        # at 0 in every iteration's table, so an init id may repeat as a
        # tracked id of a later iteration.
        c, n = self.colors, self.graph.n
        if expand and self._layers is None:
            self._layers, self._plan = self._walk_layers(), None
        if self._plan is None:
            # Rows: the tracked pairs, the pairs expansion will track in that
            # order, the other read-outs. Tracked pairs stay a prefix.
            self._row = {pair: i for i, pair in enumerate(c)}
            for pair in itertools.chain(*(self._layers or ()), self._readout_sigs):
                self._row.setdefault(pair, len(self._row))
            self._plan = self._entry_plan(np.array([p * n + q for p, q in self._row], np.int64))
        grown = self._layers.pop(0) if expand and self._layers else []
        rows = self._entry_rows(self._plan)
        sd = table.setdefault
        new = {pair: sd(("s", cpq, row), len(table)) for (pair, cpq), row in zip(c.items(), rows)}
        labels, eff, k = self.labels, self.eff, len(c)
        for pair, row in zip(grown, rows[k:]):
            new[pair] = sd(("v", _init_pair_sig(labels, eff, *pair), row), len(table))
        # Read-outs follow the expansion rule: in an iteration's shared table, a
        # read-out of one session gets the colour that expansion gives the
        # same pair in another.
        return new, lambda sig, p, q: ("v", sig, rows[self._row[p, q]])

    def _entry_plan(self, codes):
        """Where the entries (C[u, q], C[p, u]), u in nbrs[p] ∪ nbrs[q], of each
        pair p * n + q in ``codes`` are among them, per width class of rows (to
        64, then powers of two, so few wide rows never widen the rest): its rows,
        their positions padded to a matrix (-1: not in ``codes``), their pads."""
        if not len(codes):
            return 0, []
        n, order = self.graph.n, np.argsort(codes)
        keys = codes[order]
        (ps, qs), start, flat = np.divmod(codes, n), self._start, self._flat
        # u runs over nbrs[p], then over nbrs[q] where that is another set
        lp = self._deg[ps]
        width = lp + np.where((ps == qs) | self.kind.dense, 0, self._deg[qs])
        width_class = np.frexp(np.maximum(width, 64))[1]
        groups = []
        for k in np.unique(width_class):
            sel = np.flatnonzero(width_class == k)
            p, q, a, b = ps[sel], qs[sel], lp[sel, None], width[sel, None]
            j = np.arange(b.max())
            live, in_q = j < b, j >= a
            us = flat[np.where(live, np.where(in_q, start[q, None] - a, start[p, None]) + j, 0)]
            # a common neighbour of p and q is one entry: drop its copy in nbrs[q]
            r, col = np.nonzero(in_q & live)
            live[r, col] = ~_find(self._nbr_codes, p[r] * n + us[r, col])[1]
            i, hit = _find(keys, np.stack([us * n + q[:, None], p[:, None] * n + us]))
            pos = np.where(hit & live, order[i], -1)
            groups.append((sel.tolist(), pos, (len(j) - live.sum(1)).tolist()))
        return len(codes), groups

    def _entry_rows(self, plan):
        """The planned rows' sorted entries; the tracked pairs are the first rows
        and any other pair reads ABSENT. A pad is 0, below any entry ((p, u) or
        (u, q) is tracked), so pads sort first."""
        size, groups = plan
        vals = np.full(size + 1, ABSENT, np.int64)  # the last for the pads
        vals[: len(self.colors)] = np.fromiter(self.colors.values(), np.int64, len(self.colors))
        rows = [None] * size
        for sel, pos, pads in groups:
            entries = _encode_entries(vals[pos[0]], vals[pos[1]])
            entries.sort(axis=1)
            for i, row, m in zip(sel, entries.tolist(), pads):
                rows[i] = tuple(row[m:])
        return rows

    def _walk_layers(self):
        """Untracked pairs by the expanding step that tracks them. A right or
        left walk extension adds exactly the pairs one step further away, so
        (p, q) is tracked from step max(dist(p, q) - 1, 0) on and (p, p) from
        step 1 if p has a neighbour: every pair of a component with an edge."""
        nbrs, layers, size = self.nbrs, {}, 0
        for s in (s for s in range(self.graph.n) if nbrs[s]):
            dist, queue = {s: 0}, [s]
            for v in queue:
                for u in nbrs[v]:
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        queue.append(u)
            size += len(dist)  # the sum of |component|^2 once every s is done
            if size > DEFAULT_DENSE_NODE_LIMIT**2:
                raise MemoryGateError(f"walk expansion needs > {DEFAULT_DENSE_NODE_LIMIT}^2 pairs")
            for q, d in dist.items():
                if d != 1:  # edges are tracked from init on
                    layers.setdefault(max(d - 1, 1), []).append((s, q))
        return [layers[t] for t in sorted(layers)]  # steps 1, 2, ... have no gap

    def _check_split_only(self, new):
        # Refinement invariant: classes split, never merge. Each new color
        # must originate from exactly one old color.
        origin = {}
        for unit, old in self.colors.items():
            cur = new[unit]
            if origin.setdefault(cur, old) != old:
                raise RefinementError("refinement merged two color classes")

    # -- readout ----------------------------------------------------------

    def ordered_key(self, pair):
        """Colours of both orientations: tracked if tracked, else read out."""
        p, q = pair
        c = self.colors
        if not self.kind.pair_indexed:
            return (c[p], c[q])
        pq, qp, r = (p, q), (q, p), self.readouts
        return (c[pq] if pq in c else r[pq], c[qp] if qp in c else r[qp])

    def link_key(self, pair):
        """Undirected link color: the multiset over both orientations."""
        return tuple(sorted(self.ordered_key(pair)))

    def num_units(self) -> int:
        return len(self.colors)

    @property
    def default_max_iters(self) -> int:
        n = self.graph.n
        return (n * n + 2) if self.kind.pair_indexed else (n + 2)

    def color_map(self) -> ColorMap:
        """This iteration's colours. A step replaces the session's dicts and
        never mutates them, so the map shares them."""
        return ColorMap(self.colors, self.readouts)


# The plain step ranks its lines (rows and columns) in blocks of entry
# positions: every line in the first block of this many, then only the lines
# that reach further in blocks of doubling width, so that one long line never
# pads the others to its length.
_LINE_BLOCK = 16


class _PlainUnion:
    """The plain pair rule (WL2, WL2_Local) over the disjoint union of the
    sessions of one lockstep run, one array step per iteration.

    Node v of the i-th session is node offset_i + v of the union, so each
    session keeps its own ``nbrs``. A tracked pair (p, u) has u in nbrs[p],
    and nbrs is symmetric, so row p of the rule (the colours of (p, v), v in
    nbrs[p]) holds the tracked pairs starting at p, and column q those ending
    at q. Rows and columns are lines: sorted colour tuples, ranked together
    in tuple order. A tracked pair's new colour is the dense rank of
    (colour, rank of column q, rank of row p), a read-out's that of (rank of
    its init signature, column q, row p), offset after the tracked ones.
    Every rank keeps the order of the signature it stands for, so a lone
    session gets the canonical ids of sorted signatures, as the other kinds
    do, and a run of several sessions ids that compare across them.
    """

    def __init__(self, sessions):
        self.sessions = sessions
        sizes = [s.graph.n for s in sessions]
        offset = np.cumsum([0] + sizes[:-1])
        self.pairs = [list(s.colors) for s in sessions]
        self.reads = [list(s.readouts) for s in sessions]

        def nodes(per_session):
            # (p, q) of every pair as nodes of the union
            counts = [2 * len(pairs) for pairs in per_session]
            flat = itertools.chain.from_iterable(itertools.chain.from_iterable(per_session))
            flat = np.fromiter(flat, np.int64, sum(counts)) + np.repeat(offset, counts)
            return flat[0::2], flat[1::2]

        # lines 0..n-1 are the rows, n..2n-1 the columns
        n = sum(sizes)
        self.row, col = nodes(self.pairs)
        self.read_row, read_col = nodes(self.reads)
        self.col, self.read_col = col + n, read_col + n
        colors = itertools.chain.from_iterable(s.colors.values() for s in sessions)
        self.c = np.fromiter(colors, np.int64, len(self.row))
        sigs = [s._readout_sigs[pair] for s, pairs in zip(sessions, self.reads) for pair in pairs]
        ranks = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        self.sig_rank = np.array([ranks[sig] for sig in sigs], np.int64)
        # every unit is an entry of its row and of its column; sorted by
        # line, the entries of each line are a run at a fixed place
        self.entry_line = np.concatenate((self.row, self.col))
        self.line = np.sort(self.entry_line)
        self.lines = 2 * n
        width = np.bincount(self.line, minlength=self.lines)
        pos = np.arange(len(self.line)) - (np.cumsum(width) - width)[self.line]
        self.blocks, live, lo, hi = [], np.arange(self.lines), 0, _LINE_BLOCK
        while True:
            slot = np.zeros(self.lines, np.int64)
            slot[live] = np.arange(len(live))
            sel = np.flatnonzero((pos >= lo) & (pos < hi))
            shape = (len(live), max(min(hi, width.max(initial=0)) - lo, 1))
            self.blocks.append((live, sel, slot[self.line[sel]], pos[sel] - lo, shape))
            live = np.flatnonzero(width > hi)
            if not live.size:
                break
            lo, hi = hi, 2 * hi

    def step(self) -> int:
        """Step every session once; returns the number of tracked colours."""
        c = self.c
        bound = int(c.max()) + 1 if c.size else 1
        if self.lines * bound > 2**63:
            raise RefinementError("plain step signatures do not fit in int64 keys")
        entries = np.sort(self.entry_line * bound + np.concatenate((c, c))) - self.line * bound
        rank = None
        for live, sel, row, col, shape in self.blocks:
            # a line reads -1 past its end, which sorts it before its extensions
            block = np.full(shape, -1, np.int64)
            block[row, col] = entries[sel]
            sub, count = _dense_ranks(block)
            if rank is None:
                rank = sub
            else:
                # (rank so far, rank in this block); a line that ended before
                # the block ranks first among the lines that tie with it so far
                merged = rank * (count + 1)
                merged[live] += sub + 1
                rank = _dense_ranks(merged)[0]
        k = int(rank.max()) + 1 if rank.size else 1
        new, tracked = _dense_ranks(_pack(c, bound, rank[self.col], rank[self.row], k))
        _check_splits(c, new)
        read = _pack(self.sig_rank, len(self.sig_rank), rank[self.read_col], rank[self.read_row], k)
        self.c = new
        new, read = new.tolist(), (_dense_ranks(read)[0] + tracked).tolist()
        at = read_at = 0
        for s, pairs, reads in zip(self.sessions, self.pairs, self.reads):
            s.colors = dict(zip(pairs, new[at: at + len(pairs)]))
            s.readouts = dict(zip(reads, read[read_at: read_at + len(reads)]))
            s._init_sigs = None  # t = 0 is over
            at, read_at = at + len(pairs), read_at + len(reads)
        return tracked


def lockstep(sessions, max_iters: int = None, observe=None):
    """Step ``sessions`` together until their joint partition stops splitting.

    ``observe(t)`` runs after init (t = 0) and after every step; a true
    result stops the run there. The run is stable at the first step that
    changes neither the number of distinct colours across all sessions nor
    their total number of units. ``max_iters`` must be >= 1 and defaults to
    the largest session default. Returns ``(iterations, stable)``.

    The sessions must share one kind. A lone session numbers every
    iteration canonically. Several sessions, which must not have stepped
    yet, share their colour ids in every iteration: t = 0 joins their
    canonical init ids, which sessions with the same init signatures keep.
    The plain kinds then step all sessions as one ``_PlainUnion``, which
    numbers the union canonically; the other kinds give every step a fresh
    table that all sessions intern into, in first-appearance order.
    """
    if max_iters is None:
        max_iters = max(s.default_max_iters for s in sessions)
    elif max_iters < 1:
        raise RefinementError("max_iters must be >= 1")
    kind = sessions[0].kind
    if any(s.kind is not kind for s in sessions):
        raise RefinementError("sessions in lockstep must share one kind")
    shared = len(sessions) > 1
    if shared:
        table = {}
        for s in sessions:
            if s._init_sigs is None:
                raise RefinementError("sessions in lockstep must start at t = 0")
            ids = [table.setdefault(sig, len(table)) for sig in s._init_sigs]
            if ids != list(range(len(ids))):
                s.colors = {u: ids[c] for u, c in s.colors.items()}
                s.readouts = {u: ids[c] for u, c in s.readouts.items()}
                s._init_sigs = list(table)  # its ids index the table now

    def state():
        colors = [s.colors for s in sessions]
        return len(set().union(*[c.values() for c in colors])), sum(map(len, colors))

    if observe is not None and observe(0):
        return 0, False
    prev = state()
    union = _PlainUnion(sessions) if kind.pair_indexed and not kind.folklore else None
    for t in range(1, max_iters + 1):
        if union is None:
            table = {} if shared else None
            for s in sessions:
                s.step(table=table)
        else:
            classes = union.step()
        if observe is not None and observe(t):
            return t, False
        # a plain step tracks no new units
        cur = state() if union is None else (classes, prev[1])
        if cur == prev:
            return t, True
        prev = cur
    return max_iters, False


def session_groups(kind: TestKind, instances):
    """Group (graph, target) instances by the session that can serve them.

    A session depends only on its masked graph, because no tracked unit
    reads a target: an edge target masks itself, and every non-edge target of
    a graph shares the unmasked session. WL1_Label01's labels mark the
    target, so it runs one session per target. Returns a list, in order of
    first appearance, of ``(graph, mask, {target: [instance index, ...]})``.
    """
    groups = {}
    for i, (g, (p, q)) in enumerate(instances):
        if kind is TestKind.WL1_LABEL01:
            mask, key = (p, q), (id(g), frozenset((p, q)))
        else:
            mask = (min(p, q), max(p, q)) if g.has_edge(p, q) else None
            key = (id(g), mask)
        targets = groups.setdefault(key, (g, mask, {}))[2]
        targets.setdefault((p, q), []).append(i)
    return list(groups.values())


def open_sessions(kind: TestKind, instances):
    """One session per ``session_groups`` group, tracking all its targets: the
    sessions, and per instance the ``(session, target)`` that reads it."""
    sessions, readers = [], [None] * len(instances)
    for g, mask, targets in session_groups(kind, instances):
        session = RefinementSession(kind, g, mask=mask, extra_targets=sorted(targets))
        sessions.append(session)
        for target, indices in targets.items():
            for i in indices:
                readers[i] = (session, target)
    return sessions, readers


@dataclass
class RefinementResult:
    kind: TestKind
    mask: tuple
    history: list  # ColorMap per iteration, t = 0..T
    stable_at: int  # first t with partition unchanged; None if cap reached
    reached_cap: bool
    session: RefinementSession = field(repr=False, compare=False)

    @property
    def final(self) -> ColorMap:
        return self.history[-1]

    def to_json(self) -> str:
        def rows(colors):
            if self.kind.pair_indexed:
                return sorted([p, q, c] for (p, q), c in colors.items())
            return sorted([v, c] for v, c in colors.items())

        return json.dumps(
            {
                "test": self.kind.value,
                "stable_at": self.stable_at,
                "reached_cap": self.reached_cap,
                "mask": list(self.mask) if self.mask else None,
                "colors": {str(t): rows(m.colors) for t, m in enumerate(self.history)},
                "readouts": {str(t): rows(m.readouts) for t, m in enumerate(self.history)},
            }
        )


def refine_to_stable(
    kind: TestKind,
    g: Graph,
    mask=None,
    max_iters: int = None,
    extra_targets=(),
) -> RefinementResult:
    """Refine one lone, canonically numbered session until it stops splitting."""
    session = RefinementSession(kind, g, mask=mask, extra_targets=extra_targets)
    history = []
    iterations, stable = lockstep(
        [session], max_iters, lambda t: history.append(session.color_map())
    )
    if stable and iterations > session.num_units() + 1:
        raise RefinementError("stabilization bound violated")
    return RefinementResult(
        kind=kind,
        mask=session.mask,
        history=history,
        stable_at=iterations if stable else None,
        reached_cap=not stable,
        session=session,
    )


@dataclass
class DistinguishResult:
    distinguished_at: int  # iteration of first difference, or None
    iterations: int  # iterations actually run
    stable: bool

    @property
    def distinguished(self) -> bool:
        return self.distinguished_at is not None


def indistinguishable(
    kind: TestKind,
    e1,
    g1: Graph,
    e2,
    g2: Graph,
    max_iters: int = None,
) -> DistinguishResult:
    """Run both instances in lockstep, with colour ids shared per iteration.

    Compares the undirected link color (multiset over both orientations of
    the target; pair of node colors for node-level tests) at every iteration.
    e1 is masked in g1, e2 in g2; one session serves both where it can.
    """
    sessions, ((s1, t1), (s2, t2)) = open_sessions(kind, [(g1, e1), (g2, e2)])

    def split(t):
        return s1.link_key(t1) != s2.link_key(t2)

    iterations, stable = lockstep(sessions, max_iters, split)
    return DistinguishResult(iterations if split(iterations) else None, iterations, stable)
