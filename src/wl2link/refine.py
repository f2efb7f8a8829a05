"""Color refinement for node-level and node-pair-level WL-style tests.

Six tests share one machinery: classic node refinement (plain and with the
two target nodes marked) and two pair rules, plain and folklore. Each pair
rule runs over one neighbourhood per node: every node for the dense tests
(WL2, FWL2), or the node's neighbours in the observed edges for the local
tests (WL2_Local, FWL2_Local). A dense session tracks all ordered pairs, a
local one both orientations of every edge. An expanding FWL2_Local step
also starts tracking every pair with a folklore entry whose two sides are
tracked: the pairs one walk step further away.

Masked-target semantics: when a pair is the prediction target, its edge (if
present) is removed from the working edge set before refinement, so neither
the pair's own indicator nor any neighborhood can leak whether the link
exists. The pair tests also keep their targets out of the tracked pairs: a
target that is not tracked already is a read-out, coloured from the tracked
pairs each step but never fed back into them. So every target of one masked
graph can share a session (``session_groups``).

Every colour id, t = 0 included, is the rank of a signature packed into an
int64 key (``_pack``, ``_dense_ranks``): the id of the sorted signature
(Shervashidze et al., JMLR 2011). At t = 0 that is a unit's atomic type:
label ranks, edge bit and diagonal bit (``_init_ranks``). A step ranks (old
colour, sorted lines of colours): 1-WL reads a node's neighbour colours,
plain 2-WL a pair's row and column, 2-FWL a pair's entries (the tensor form
of Maron et al., NeurIPS 2019), all lines ranked at once by ``_Lines``. A
folklore entry enters its line as the raw int64 code of its colour pair,
which sorts like the pair. Large arrays are ranked by one value sort of
each key with its position packed in below it (``_dense_ranks``).
A step ranks only the keys that can still split: of the untracked units
and of the tracked ones whose class has two or more units. Refinement
never merges classes, so a singleton class stays one, and its next id
follows from its old colour alone: the number of distinct keys under lower
heads. Once at most half of the ranked units are live, a union drops the
rest for good and ranks the lines of the live ones only (``_Union``). The
ids stay the ranks of every unit's sorted signature, as in canonical
refinement that re-examines only what can still change (Berkholz, Bonsma
& Grohe, ESA 2013).
A session only describes a refinement. Every iteration runs over the
disjoint union of a run's sessions (``_Union``); a lone session is a union
of one. The union keeps the ids by slot, each slot found by its pair's
code p * n + q (``_locate``), and a run reads its targets' keys off them
in one gather; ``color_map`` builds a session's colour dicts.

``lockstep`` steps a union until a step changes neither its number of
colours nor its number of units. A joint union (``batch_refine``,
``indistinguishable``) numbers all its sessions together, so its ids
compare across sessions and it stops once the joint partition is stable.
An own-numbered union (``featurize_many``) carries the session in every
signature, so no colour spans two sessions, and it stops at the first
step where no session's own partition splits.
"""

from __future__ import annotations

import enum
import itertools
import json
import math
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
# Never a colour id; a folklore step packs every entry colour plus one, so it is 0.
ABSENT = -1

# ``_Union.since`` of a slot that no step has started tracking yet.
NEVER = np.iinfo(np.int64).max

# Dense pair tests refuse more nodes than this; FWL2_Local expansion more pairs than its square.
DEFAULT_DENSE_NODE_LIMIT = 128


class Interner:
    """Injective signature -> dense id table (exact, no lossy hashing), with
    ids in first-appearance order: ``unroll``'s hash-consing table. The
    refinement ranks its signatures in arrays instead (``_Union``).
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


def _check_splits(old, new):
    """Refinement invariant: classes split, never merge. ``old[i]`` and
    ``new[i]`` are one unit's colours before and after a step, and each new
    colour must come from exactly one old colour."""
    origin = np.empty(int(new.max()) + 1 if new.size else 0, np.int64)
    origin[new] = old
    if (origin[new] != old).any():
        raise RefinementError("refinement merged two color classes")


# From this many keys on, ``_dense_ranks`` orders keys that fit by one value
# sort: below it an argsort is faster (the crossover is about 1 k keys with
# numpy 2.4's AVX-512 sorts on x86-64).
_VALUE_SORT_MIN = 1024


def _dense_ranks(keys):
    """Dense ranks of the 1-d int64 ``keys`` in sorted order, and their number.

    An array of at least ``_VALUE_SORT_MIN`` keys, each of which still fits
    in an int64 when shifted left by the b bits of a position, is ordered by
    one value sort of key << b | position, which numpy does about 3 times
    faster than an argsort: the low bits give the order, the high bits the
    sorted keys. Any other array is ordered by an argsort."""
    n = len(keys)
    b = (n - 1).bit_length()
    if n >= _VALUE_SORT_MIN and -(1 << 63 - b) <= keys.min() and keys.max() < 1 << 63 - b:
        order = np.arange(n)
        keys = keys << b
        keys |= order
        keys.sort()
        np.bitwise_and(keys, (1 << b) - 1, out=order)
        keys >>= b
    else:
        order = np.argsort(keys)
        keys = keys[order]
    step = np.zeros(n, np.int64)
    np.not_equal(keys[1:], keys[:-1], out=step[1:])
    keys[order] = np.cumsum(step, out=step)  # the ranks, in the sorted copy's place
    return keys, int(step[-1]) + 1 if n else 0


def _pack(fields):
    """Keys of ``(values, bound)`` fields, major first, as int64 in the same
    order, for 0 <= values < bound; the product of the bounds must fit."""
    if math.prod(bound for _, bound in fields) > 2**63:
        raise RefinementError("signatures do not fit in int64 keys")
    key = 0
    for values, bound in fields:
        key = key * bound + values
    return key


def _adjacency(nbrs):
    """The degrees and the flat neighbours of the disjoint union of graphs
    given by their ``nbrs`` (node v of the i-th is node offset_i + v)."""
    offset = list(itertools.accumulate(map(len, nbrs[:-1]), initial=0))
    width = [sum(map(len, graph)) for graph in nbrs]
    nbrs = [nb for graph in nbrs for nb in graph]
    deg = np.fromiter(map(len, nbrs), np.int64, len(nbrs))
    flat = np.fromiter(itertools.chain.from_iterable(nbrs), np.int64, sum(width))
    return deg, flat + np.repeat(offset, width)


def _edge_codes(n: int, deg, flat):
    """The sorted codes p * n + q of the pairs (p, u), u in nbrs[p], of the
    nbrs that ``_adjacency`` gives as ``deg, flat``."""
    return np.repeat(np.arange(n) * n, deg) + flat


def _init_ranks(sessions, codes, p, q, tracked: int, edges, part=None):
    """Dense ranks, and their number, of the init signatures of the slots
    whose pairs are ``codes`` = p * n + q: (slot from ``tracked`` on, label
    ranks of p and q, edge bit, diagonal bit), p and q nodes of the union of
    ``sessions`` (a node v is (v, v)) whose edges have the sorted codes
    ``edges``. Labels rank among the sessions' labels, so the ranks keep the
    tuple order of any int labels. ``part``, each slot's session, if given,
    follows the first field."""
    labels = [x for s in sessions for x in s.labels]
    order = {x: i for i, x in enumerate(sorted(set(labels)))}
    label = np.fromiter(map(order.__getitem__, labels), np.int64, len(labels))
    fields = [(np.arange(len(p)) >= tracked, 2)] + ([] if part is None else [(part, len(sessions))])
    fields += [(label[p], len(order)), (label[q], len(order))]
    fields += [(_locate(edges, codes) >= 0, 2), (p == q, 2)]
    return _dense_ranks(_pack(fields))


class RefinementSession:
    """What one refinement refines: a test kind, a graph, an optional masked
    target, and the units and pairs that a run of it colours.

    ``extra_targets`` are further pairs whose link colours the caller reads.
    A pair kind keeps every target coloured: a target it does not track
    already (a dense kind tracks every pair) is read out, and ``reads``
    lists these read pairs, both orientations. Node kinds only check them.

    A session holds no colours, so it can join any number of runs: a run's
    ``_Union`` holds them, and the runners return them. Every iteration
    numbers its distinct signatures from 0 in sorted order. Tracked ids
    depend only on (kind, graph, mask) up to isomorphism; read-out ids
    follow them, so the targets never shift a tracked id. A joint run
    numbers all its sessions together, so ids compare across them.
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
        # A pair kind tracks (p, u) for every u in nbrs[p] and reads out every
        # other target pair, so the targets never change the tracked colours.
        pairs = dict.fromkeys(pair for p, q in targets for pair in ((p, q), (q, p)))
        reads = [(p, q) for p, q in pairs if q not in self.nbrs[p]]
        self.reads = tuple(reads) if kind.pair_indexed else ()  # the read pairs
        self._run = None  # ``step``'s lone run

    def step(self) -> ColorMap:
        """Advance the session's own lone expanding run, built on the first
        call, by one iteration; returns that iteration's colours."""
        if self._run is None:
            self._run = _Union([self], expand=True)
        run = self._run
        run.step()
        return run.color_map(0, run.t, run.ids)

    def num_units(self) -> int:
        """The units that ``step``'s run tracks now (before it, at t = 0)."""
        if self._run is not None:
            return self._run.state[1]
        return sum(map(len, self.nbrs)) if self.kind.pair_indexed else self.graph.n

    @property
    def default_max_iters(self) -> int:
        n = self.graph.n
        return (n * n + 2) if self.kind.pair_indexed else (n + 2)


# Lines are ranked in blocks of entry positions, this many first, then doubling,
# each with the lines that reach it only: one long line never pads the others.
_LINE_BLOCK = 16


def _rank_rows(block, bound: int):
    """Dense ranks of the rows of ``block`` (entries in [-1, bound)) in tuple
    order, and their number. The columns fold into the ranks left to right,
    as many at a time as fit in an int64 key beside the ranks so far, and at
    least one: ``_Lines.rank`` keeps rows * (bound + 1) below 2**63, and the
    ranks so far never outnumber the rows."""
    base, rank, count, j = bound + 1, 0, 1, 0
    while j < block.shape[1]:
        m = 1
        while j + m < block.shape[1] and count * base ** (m + 1) < 2**63:
            m += 1
        digits = base ** np.arange(m - 1, -1, -1, dtype=np.int64)
        key = rank * base**m + block[:, j: j + m] @ digits + int(digits.sum())  # pads read 0
        rank, count = _dense_ranks(key)
        j += m
    return rank, count


class _Lines:
    """Lines of int64 entries, ranked in tuple order. ``line`` gives the line
    of every entry of a ranking, in ascending order. A line is its entries
    sorted and padded at the end with -1, so it ranks before its extensions,
    as a tuple does."""

    def __init__(self, line, lines: int):
        self.line, self.lines = line, lines
        width = np.bincount(line, minlength=lines)
        pos = np.arange(len(line)) - (np.cumsum(width) - width)[line]
        self.blocks, live, lo, hi = [], np.arange(lines), 0, _LINE_BLOCK
        while True:
            sel = (pos >= lo) & (pos < hi)
            cols = max(min(hi, width.max(initial=0)) - lo, 1)
            # a block's row per live line: its entries from position lo, then pads
            self.blocks.append((live, sel, np.arange(lo, lo + cols) < width[live, None]))
            live = np.flatnonzero(width > hi)
            if not live.size:
                break
            lo, hi = hi, 2 * hi

    def rank(self, values, bound: int):
        """Dense ranks of the lines whose entries are ``values`` (0 <= values <
        bound), and the number of distinct lines; ``values`` is overwritten.
        Where lines * (bound + 1) does not fit in an int64, so that neither
        an entry beside its line nor ``_rank_rows``' keys would, the entries
        are ranked first (``_dense_ranks``), and their ranks, which keep
        their order, stand for them."""
        if self.lines * (bound + 1) >= 2**63:
            values, bound = _dense_ranks(values)
        entries = values
        entries += self.line * bound
        entries.sort()
        entries %= bound
        rank = None
        for live, sel, fill in self.blocks:
            block = np.full(fill.shape, -1, np.int64)
            block[fill] = entries[sel]
            sub, count = _rank_rows(block, bound)
            if rank is None:
                rank = sub
            else:
                # (rank so far, rank in this block); a line that ended before
                # the block ranks first among the lines that tie with it so far
                merged = rank * (count + 1)
                merged[live] += sub + 1
                rank, count = _dense_ranks(merged)
        return rank, count


def _locate(codes, x, order=None):
    """The index in ``codes`` of each code of ``x``, or -1 where it is none;
    ``order`` sorts ``codes`` (None: they are sorted)."""
    if not (len(codes) and len(x)):
        return np.full(len(x), -1)
    i = np.minimum(np.searchsorted(codes, x, sorter=order), len(codes) - 1)
    if order is not None:
        i = order[i]
    return np.where(codes[i] == x, i, -1)


def _pair_codes(pairs, off: int, n: int):
    """The codes (off + p) * n + off + q of the ``pairs`` (p, q)."""
    pq = np.array(pairs, np.int64).reshape(-1, 2) + off
    return pq[:, 0] * n + pq[:, 1]


def _ranges(lo, hi):
    """Per index i in [lo[r], hi[r]) of every row r: (r, i)."""
    counts = hi - lo
    which = np.repeat(np.arange(len(lo)), counts)
    return which, np.arange(counts.sum()) + np.repeat(lo - (np.cumsum(counts) - counts), counts)


def _entry_plan(codes, n: int, deg, flat, dense: bool, order=None):
    """Where the folklore entries (C[u, q], C[p, u]), u in nbrs[p] ∪ nbrs[q],
    of each pair p * n + q in ``codes`` are among them: per entry its pair's
    index, in ascending order, and the indices of (u, q) and (p, u) (-1: not
    in ``codes``). nbrs is given as ``_adjacency`` gives it, and ``codes``
    starts with the tracked units ``_edge_codes(n, deg, flat)`` in that CSR
    order, as a union's slots do; ``order`` sorts ``codes`` (None: they are
    sorted).

    So the index of (p, u), u in nbrs[p], is u's CSR position in p's row.
    For a dense kind, nbrs[u] is u's session in node order, so that of (u,
    q) is q's CSR position in u's row, and nothing is searched for. For a
    local kind, whose nbrs are symmetric, that of (u, q), u in nbrs[q], is
    the index of the reverse of (q, u); only (u, q) for u in nbrs[p], and
    (p, u) for u in nbrs[q] outside nbrs[p], are searched for."""
    start = np.cumsum(deg) - deg
    ps, qs = np.divmod(codes, n)

    def spread(pairs, nodes):
        # (pair, u, u's CSR position) for every u in nbrs[node], per pair and its node
        which, at = _ranges(start[nodes], start[nodes] + deg[nodes])
        return pairs[which], flat[at], at

    line, u, b = spread(np.arange(len(codes)), ps)
    if dense:
        a = start[u]  # u's row starts at its session's first node
        a -= flat[a]
        a += qs[line]
        return line, a, b
    a = _locate(codes, u * n + qs[line], order)
    # u runs over nbrs[q] too where that is another set, and a common
    # neighbour of p and q is one entry: drop its copy in nbrs[q], whose
    # (p, u) is a tracked unit
    other = np.flatnonzero(ps != qs)
    line_q, u_q, at_q = spread(other, qs[other])
    # each tracked unit's reverse, by slot: the symmetric nbrs make the
    # sorted reversed codes the tracked codes again
    reverse = np.argsort(flat * n + np.repeat(np.arange(n), deg))
    b_q = _locate(codes, ps[line_q] * n + u_q, order)
    keep = (b_q < 0) | (b_q >= len(flat))
    line = np.concatenate((line, line_q[keep]))
    by_line = np.argsort(line, kind="stable")
    line = line[by_line]
    a = np.concatenate((a, reverse[at_q[keep]]))[by_line]
    b = np.concatenate((b, b_q[keep]))[by_line]
    return line, a, b


def _component_pairs(sessions, offset, n: int, units):
    """The sorted codes of every pair of nodes in one component with an edge
    but the ``units`` (sorted codes of the edges), for ``sessions`` whose
    nodes start at ``offset`` among the union's n: the pairs that walk
    expansion tracks beyond the edges. A session refuses components whose
    sizes' squares sum to more than the dense cap's n^2 pairs."""
    blocks = [np.empty(0, np.int64)]
    for s, off in zip(sessions, offset):
        seen, size = set(), 0
        for v in range(s.graph.n):
            if v in seen or not s.nbrs[v]:
                continue
            part = [v]
            seen.add(v)
            for x in part:
                for u in s.nbrs[x]:
                    if u not in seen:
                        seen.add(u)
                        part.append(u)
            size += len(part) ** 2
            if size > DEFAULT_DENSE_NODE_LIMIT**2:
                raise MemoryGateError(f"walk expansion needs > {DEFAULT_DENSE_NODE_LIMIT}^2 pairs")
            nodes = np.array(part, np.int64) + off
            blocks.append((nodes[:, None] * n + nodes).ravel())
    pairs = np.sort(np.concatenate(blocks))
    return np.delete(pairs, np.searchsorted(pairs, units))


class _Union:
    """The rule of one kind over the disjoint union of a lockstep run's sessions.

    Node v of the i-th session is node offset[i] + v of the union, so each
    session keeps its own ``nbrs``. A slot is a unit the rule colours, and
    it keeps its slot for the whole run. ``codes`` gives each slot's pair
    (p, q) as p * n + q, a node v being (v, v), in three runs: the tracked
    units in code order (from ``_adjacency``), then for an expanding run
    every other pair of a component with an edge in code order
    (``_component_pairs``), then the read pairs that are none of these.
    ``since`` gives the step that starts tracking each slot (0 for the
    units; ``NEVER``, so far, for the rest), and ``read`` marks the read pairs.
    ``ids`` holds every slot's id of the current iteration; ``vals`` the
    colours of the tracked ones (ABSENT: not tracked), then an ABSENT pad.
    ``order`` sorts ``codes`` once, so ``locate`` finds the slots of pair
    codes by binary search, a run reads its readers' keys off ``ids``
    (``slots``), and ``color_map`` finds a session's slots as a run of the
    sorted codes. ``adj`` is the union's observed adjacency as
    ``_adjacency`` gives it. The union writes nothing on its sessions and
    keeps only their graphs.

    Lines per rule: a node's neighbour colours (node kinds); row p and column
    q of a pair (p, q), the colours of (p, v), v in nbrs[p], and of (u, q),
    u in nbrs[q] (plain kinds: lines 0..n-1 are the rows, n..2n-1 the
    columns, until a rebuild numbers the lines it keeps); a pair's folklore
    entries (``_entry_plan``), each packed as (C[u, q] + 1, C[p, u] + 1) by
    ``_pack``: the lines rank these raw codes, below (bound + 1)², with no
    ranking pass of their own. An expanding step
    starts tracking every untracked slot with an entry whose two sides are
    tracked: that adds the pairs one walk step further away, so (p, q) joins
    at step max(dist(p, q) - 1, 1).

    ``sig`` ranks every slot's init signature (``_init_ranks``), the tracked
    ones first, and numbers t = 0 (the read-outs' ranks closed up over the
    later pairs'). ``state`` at t = 0 is then (``bound``, tracked units):
    the tracked ids are the dense ranks 0 .. bound - 1. A step
    ranks every line (``_Lines``), and a slot's new colour is the dense rank
    of its key (head, ranks of its lines). The head is the slot's colour if
    it was tracked, else C + its ``sig`` (C above every colour), as the tag
    "v" follows "s": first the slots that the step starts tracking, then the
    read-outs, then the other untracked slots, so the read-outs' ids follow
    the tracked ones. (No read-out's signature equals a tracked one's: a
    pair that a step starts tracking has an entry with both sides tracked,
    and a read-out has none yet.) Every rank keeps the order of the
    signature it stands for, so a lone session gets the canonical ids of
    sorted signatures, and a run of several sessions ids that compare
    across them.

    A step ranks the keys of its ``rows`` only: every slot, until a step
    drops some. A slot is live if it is untracked or its class has two or
    more slots. A tracked slot whose class is a singleton keeps a class of
    its own for the rest of the run (classes only split): its key is the
    only one under its head, its old colour. Its id is offset[head], and a
    ranked key's id is offset[head] + (its rank - the first rank of its
    head), where offset is the exclusive cumsum, over all bound + 3 *
    sig_bound heads, of each head's number of distinct keys: those of the
    ranked keys, and 1 for the head of a dropped slot. That is the dense
    rank of the key among the keys of every slot: the ranked keys of a head
    are all of its keys, and the line ranks over a smaller table keep the
    order of the lines in it. So the ids stay canonical, and
    ``_check_splits`` checks every tracked slot as before. ``_compact``
    drops the dead rows (into ``drop``) once at most half of the rows are
    live, and rebuilds the line table (``lines``, ``entry`` and a plain
    kind's ``line_of``) over the lines the live rows read once those are at
    most half of it; the rebuilt table replaces the old one. Each table is
    at most half the one before, so all rebuilds together cost at most one
    more full ``_Lines`` build. At most ``bound`` rows are singletons, so a
    step counts them only when 2 (rows - bound) <= rows: a small run pays
    one comparison per step, and until a step drops rows, it is the step
    that ranks every slot. Untracked slots are always live, so an
    expanding step still sees every candidate's entries.

    An ``own`` union ranks each slot's session right after the tier in its
    init signature. Its ids then never span two sessions, every later id
    inherits that (a step's key starts with the old colour, or an
    untracked slot's init rank), and ``state`` counts the distinct (session,
    colour) pairs: the sum of the sessions' own class counts. Within a
    session the order of the ids is the lone session's.
    """

    def __init__(self, sessions, expand: bool, own: bool = False):
        kind = self.kind = sessions[0].kind
        self.t, self.grow = 0, expand and kind.folklore and kind.local
        offset = self.offset = list(itertools.accumulate((s.graph.n for s in sessions), initial=0))
        n = self.n = offset[-1]
        adj = self.adj = _adjacency([s.eff.adj for s in sessions])  # all but dense kinds' nbrs
        edges = _edge_codes(n, *adj)
        nbrs = _adjacency([s.nbrs for s in sessions]) if kind.dense else adj
        if not kind.pair_indexed:
            units = np.arange(n) * (n + 1)  # a node v is (v, v)
        elif kind.dense:
            units = _edge_codes(n, *nbrs)
        else:
            units = edges  # the local kinds track the observed edges
        tracked = len(units)
        pairs = [(off + p, off + q) for s, off in zip(sessions, offset) for p, q in s.reads]
        reads = _pair_codes(pairs, 0, n)
        later = _component_pairs(sessions, offset, n, units) if self.grow else units[:0]
        at = _locate(later, reads)  # the read pairs that are later pairs
        codes = self.codes = np.concatenate((units, later, reads[at < 0]))
        self.order = np.argsort(codes)  # sorts the codes, for ``locate``
        read = self.read = np.arange(len(codes)) >= tracked + len(later)
        read[tracked + at[at >= 0]] = True
        self.since = np.full(len(codes), NEVER)
        self.since[:tracked] = 0
        self.on = slice(tracked)  # the tracked slots

        p, q = np.divmod(codes, n)
        part = np.searchsorted(offset[1:], p, side="right") if own else None  # each slot's session
        self.sig, self.sig_bound = _init_ranks(sessions, codes, p, q, tracked, edges, part)
        ids = self.ids = self.sig.copy()
        # the tracked ids are the lowest ranks, dense: their number bounds them
        self.bound = int(ids[:tracked].max(initial=-1)) + 1
        self.state = (self.bound, tracked)
        if self.grow:  # close up the read-outs' ranks over the later pairs'
            ids[read] = _dense_ranks(ids[read])[0] + self.bound
        self.graphs = [s.graph for s in sessions]  # for ``slots``' target check
        self.vals = np.full(len(codes) + 1, ABSENT, np.int64)
        self.vals[:tracked] = ids[:tracked]
        # the heads of untracked slots past the step's: read-outs, then the rest
        self.rest = self.sig + 2 * self.sig_bound
        self.rest[read] -= self.sig_bound

        self.rows = slice(len(codes))  # the slots whose keys a step ranks: all, until a rebuild
        self.drop = codes[:0]  # the slots of dropped singleton classes
        self.line_of = [slice(None)]  # a row's own line, or plain's two
        if not kind.pair_indexed:
            deg, flat = adj
            self.entry = (flat,)
            self.lines = _Lines(np.repeat(np.arange(n), deg), n)
        elif kind.folklore:
            line, a, b = _entry_plan(codes, n, *nbrs, kind.dense, self.order)
            self.entry = (a, b)
            self.lines = _Lines(line, len(codes))
        else:
            # a plain session tracks the same pairs at every step
            line = np.concatenate((p[:tracked], q[:tracked] + n))
            order = np.argsort(line, kind="stable")
            self.entry = (np.tile(np.arange(tracked), 2)[order],)
            self.lines = _Lines(line[order], 2 * n)
            self.line_of = [q + n, p]

    def _compact(self):
        """Drop the rows of singleton classes if at most half of the rows stay,
        and rebuild the line table over the lines that the rest read if at
        most half of it stays."""
        rows = np.arange(len(self.codes))[self.rows]
        v = self.vals[rows] + 1  # 0: untracked
        size = np.bincount(v, minlength=self.bound + 1)
        size[0] = 2  # an untracked row is always live
        live = size[v] > 1
        keep = np.flatnonzero(live)
        if not rows.size or 2 * keep.size > rows.size:
            return
        self.drop = np.concatenate((self.drop, rows[~live]))
        self.rows = rows[keep]
        plain = self.kind.pair_indexed and not self.kind.folklore
        kept, table = keep, self.lines.lines  # row i reads line i, but for the plain kinds
        if plain:
            self.line_of = [line[keep] for line in self.line_of]
            read = np.zeros(table, bool)
            for line in self.line_of:
                read[line] = True
            kept = np.flatnonzero(read)
            if 2 * kept.size > table:
                return
        renumber = np.full(table, -1)
        renumber[kept] = np.arange(kept.size)
        if plain:
            self.line_of = [renumber[line] for line in self.line_of]
        line = renumber[self.lines.line]
        self.lines = None  # the union keeps no copy of the old table
        on = line >= 0
        self.entry = tuple(e[on] for e in self.entry)
        self.lines = _Lines(line[on], kept.size)

    def step(self):
        """Step every session once; returns the new ``state``: the number of
        distinct tracked colours, and of tracked units."""
        self.t += 1
        vals, bound, old = self.vals, self.bound, self.on
        heads = bound + 3 * self.sig_bound
        # at most bound rows are singletons: count them only where they could be half
        ranked = len(self.codes) - self.drop.size
        if 2 * (ranked - bound) <= ranked:
            self._compact()
        rows = self.rows
        if self.kind.folklore:
            entries = _pack([(vals[e] + 1, bound + 1) for e in self.entry])
            line_rank, k = self.lines.rank(entries, (bound + 1) ** 2)
        else:
            line_rank, k = self.lines.rank(vals[self.entry[0]], bound)
        v = vals[rows]
        was = v != ABSENT  # tracked before the step
        head = self.rest[rows] + bound
        head[was] = v[was]
        if self.grow:
            # a pair joins once one of its entries has both sides tracked
            both = np.minimum(*(vals[e] for e in self.entry)) != ABSENT
            joins = np.bincount(self.lines.line, both, self.lines.lines) > 0
            joins = np.flatnonzero(joins & ~was)
            new = joins if isinstance(rows, slice) else rows[joins]
            head[joins], self.since[new] = self.sig[new] + bound, self.t
            self.on = np.flatnonzero(self.since <= self.t)
        fields = [(head, heads)] + [(line_rank[i], k) for i in self.line_of]
        ids, count = _dense_ranks(_pack(fields))
        if self.drop.size:
            # a dropped singleton's key is the one key of its old colour's head:
            # a key's id is its head's offset plus its rank within the head
            key_head = np.empty(count, np.int64)
            key_head[ids] = head
            per = np.bincount(key_head, minlength=heads)
            first = np.cumsum(per) - per  # each head's first rank
            dropped = vals[self.drop]
            per[dropped] = 1
            offset = np.cumsum(per) - per
            rank, ids = ids, np.empty(len(self.codes), np.int64)
            ids[self.drop] = offset[dropped]
            ids[rows] = rank + (offset - first)[head]
        _check_splits(vals[old], ids[old])
        tracked = vals[self.on] = ids[self.on]
        self.bound = int(tracked.max(initial=-1)) + 1
        self.ids = ids
        self.state = self.bound, len(tracked)
        return self.state

    def locate(self, x):
        """The slot of each pair code of ``x``, or -1 where it is none."""
        return _locate(self.codes, x, self.order)

    def color_map(self, i: int, t: int, ids) -> ColorMap:
        """The i-th session's colours of iteration t, whose ids are ``ids``:
        tracked unit -> id, and read-out (a read pair not tracked yet) -> id."""
        n, (lo, hi) = self.n, self.offset[i: i + 2]
        # the session's slots are the codes in [lo * n, hi * n), in slot order
        run = np.searchsorted(self.codes, (lo * n, hi * n), sorter=self.order)
        mine = np.sort(self.order[slice(*run)])
        on = self.since[mine] <= t

        def colors(slots):
            p, q = np.divmod(self.codes[slots] - lo * (n + 1), n)
            units = zip(p.tolist(), q.tolist()) if self.kind.pair_indexed else p.tolist()
            return dict(zip(units, ids[slots].tolist()))

        return ColorMap(colors(mine[on]), colors(mine[self.read[mine] & ~on]))

    def slots(self, readers):
        """The slots of every reader ``(i, (p, q))``'s ordered key, of the
        i-th session's target (p, q), as an (R, 2) int64 array: of p and q
        for a node kind, else of (p, q) and (q, p). A target must be one of
        its session's graph (else GraphError), and a pair kind's
        orientations tracked units or read pairs of the session."""
        if not readers:
            return np.empty((0, 2), np.int64)
        n, codes = self.n, []
        for i, target in readers:
            if not 0 <= i < len(self.graphs):
                raise RefinementError("a reader's session is not in the run")
            p, q = check_target(self.graphs[i], target)
            p, q = p + self.offset[i], q + self.offset[i]
            codes += [p * n + q, q * n + p] if self.kind.pair_indexed else [p * (n + 1), q * (n + 1)]
        slots = self.locate(np.array(codes))
        if ((slots < 0) | ~((self.since[slots] == 0) | self.read[slots])).any():
            raise RefinementError("a reader's target is neither tracked nor read out")
        return slots.reshape(-1, 2)


def lockstep(sessions, max_iters: int = None, observe=None, readers=(), *, union=None):
    """Step ``sessions`` together until their partition stops splitting.

    ``observe(t, keys)`` runs after init (t = 0) and after every step; a true
    result stops the run there. ``keys`` holds, row by row, the ordered key
    of every reader ``(i, target)`` of ``readers``, the target of the i-th
    session: the colours of both orientations (tracked, else read out), or
    of both nodes for a node kind, as one (len(readers), 2) int64 array read
    off the union's ids. The run is stable at the first step that changes
    neither the union's number of distinct colours nor its number of units;
    a run stable only after more steps than units + 1 breaks the refinement
    bound and raises RefinementError. ``max_iters`` must be >= 1 and
    defaults to the largest session default. Returns ``(iterations, stable)``.

    The sessions must share one kind. By default they share their colour
    ids in every iteration: one expanding ``_Union`` numbers all of them
    together, t = 0 by their sorted init signatures and every step by the
    step's, as it numbers a lone session. So the run stops once the joint
    partition stops splitting. ``union``, an unstepped union built on
    exactly ``sessions``, is stepped instead: ``featurize_many`` passes an
    own-numbered one (``_Union``'s ``own``), whose colours never span two
    sessions, so its run stops at the first step where no session's own
    partition splits.
    """
    if not sessions:
        raise RefinementError("no sessions were given to lockstep")
    if max_iters is None:
        max_iters = max(s.default_max_iters for s in sessions)
    elif max_iters < 1:
        raise RefinementError("max_iters must be >= 1")
    kind = sessions[0].kind
    if any(s.kind is not kind for s in sessions):
        raise RefinementError("sessions in lockstep must share one kind")

    if union is None:
        union = _Union(sessions, expand=True)
    slots = union.slots(readers)
    if observe is not None and observe(0, union.ids[slots]):
        return 0, False
    prev = union.state
    for t in range(1, max_iters + 1):
        cur = union.step()
        if observe is not None and observe(t, union.ids[slots]):
            return t, False
        if cur == prev:
            if t > cur[1] + 1:
                raise RefinementError("stabilization bound violated")
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
    sessions, and per instance the reader ``(session's position, target)``."""
    sessions, readers = [], [None] * len(instances)
    for g, mask, targets in session_groups(kind, instances):
        sessions.append(RefinementSession(kind, g, mask=mask, extra_targets=sorted(targets)))
        for target, indices in targets.items():
            for i in indices:
                readers[i] = (len(sessions) - 1, target)
    return sessions, readers


@dataclass
class RefinementResult:
    kind: TestKind
    mask: tuple
    history: list  # ColorMap per iteration, t = 0..T
    stable_at: int  # first t with partition unchanged; None if cap reached
    reached_cap: bool

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
    union = _Union([session], expand=True)
    ids = []  # every iteration's ids: a step makes new ones
    iterations, stable = lockstep(
        [session], max_iters, lambda t, keys: ids.append(union.ids), union=union
    )
    return RefinementResult(
        kind=kind,
        mask=session.mask,
        history=[union.color_map(0, t, x) for t, x in enumerate(ids)],
        stable_at=iterations if stable else None,
        reached_cap=not stable,
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
    sessions, readers = open_sessions(kind, [(g1, e1), (g2, e2)])
    split = []  # per iteration: whether the two sorted keys differ

    def observe(t, keys):
        a, b = keys.tolist()
        split.append(sorted(a) != sorted(b))
        return split[-1]

    iterations, stable = lockstep(sessions, max_iters, observe, readers)
    return DistinguishResult(iterations if split[-1] else None, iterations, stable)
