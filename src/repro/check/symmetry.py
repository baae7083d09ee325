"""Symmetry reduction for the model checker's abstract states.

The checked systems are highly symmetric: every processor runs the
same protocol engine, and every checked line carries the same
metadata organisation.  Relabeling the processors (and the lines with
them) therefore maps reachable states onto reachable states and
preserves every invariant verdict -- the classic *scalarset* symmetry
of Murphi-style protocol verification.  Exploring one representative
per orbit shrinks the visited set by up to ``nodes! x lines!`` without
giving up any invariant coverage: every state the reduced search
visits is a real, concretely reached state, and every counterexample
is a real failing script.

Canonicalization picks the lexicographically smallest relabeling of a
state under the configured permutation group:

* flat protocols (``snooping``, ``directory``, ``linkedlist``,
  ``bus``) use the full product group ``S_nodes x S_lines``;
* the two-level ``hierarchical`` ring only admits permutations that
  respect the cluster partition (swapping whole clusters, or nodes
  within one cluster) -- relabeling across clusters would move a node
  onto a different local ring.

The minimum is computed without walking the group.  The encoding
compares the cache-state matrix before the line views, so for each
line permutation the smallest matrix is the node rows sorted (within
each cluster, then the clusters by their sorted blocks); only line
permutations reaching the overall smallest matrix survive, and node
relabelings are enumerated only inside the tie classes that keep it
(equal rows, equal cluster blocks).  The minimum of the relabeled
views over those candidates is the group minimum;
``tests/test_check_symmetry.py`` checks it against the brute-force
``min`` over :func:`permutation_group`.

Honesty note (also in ``docs/CHECKING.md``): the protocol *logic* is
exactly symmetric under these relabelings, but transaction *timing*
is not -- ring distance to a line's home node changes with the
labels.  Single-reference steps drain to a timing-independent
quiescent state, so reduction is exact for them; two-reference race
steps resolve by event order, so a relabeled race can land in a
different (still legal, still symmetric-equivalent-or-new) outcome.
The identity group (``symmetry="none"``) is kept as the equivalence
oracle and explores the raw space.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SYMMETRY_MODES",
    "CanonicalContext",
    "canonical_context",
    "cluster_permutations",
    "encode_state",
    "permutation_group",
    "relabel_view",
    "state_fingerprint",
]

#: Accepted values for the explorer's ``symmetry`` knob.
SYMMETRY_MODES = ("full", "none")

#: A node (or line) permutation: ``perm[old_label] == new_label``.
Perm = Tuple[int, ...]


def _identity(size: int) -> Perm:
    return tuple(range(size))


def cluster_permutations(nodes: int, per_cluster: int) -> List[Perm]:
    """Node permutations preserving a partition into equal clusters.

    The group is the wreath product ``S_per_cluster wr S_clusters``:
    permute the nodes within each cluster independently, then permute
    whole clusters.  For 4 nodes in 2 clusters that is 8 elements
    (versus 24 for the full symmetric group).
    """
    if per_cluster <= 0 or nodes % per_cluster:
        raise ValueError(
            f"{nodes} nodes do not split into clusters of {per_cluster}"
        )
    clusters = nodes // per_cluster
    inner = list(itertools.permutations(range(per_cluster)))
    perms: List[Perm] = []
    for outer in itertools.permutations(range(clusters)):
        for pick in itertools.product(inner, repeat=clusters):
            perm = [0] * nodes
            for cluster in range(clusters):
                for slot in range(per_cluster):
                    perm[cluster * per_cluster + slot] = (
                        outer[cluster] * per_cluster + pick[cluster][slot]
                    )
            perms.append(tuple(perm))
    return perms


@lru_cache(maxsize=64)
def permutation_group(
    nodes: int,
    lines: int,
    symmetry: str = "full",
    per_cluster: Optional[int] = None,
) -> Tuple[Tuple[Perm, Perm], ...]:
    """The (node-perm, line-perm) pairs canonicalization minimises over.

    ``symmetry="none"`` yields the identity group (the oracle path);
    ``per_cluster`` restricts node permutations to the
    cluster-respecting subgroup (hierarchical rings).
    """
    if symmetry not in SYMMETRY_MODES:
        raise ValueError(
            f"unknown symmetry mode {symmetry!r}; "
            f"expected one of {SYMMETRY_MODES}"
        )
    if symmetry == "none":
        return ((_identity(nodes), _identity(lines)),)
    if per_cluster is None:
        node_perms: Sequence[Perm] = list(
            itertools.permutations(range(nodes))
        )
    else:
        node_perms = cluster_permutations(nodes, per_cluster)
    line_perms = list(itertools.permutations(range(lines)))
    return tuple(
        (node_perm, line_perm)
        for node_perm in node_perms
        for line_perm in line_perms
    )


def relabel_view(view: tuple, node_perm: Perm) -> tuple:
    """One line's coherence metadata with node labels permuted.

    ``None`` owners are encoded as ``-1`` so relabeled views stay
    totally ordered (canonicalization takes a ``min``; comparing
    ``None`` against an ``int`` would raise).
    """
    tag = view[0]
    if tag in ("dirty-bit", "owner"):
        _, dirty, owner = view
        return (tag, dirty, -1 if owner is None else node_perm[owner])
    if tag == "full-map":
        _, dirty, sharers = view
        return (tag, dirty, tuple(sorted(node_perm[s] for s in sharers)))
    if tag == "list":
        # The sharing chain is ordered (head first); relabel in place.
        _, dirty, chain = view
        return (tag, dirty, tuple(node_perm[n] for n in chain))
    raise ValueError(f"unknown coherence view tag {tag!r}")


def encode_state(
    state: tuple,
    node_perm: Perm,
    line_perm: Perm,
    nodes: int,
    lines: int,
) -> tuple:
    """One relabeling of an ``AbstractState``, as a comparable tuple.

    Layout: a dense row-major matrix of cache-state names indexed by
    the *new* labels, then the per-line views in new-label order.  The
    encoding with the identity permutation is injective over abstract
    states of a fixed configuration, so identity-canonicalization
    counts exactly the raw state space.
    """
    caches, views = state
    matrix: Dict[Tuple[int, int], str] = {}
    for node, line, name in caches:
        matrix[(node_perm[node], line_perm[line])] = name
    relabeled: Dict[int, tuple] = {}
    for line, view in views:
        relabeled[line_perm[line]] = relabel_view(view, node_perm)
    return (
        tuple(
            matrix[(node, line)]
            for node in range(nodes)
            for line in range(lines)
        ),
        tuple(relabeled[line] for line in range(lines)),
    )


def state_fingerprint(encoded: tuple) -> str:
    """Stable content hash of an encoded (canonical) state."""
    canonical = json.dumps(encoded, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _placements(labels: Sequence[int], slots: Sequence[int]) -> List[tuple]:
    """Every one-to-one assignment of ``labels`` to ``slots``."""
    return [
        tuple(zip(labels, picked)) for picked in itertools.permutations(slots)
    ]


class CanonicalContext:
    """Canonicalization bound to one checker configuration.

    Bundles the permutation group for ``(nodes, lines, symmetry)`` --
    cluster-respecting when the protocol is hierarchical -- and
    exposes the two operations the explorer needs: the canonical
    encoded form of a state and its fingerprint.  Fingerprints are
    memoised per raw state: the explorer reaches the same raw state
    from many transitions.
    """

    def __init__(
        self,
        protocol: str,
        nodes: int,
        lines: int,
        symmetry: str = "full",
        per_cluster: Optional[int] = None,
    ) -> None:
        if per_cluster is None and protocol == "hierarchical":
            from repro.check.state import hierarchy_per_cluster

            per_cluster = hierarchy_per_cluster(nodes)
        self.protocol = protocol
        self.nodes = nodes
        self.lines = lines
        self.symmetry = symmetry
        self.group = permutation_group(
            nodes, lines, symmetry, per_cluster=per_cluster
        )
        # A flat group is one cluster holding every node.
        self._per_cluster = per_cluster or nodes
        # Every line permutation, as the old line at each new position.
        self._line_orders = list(itertools.permutations(range(lines)))
        self._fingerprints: Dict[tuple, str] = {}

    @property
    def group_size(self) -> int:
        return len(self.group)

    def canonical(self, state: tuple) -> tuple:
        """The minimal encoding of ``state`` over the group."""
        nodes, lines = self.nodes, self.lines
        if self.symmetry == "none":
            return encode_state(
                state, _identity(nodes), _identity(lines), nodes, lines
            )
        caches, views = state
        per_cluster = self._per_cluster
        matrix = [[""] * lines for _ in range(nodes)]
        for node, line, name in caches:
            matrix[node][line] = name
        # The smallest matrix per line order: rows sorted within each
        # cluster, clusters sorted by their blocks.  Keep every line
        # order that reaches the overall smallest one.
        best = None
        ties: List[tuple] = []
        for order in self._line_orders:
            rows = [tuple(row[old] for old in order) for row in matrix]
            clusters = []
            for start in range(0, nodes, per_cluster):
                members = sorted(
                    range(start, start + per_cluster), key=rows.__getitem__
                )
                clusters.append(
                    (tuple(rows[node] for node in members), members)
                )
            clusters.sort()
            blocks = tuple(block for block, _ in clusters)
            if best is None or blocks < best:
                best, ties = blocks, [(order, clusters)]
            elif blocks == best:
                ties.append((order, clusters))
        by_line = dict(views)
        relabeled = min(
            tuple(relabel_view(by_line[old], node_perm) for old in order)
            for order, clusters in ties
            for node_perm in self._relabelings(clusters)
        )
        return (
            tuple(name for block in best for row in block for name in row),
            relabeled,
        )

    def _relabelings(self, clusters: List[tuple]):
        """Node relabelings that keep the sorted ``clusters`` matrix.

        Clusters with equal blocks may trade places, and nodes with
        equal rows may trade slots within their cluster.
        """
        per_cluster = self._per_cluster
        outer_choices: List[List[tuple]] = []
        inner_choices: List[List[tuple]] = []
        for _, tied in itertools.groupby(
            enumerate(clusters), key=lambda item: item[1][0]
        ):
            tied = list(tied)
            outer_choices.append(
                _placements(
                    [members[0] // per_cluster for _, (_, members) in tied],
                    [position for position, _ in tied],
                )
            )
            for _, (block, members) in tied:
                for _, slots in itertools.groupby(
                    range(per_cluster), key=block.__getitem__
                ):
                    slots = list(slots)
                    inner_choices.append(
                        _placements([members[s] for s in slots], slots)
                    )
        for outer_pick in itertools.product(*outer_choices):
            cluster_at = dict(pair for part in outer_pick for pair in part)
            for inner_pick in itertools.product(*inner_choices):
                node_perm = [0] * self.nodes
                for part in inner_pick:
                    for node, slot in part:
                        node_perm[node] = (
                            cluster_at[node // per_cluster] * per_cluster
                            + slot
                        )
                yield node_perm

    def fingerprint(self, state: tuple) -> str:
        fingerprint = self._fingerprints.get(state)
        if fingerprint is None:
            fingerprint = state_fingerprint(self.canonical(state))
            self._fingerprints[state] = fingerprint
        return fingerprint


@lru_cache(maxsize=16)
def canonical_context(
    protocol: str, nodes: int, lines: int, symmetry: str = "full"
) -> CanonicalContext:
    """The process-wide context (and fingerprint memo) for one setup.

    Pool workers expand many frontier batches of one search; sharing
    the context lets each raw state be canonicalised once per process.
    """
    return CanonicalContext(protocol, nodes, lines, symmetry)
