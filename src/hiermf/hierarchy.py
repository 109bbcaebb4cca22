"""Dendrograms over assets: construction, per-leaf depth, cuts, and interchange.

A leaf's hierarchical order is the number of internal nodes on its unique
path to the root; the model treats those nodes as the risks the asset is
exposed to. Trees can be built here by agglomerative linkage or imported
from JSON so that clusterings computed by external tools can be analyzed
with the same machinery.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from hiermf.dependence import WeightScheme, corr_to_distance, weighted_pearson_matrix
from hiermf.market_data import ReturnsPanel
from hiermf.util import derived_rng, input_lines, write_json_atomic

__all__ = [
    "TreeNode",
    "Dendrogram",
    "LeafPath",
    "ClusterCut",
    "BootstrapReport",
    "DendrogramFormatError",
    "linkage_cluster",
    "leaf_path",
    "hierarchical_order",
    "order_profile",
    "cluster_cut",
    "bootstrap_orders",
    "parse_dendrogram",
    "serialize_dendrogram",
    "tree_from_leaf_depths",
    "comb_tree",
    "random_binary_tree",
]

LINKAGE_METHODS = ("single", "average", "complete")


class DendrogramFormatError(ValueError):
    """Malformed dendrogram file; `location` names the offending element."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{message}{f' (at {location})' if location else ''}")
        self.location = location


@dataclass(frozen=True)
class TreeNode:
    """Internal merge node; children are node ids (int) or leaf labels (str)."""

    id: int
    left: int | str
    right: int | str
    height: float
    p: float | None = None


@dataclass(frozen=True)
class Dendrogram:
    """Strict binary merge tree over named leaves."""

    leaves: tuple[str, ...]
    nodes: tuple[TreeNode, ...]
    root: int
    _by_id: dict = field(init=False, repr=False, compare=False)
    _parent: dict = field(init=False, repr=False, compare=False)
    _orders: dict = field(init=False, repr=False, compare=False)
    _preorder: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "leaves", tuple(self.leaves))
        object.__setattr__(self, "nodes", tuple(self.nodes))
        leaves, nodes = self.leaves, self.nodes
        if len(leaves) < 2:
            raise DendrogramFormatError("need at least 2 leaves")
        dup = [x for x, c in Counter(leaves).items() if c > 1]
        if dup:
            raise DendrogramFormatError(f"duplicate leaf label {dup[0]!r}")
        if len(nodes) != len(leaves) - 1:
            raise DendrogramFormatError(
                f"{len(leaves)} leaves require {len(leaves) - 1} internal nodes, got {len(nodes)}"
            )
        by_id: dict[int, TreeNode] = {}
        for node in nodes:
            if node.id in by_id:
                raise DendrogramFormatError(f"duplicate node id {node.id}")
            if not np.isfinite(node.height) or node.height < 0:
                raise DendrogramFormatError(f"node {node.id}: bad height {node.height}")
            if node.p is not None and not 0.0 <= node.p <= 1.0:
                raise DendrogramFormatError(f"node {node.id}: probability {node.p} outside [0, 1]")
            by_id[node.id] = node
        if self.root not in by_id:
            raise DendrogramFormatError(f"root id {self.root} is not a node")

        leaf_set = set(leaves)
        parent: dict[int | str, int] = {}
        for node in nodes:
            for child in (node.left, node.right):
                if isinstance(child, str):
                    if child not in leaf_set:
                        raise DendrogramFormatError(f"node {node.id}: unknown leaf {child!r}")
                elif child not in by_id:
                    raise DendrogramFormatError(f"node {node.id}: unknown child node {child}")
                if child in parent:
                    raise DendrogramFormatError(
                        f"child {child!r} has two parents ({parent[child]} and {node.id})"
                    )
                parent[child] = node.id
        if self.root in parent:
            raise DendrogramFormatError(f"root {self.root} has a parent (cycle)")

        # Reachability from the root catches cycles and disconnected pieces. With
        # one parent per child the walk meets no ref twice, so counts suffice.
        # It records each leaf's order and the node ids in pre-order.
        orders: dict[str, int] = {}
        preorder: list[int] = []
        stack: list[tuple[int | str, int]] = [(self.root, 0)]
        while stack:
            ref, depth = stack.pop()
            if isinstance(ref, str):
                orders[ref] = depth
                continue
            preorder.append(ref)
            node = by_id[ref]
            stack.append((node.left, depth + 1))
            stack.append((node.right, depth + 1))
        if len(orders) != len(leaves) or len(preorder) != len(nodes):
            raise DendrogramFormatError("tree is not connected (cycle or orphan nodes)")

        object.__setattr__(self, "_by_id", by_id)
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_orders", orders)
        object.__setattr__(self, "_preorder", tuple(preorder))

    @property
    def n_leaves(self) -> int:
        return len(self.leaves)

    def node(self, node_id: int) -> TreeNode:
        return self._by_id[node_id]

    def parent_of(self, ref: int | str) -> int | None:
        return self._parent.get(ref)

    def with_probabilities(self, probs: Mapping[int, float]) -> "Dendrogram":
        """Copy with node probabilities replaced from a node-id map."""
        missing = [n.id for n in self.nodes if n.id not in probs]
        if missing:
            raise ValueError(f"missing probabilities for nodes {missing}")
        nodes = tuple(
            TreeNode(n.id, n.left, n.right, n.height, float(probs[n.id])) for n in self.nodes
        )
        return Dendrogram(leaves=self.leaves, nodes=nodes, root=self.root)

    def heights_monotone(self) -> bool:
        """True when no child merge sits above its parent."""
        for node in self.nodes:
            for child in (node.left, node.right):
                if isinstance(child, int) and self._by_id[child].height > node.height:
                    return False
        return True


@dataclass(frozen=True)
class LeafPath:
    """Internal nodes over one leaf, ordered from the deepest ancestor to the root."""

    leaf: str
    node_ids: tuple[int, ...]
    nodes: tuple[TreeNode, ...]

    @property
    def order(self) -> int:
        return len(self.node_ids)


def leaf_path(tree: Dendrogram, leaf: str) -> LeafPath:
    """The unique ancestor chain of a leaf (its parent first, the root last)."""
    if leaf not in tree._orders:
        raise ValueError(f"unknown leaf {leaf!r}")
    ids: list[int] = []
    ref: int | str = leaf
    while (parent := tree.parent_of(ref)) is not None:
        ids.append(parent)
        ref = parent
    return LeafPath(
        leaf=leaf, node_ids=tuple(ids), nodes=tuple(tree.node(i) for i in ids)
    )


def hierarchical_order(tree: Dendrogram, leaf: str) -> int:
    """Number of internal nodes between the leaf and the root (inclusive)."""
    return leaf_path(tree, leaf).order


def order_profile(tree: Dendrogram) -> dict[str, int]:
    """Hierarchical order of every leaf, as the tree's validating walk recorded it."""
    return dict(tree._orders)


def linkage_cluster(
    distances: np.ndarray, labels: Sequence[str], method: str = "average"
) -> Dendrogram:
    """Agglomerative merge tree with a deterministic tie rule.

    Cluster ids run 0..N-1 for leaves (label order) and N..2N-2 for merges in
    creation order; equal-distance candidates merge the lexicographically
    smallest id pair, so identical inputs always yield the identical tree.
    The tree is built from the upper triangle of `distances`; the lower one is
    only checked against it (`np.allclose`, atol 1e-12).

    Every active cluster caches its nearest active neighbour, the smallest id
    among equals: the cached row minima of Müllner 2011 (arXiv:1109.2378),
    kept over all ids rather than larger ones only. A merge takes the smallest
    id with the smallest cached distance and its neighbour, which is the
    smallest id pair at the global minimum. It then rescans only the rows
    whose neighbour was merged away or that the new cluster beats strictly
    (the new id is the largest, so it loses ties). Memory is O(N^2); each
    merge is O(N) numpy work plus those rescans.
    """
    if method not in LINKAGE_METHODS:
        raise ValueError(f"method must be one of {LINKAGE_METHODS}")
    d = np.asarray(distances, dtype=float)
    n = len(labels)
    if d.shape != (n, n):
        raise ValueError(f"distance matrix {d.shape} does not match {n} labels")
    if not np.all(np.isfinite(d)):
        raise ValueError("distance matrix has non-finite entries")
    if not np.allclose(d, d.T, atol=1e-12) or np.any(np.diag(d) != 0):
        raise ValueError("distance matrix must be symmetric with a zero diagonal")
    if n < 2:
        raise ValueError("need at least 2 items")

    # Row a of `big` holds the distances from cluster a, mirrored from the
    # upper triangle; dead clusters, a's own entry and ids not yet created
    # read inf, so a row's argmin is its nearest active neighbour.
    total = 2 * n - 1
    big = np.full((total, total), np.inf)
    leaf_block = big[:n, :n]
    leaf_block[...] = d
    np.copyto(leaf_block, d.T, where=np.tri(n, k=-1, dtype=bool))
    np.fill_diagonal(big, np.inf)
    rank = np.arange(total)
    nn = np.full(total, total)  # id `total` is a sentinel that is never dead
    nn[:n] = big[:n].argmin(axis=1)
    nnd = np.full(total, np.inf)
    nnd[:n] = big[rank[:n], nn[:n]]
    dead = np.zeros(total + 1, dtype=bool)
    sizes = [1.0] * total
    members: list[int | str] = list(labels) + [0] * (n - 1)

    nodes: list[TreeNode] = []
    for new in range(n, total):
        i = int(nnd.argmin())
        j = int(nn[i])
        nodes.append(
            TreeNode(id=new, left=members[i], right=members[j], height=float(nnd[i]))
        )
        members[new] = new

        merged = big[new]
        if method == "single":
            np.minimum(big[i], big[j], out=merged)
        elif method == "complete":
            np.maximum(big[i], big[j], out=merged)
        else:  # (si * d_i + sj * d_j) / (si + sj), evaluated in that order
            si, sj = sizes[i], sizes[j]
            np.multiply(big[i], si, out=merged)
            merged += sj * big[j]
            merged /= si + sj
            sizes[new] = si + sj
        merged[i] = merged[j] = np.inf
        # rows above `new` are rebuilt whole when their cluster is created
        big[:new, new] = merged[:new]
        big[:new, i] = np.inf
        big[:new, j] = np.inf
        dead[i] = dead[j] = True
        nnd[i] = nnd[j] = np.inf
        nn[i] = nn[j] = total
        nn[new] = i  # marks the new row for its first scan

        stale = (dead.take(nn) | (merged < nnd)).nonzero()[0]
        rows = big.take(stale, axis=0)
        nearest = rows.argmin(axis=1)
        nn[stale] = nearest
        nnd[stale] = rows[rank[: stale.size], nearest]

    return Dendrogram(leaves=tuple(labels), nodes=tuple(nodes), root=2 * n - 2)


@dataclass(frozen=True)
class ClusterCut:
    """Partition of the leaves induced by undoing the highest merges."""

    criterion: str
    clusters: tuple[tuple[str, ...], ...]
    count: int


def cluster_cut(tree: Dendrogram, k: int | None = None) -> ClusterCut:
    """Cut into k clusters, or at the largest gap between merge heights.

    k clusters come from undoing the k-1 highest merges (height ties undone
    newest first). The gap criterion picks the largest difference between
    consecutive sorted merge heights, the lower cut on ties; trees with a
    single merge fall back to one cluster.
    """
    m = len(tree.nodes)
    ordered = sorted(tree.nodes, key=lambda node: (node.height, node.id))
    if k is None:
        criterion = "largest-gap"
        heights = [node.height for node in ordered]
        if m < 2:
            k = 1
        else:
            gaps = np.diff(heights)
            k = m - int(np.argmax(gaps))
    else:
        criterion = f"k={k}"
        if not 1 <= k <= tree.n_leaves:
            raise ValueError(f"k must be in [1, {tree.n_leaves}], got {k}")

    removed = {node.id for node in ordered[m - (k - 1) :]} if k > 1 else set()
    # A cluster starts at the root, if kept, and at each kept child of an
    # undone merge. One walk from the root meets each cluster's leaves in a row.
    starts = {tree.root} - removed
    for node_id in removed:
        node = tree.node(node_id)
        starts.update(c for c in (node.left, node.right) if c not in removed)
    by_id, found, stack = tree._by_id, [], [tree.root]
    while stack:
        ref = stack.pop()
        if ref in starts:
            found.append([])
        node = by_id.get(ref)
        if node is None:
            found[-1].append(ref)
        else:
            stack.append(node.left)
            stack.append(node.right)
    clusters = tuple(sorted(tuple(sorted(c)) for c in found))
    if len(clusters) != k:
        raise ValueError(
            "cut does not split cleanly; merge heights are not monotone along the tree"
        )
    return ClusterCut(criterion=criterion, clusters=clusters, count=k)


@dataclass(frozen=True)
class BootstrapReport:
    """Stability of per-leaf orders under row resampling with replacement."""

    resamples: int
    point_orders: dict[str, int]
    order_histograms: dict[str, dict[int, int]]
    retained: tuple[str, ...]
    redraws: int
    stability_rule: str


def bootstrap_orders(
    panel: ReturnsPanel,
    scheme: WeightScheme,
    method: str,
    resamples: int,
    seed: int,
    modal_share: float = 0.67,
    max_shift: int = 1,
) -> BootstrapReport:
    """Recompute correlation, tree, and orders on row-resampled panels.

    A leaf is retained when its modal order appears in at least `modal_share`
    of resamples and sits within `max_shift` of the point estimate.
    Degenerate resamples (a zero-variance column) are redrawn and counted.
    """
    if resamples < 50:
        raise ValueError("need at least 50 resamples")
    point_tree = linkage_cluster(
        corr_to_distance(weighted_pearson_matrix(panel, scheme)), panel.assets, method
    )
    point_orders = order_profile(point_tree)

    histograms: dict[str, Counter] = {leaf: Counter() for leaf in panel.assets}
    redraws = 0
    t = panel.n_times
    for r in range(resamples):
        for attempt in range(100):
            rng = derived_rng(seed, r, attempt)
            rows = rng.integers(0, t, size=t)
            resampled = ReturnsPanel(
                assets=panel.assets,
                times=range(t),
                values=panel.values[rows],
                scale=panel.scale,
            )
            try:
                corr = weighted_pearson_matrix(resampled, scheme)
            except ValueError:
                redraws += 1
                continue
            break
        else:
            raise ValueError("resampling kept producing zero-variance columns")
        tree = linkage_cluster(corr_to_distance(corr), panel.assets, method)
        for leaf, order in order_profile(tree).items():
            histograms[leaf][order] += 1

    retained = []
    for leaf in panel.assets:
        modal_order, modal_count = histograms[leaf].most_common(1)[0]
        if modal_count >= modal_share * resamples and abs(modal_order - point_orders[leaf]) <= max_shift:
            retained.append(leaf)
    return BootstrapReport(
        resamples=resamples,
        point_orders=dict(point_orders),
        order_histograms={leaf: dict(sorted(h.items())) for leaf, h in histograms.items()},
        retained=tuple(retained),
        redraws=redraws,
        stability_rule=f"modal order in >= {modal_share:.0%} of resamples and within "
        f"{max_shift} of the point estimate",
    )


_LEAF_PREFIX = "leaf:"


def _encode_child(child: int | str) -> int | str:
    return child if isinstance(child, int) else _LEAF_PREFIX + child


def _decode_child(raw, location: str) -> int | str:
    if isinstance(raw, bool) or raw is None:
        raise DendrogramFormatError(f"bad child reference {raw!r}", location)
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str) and raw.startswith(_LEAF_PREFIX):
        return raw[len(_LEAF_PREFIX) :]
    raise DendrogramFormatError(f"bad child reference {raw!r}", location)


def serialize_dendrogram(tree: Dendrogram, path: str | Path) -> None:
    """Write the JSON interchange form (ids, heights, probabilities preserved).

    The file is replaced atomically and keys are sorted within each record.
    """
    payload = {
        "leaves": list(tree.leaves),
        "nodes": [
            {
                "id": node.id,
                "left": _encode_child(node.left),
                "right": _encode_child(node.right),
                "height": node.height,
                **({"p": node.p} if node.p is not None else {}),
            }
            for node in tree.nodes
        ],
        "root": tree.root,
    }
    write_json_atomic(path, payload)


def parse_dendrogram(path: str | Path) -> Dendrogram:
    """Read the JSON interchange form, rejecting malformed trees with a location."""
    text = "".join(input_lines(path))
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DendrogramFormatError(f"not valid JSON: {exc}", str(path)) from exc
    if not isinstance(payload, dict):
        raise DendrogramFormatError(f"top level must be an object, got {payload!r}", str(path))
    for key in ("leaves", "nodes", "root"):
        if key not in payload:
            raise DendrogramFormatError(f"missing key {key!r}", str(path))
    for key in ("leaves", "nodes"):
        if not isinstance(payload[key], list):
            raise DendrogramFormatError(
                f"key {key!r} must be a list, got {payload[key]!r}", str(path)
            )
    try:
        root = int(payload["root"])
    except (TypeError, ValueError) as exc:
        raise DendrogramFormatError(
            f"key 'root' must be a node id, got {payload['root']!r}", str(path)
        ) from exc
    nodes = []
    for idx, record in enumerate(payload["nodes"]):
        where = f"nodes[{idx}] of {path}"
        if not isinstance(record, dict):
            raise DendrogramFormatError(f"node record must be an object, got {record!r}", where)
        if "children" in record:
            children = record["children"]
            if not isinstance(children, list) or len(children) != 2:
                raise DendrogramFormatError("non-binary node", where)
            left_raw, right_raw = children
        else:
            if "left" not in record or "right" not in record:
                raise DendrogramFormatError("non-binary node (needs left and right)", where)
            left_raw, right_raw = record["left"], record["right"]
        try:
            node = TreeNode(
                id=int(record["id"]),
                left=_decode_child(left_raw, where),
                right=_decode_child(right_raw, where),
                height=float(record["height"]),
                p=None if record.get("p") is None else float(record["p"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, DendrogramFormatError):
                raise
            raise DendrogramFormatError(f"bad node record: {exc}", where) from exc
        nodes.append(node)
    try:
        return Dendrogram(
            leaves=tuple(str(x) for x in payload["leaves"]),
            nodes=tuple(nodes),
            root=root,
        )
    except DendrogramFormatError as exc:
        raise DendrogramFormatError(f"{exc}", str(path)) from exc


def tree_from_leaf_depths(
    depths: Sequence[int], labels: Sequence[str] | None = None
) -> Dendrogram:
    """Full binary tree where label i ends up with hierarchical order depths[i].

    Depths must satisfy the Kraft equality sum(2^-d) == 1 (every full binary
    tree does). Node heights decrease with depth so the tree is monotone.
    """
    depths = [int(d) for d in depths]
    if labels is None:
        labels = [f"A{i:02d}" for i in range(len(depths))]
    if len(labels) != len(depths):
        raise ValueError("labels and depths must have equal length")
    if min(depths, default=0) < 1:
        raise ValueError("leaf depths must be >= 1")
    if abs(sum(2.0 ** -d for d in depths) - 1.0) > 1e-12:
        raise ValueError("leaf depths do not form a full binary tree (Kraft sum != 1)")
    max_depth = max(depths)
    # deepest-first ordering makes the greedy packing always succeed
    queue = sorted(zip(depths, labels), key=lambda pair: -pair[0])
    nodes: list[TreeNode] = []
    counter = len(labels)

    def build(depth: int) -> int | str:
        nonlocal counter
        if queue and queue[-1][0] == depth:
            return queue.pop()[1]
        if depth >= max_depth:
            raise ValueError("leaf depths do not form a full binary tree")
        left = build(depth + 1)
        right = build(depth + 1)
        node = TreeNode(
            id=counter, left=left, right=right, height=float(max_depth - depth)
        )
        nodes.append(node)
        counter += 1
        return node.id

    root = build(0)
    if queue or isinstance(root, str):
        raise ValueError("leaf depths do not form a full binary tree")
    return Dendrogram(leaves=tuple(labels), nodes=tuple(nodes), root=root)


def comb_tree(n_leaves: int, labels: Sequence[str] | None = None) -> Dendrogram:
    """Maximally unbalanced chain; the deepest leaf has order n_leaves - 1."""
    if n_leaves < 2:
        raise ValueError("need at least 2 leaves")
    depths = [n_leaves - 1] + [n_leaves - i for i in range(1, n_leaves)]
    return tree_from_leaf_depths(depths, labels)


def random_binary_tree(
    n_leaves: int, rng: np.random.Generator, labels: Sequence[str] | None = None
) -> Dendrogram:
    """Uniform random merge order; heights follow merge order (1, 2, ...)."""
    if n_leaves < 2:
        raise ValueError("need at least 2 leaves")
    if labels is None:
        labels = [f"A{i:02d}" for i in range(n_leaves)]
    pool: list[int | str] = list(labels)
    nodes: list[TreeNode] = []
    next_id = n_leaves
    while len(pool) > 1:
        i, j = sorted(rng.choice(len(pool), size=2, replace=False))
        right = pool.pop(int(j))
        left = pool.pop(int(i))
        nodes.append(
            TreeNode(id=next_id, left=left, right=right, height=float(len(nodes) + 1))
        )
        pool.append(next_id)
        next_id += 1
    return Dendrogram(leaves=tuple(labels), nodes=tuple(nodes), root=nodes[-1].id)
