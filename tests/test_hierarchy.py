import json
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.cluster.hierarchy import linkage as scipy_linkage
from scipy.spatial.distance import squareform

from hiermf import hierarchy
from hiermf.dependence import corr_to_distance, flat_weights, weighted_pearson_matrix
from hiermf.hierarchy import (
    Dendrogram,
    DendrogramFormatError,
    TreeNode,
    bootstrap_orders,
    cluster_cut,
    comb_tree,
    hierarchical_order,
    leaf_path,
    linkage_cluster,
    order_profile,
    parse_dendrogram,
    random_binary_tree,
    serialize_dendrogram,
    tree_from_leaf_depths,
)
from hiermf.market_data import ReturnsPanel

THREE_POINT = np.array([[0.0, 1.0, 4.0], [1.0, 0.0, 5.0], [4.0, 5.0, 0.0]])


def merge_leaf_sets(tree):
    out = []
    for node in sorted(tree.nodes, key=lambda n: n.id):
        stack, leaves = [node.id], set()
        while stack:
            ref = stack.pop()
            if isinstance(ref, str):
                leaves.add(ref)
            else:
                inner = tree.node(ref)
                stack.extend([inner.left, inner.right])
        out.append(frozenset(leaves))
    return out


# --- linkage ---


def test_single_linkage_three_points():
    tree = linkage_cluster(THREE_POINT, ["A", "B", "C"], "single")
    assert [n.height for n in tree.nodes] == [1.0, 4.0]
    assert merge_leaf_sets(tree) == [frozenset("AB"), frozenset("ABC")]


def test_complete_linkage_three_points():
    tree = linkage_cluster(THREE_POINT, ["A", "B", "C"], "complete")
    assert [n.height for n in tree.nodes] == [1.0, 5.0]


def test_average_linkage_three_points():
    tree = linkage_cluster(THREE_POINT, ["A", "B", "C"], "average")
    assert [n.height for n in tree.nodes] == [1.0, 4.5]


def test_two_point_linkage():
    d = np.array([[0.0, 0.7], [0.7, 0.0]])
    tree = linkage_cluster(d, ["A", "B"], "single")
    assert len(tree.nodes) == 1
    assert tree.nodes[0].height == 0.7


def test_linkage_tie_rule_is_deterministic():
    # three equidistant points: the smallest id pair (0, 1) merges first
    d = np.ones((3, 3)) - np.eye(3)
    for method in ("single", "average", "complete"):
        tree = linkage_cluster(d, ["x", "y", "z"], method)
        assert merge_leaf_sets(tree)[0] == frozenset("xy")


def test_linkage_rejects_bad_input():
    with pytest.raises(ValueError, match="non-finite"):
        linkage_cluster(np.array([[0.0, np.inf], [np.inf, 0.0]]), ["a", "b"])
    with pytest.raises(ValueError, match="symmetric"):
        linkage_cluster(np.array([[0.0, 1.0], [2.0, 0.0]]), ["a", "b"])
    with pytest.raises(ValueError):
        linkage_cluster(np.zeros((3, 3)), ["a", "b"], "ward")


def test_linkage_heights_monotone():
    rng = np.random.default_rng(0)
    points = rng.standard_normal((20, 3))
    d = np.sqrt(((points[:, None] - points[None, :]) ** 2).sum(-1))
    for method in ("single", "average", "complete"):
        tree = linkage_cluster(d, [f"p{i}" for i in range(20)], method)
        assert tree.heights_monotone()


def test_monotone_transform_invariance_single_complete():
    rng = np.random.default_rng(1)
    transforms = [lambda d: d**3, lambda d: np.expm1(d), lambda d: 2 * d + d**2]
    for trial in range(20):
        points = rng.standard_normal((12, 2))
        d = np.sqrt(((points[:, None] - points[None, :]) ** 2).sum(-1))
        labels = [f"p{i}" for i in range(12)]
        for method in ("single", "complete"):
            base = merge_leaf_sets(linkage_cluster(d, labels, method))
            for f in transforms:
                assert merge_leaf_sets(linkage_cluster(f(d), labels, method)) == base


# --- linkage oracles ---


def reference_linkage_cluster(distances, labels, method="average"):
    """The former O(N^3) loop: a global argmin over the dense (2N-1)^2 matrix per merge."""
    d = np.asarray(distances, dtype=float)
    n = len(labels)
    total = 2 * n - 1
    big = np.full((total, total), np.inf)
    big[:n, :n] = d
    np.fill_diagonal(big, np.inf)
    active = np.zeros(total, dtype=bool)
    active[:n] = True
    sizes = np.ones(total, dtype=int)
    members = list(labels) + [0] * (n - 1)

    nodes = []
    for step in range(n - 1):
        flat = np.argmin(big)
        i, j = divmod(int(flat), total)
        if i > j:  # argmin scans row-major, so (i, j) is already the smallest pair
            i, j = j, i
        height = big[i, j]
        new = n + step
        nodes.append(
            TreeNode(id=new, left=members[i], right=members[j], height=float(height))
        )
        members[new] = new

        others = active.copy()
        others[i] = others[j] = False
        idx = np.flatnonzero(others)
        if method == "single":
            merged = np.minimum(big[i, idx], big[j, idx])
        elif method == "complete":
            merged = np.maximum(big[i, idx], big[j, idx])
        else:
            merged = (sizes[i] * big[i, idx] + sizes[j] * big[j, idx]) / (sizes[i] + sizes[j])
        big[new, idx] = merged
        big[idx, new] = merged
        sizes[new] = sizes[i] + sizes[j]
        big[i, :] = np.inf
        big[:, i] = np.inf
        big[j, :] = np.inf
        big[:, j] = np.inf
        active[i] = active[j] = False
        active[new] = True

    return Dendrogram(leaves=tuple(labels), nodes=tuple(nodes), root=2 * n - 2)


METHODS = ("single", "average", "complete")


def tied_integer_distances(rng, n, levels):
    """Symmetric distances drawn from `levels` integers: many exact ties, zeros included."""
    upper = np.triu(rng.integers(0, levels, size=(n, n)).astype(float), 1)
    return upper + upper.T


def euclidean_distances(rng, n, dim=3):
    points = rng.standard_normal((n, dim))
    return np.sqrt(((points[:, None] - points[None, :]) ** 2).sum(-1))


def correlation_distances(rng, n, length=300, factors=5):
    returns = rng.standard_normal((length, factors)) @ rng.standard_normal((factors, n))
    returns += rng.standard_normal((length, n))
    panel = ReturnsPanel(
        assets=tuple(f"a{i}" for i in range(n)), times=tuple(range(length)), values=returns
    )
    return corr_to_distance(weighted_pearson_matrix(panel, flat_weights(length)))


def assert_same_tree(d, labels, method):
    # TreeNode equality compares heights with ==, so they must be bitwise equal
    assert linkage_cluster(d, labels, method).nodes == reference_linkage_cluster(d, labels, method).nodes


def test_linkage_matches_reference_on_tied_integers():
    rng = np.random.default_rng(20)
    for n in range(2, 81):
        labels = [f"x{i}" for i in range(n)]
        for levels in (2, 3, 8):
            d = tied_integer_distances(rng, n, levels)
            for method in METHODS:
                assert_same_tree(d, labels, method)


def test_linkage_matches_reference_on_points():
    rng = np.random.default_rng(21)
    for n in range(2, 81, 3):
        labels = [f"p{i}" for i in range(n)]
        d = euclidean_distances(rng, n)
        for method in METHODS:
            assert_same_tree(d, labels, method)


@pytest.mark.parametrize("n", [50, 400])
def test_linkage_matches_reference_on_correlation_distances(n):
    d = correlation_distances(np.random.default_rng(n), n)
    labels = [f"a{i}" for i in range(n)]
    for method in METHODS:
        assert_same_tree(d, labels, method)


@given(st.integers(2, 24), st.integers(1, 4), st.integers(0, 2**32 - 1), st.sampled_from(METHODS))
@settings(max_examples=150, deadline=None)
def test_linkage_matches_reference_property(n, levels, seed, method):
    d = tied_integer_distances(np.random.default_rng(seed), n, levels)
    assert_same_tree(d, [f"x{i}" for i in range(n)], method)


def test_average_linkage_follows_rounding_below_the_cached_minimum():
    # a is x from b, I and every J leaf, and b has the smaller id, so a caches b.
    # Merging I (1 leaf) with J (4 leaves) gives (x + 4x) / 5, one ulp below x:
    # the new cluster must take over a's cache, so a stays the left child.
    x = 1.623573099564785
    assert (1 * x + 4 * x) / 5 < x
    d = np.full((7, 7), 5.0)
    d[0, 1:] = x
    d[2, 3:] = 0.3
    d[3, 4] = d[5, 6] = 0.1
    d[3, 5:] = d[4, 5:] = 0.2
    d = np.triu(d, 1) + np.triu(d, 1).T
    labels = ["a", "b", "I", "j1", "j2", "j3", "j4"]
    assert_same_tree(d, labels, "average")
    assert linkage_cluster(d, labels, "average").nodes[4] == TreeNode(11, "a", 10, (x + 4 * x) / 5)


def test_linkage_matches_scipy_without_ties():
    # scipy breaks ties its own way, so it is an oracle on tie-free inputs only
    rng = np.random.default_rng(22)
    for trial in range(30):
        n = int(rng.integers(2, 60))
        d = euclidean_distances(rng, n)
        labels = [f"p{i}" for i in range(n)]
        for method in METHODS:
            tree = linkage_cluster(d, labels, method)
            z = scipy_linkage(squareform(d, checks=False), method)
            leaf_sets = [{i} for i in range(n)]
            for a, b, height, _ in z:
                leaf_sets.append(leaf_sets[int(a)] | leaf_sets[int(b)])
            expected = [frozenset(labels[i] for i in s) for s in leaf_sets[n:]]
            assert merge_leaf_sets(tree) == expected
            heights = np.array([node.height for node in tree.nodes])
            np.testing.assert_allclose(heights, z[:, 2], rtol=0, atol=1e-12)


def test_linkage_reads_the_upper_triangle():
    # the lower triangle is only checked to 1e-12; a smaller asymmetry there
    # must not steer the tie rule (the former full-matrix argmin let it)
    d = np.ones((3, 3)) - np.eye(3)
    d[2, 0] -= 1e-13
    mirrored = np.triu(d, 1) + np.triu(d, 1).T
    labels = ["x", "y", "z"]
    for method in METHODS:
        tree = linkage_cluster(d, labels, method)
        assert tree.nodes == linkage_cluster(mirrored, labels, method).nodes
        assert merge_leaf_sets(tree)[0] == frozenset("xy")
        assert merge_leaf_sets(reference_linkage_cluster(d, labels, method))[0] == frozenset("xz")
    rng = np.random.default_rng(23)
    for n in range(3, 40):
        d = tied_integer_distances(rng, n, 3)
        noisy = d + 1e-13 * np.tril(rng.choice([-1.0, 1.0], size=(n, n)), -1)
        mirrored = np.triu(noisy, 1) + np.triu(noisy, 1).T
        labels = [f"x{i}" for i in range(n)]
        for method in METHODS:
            assert linkage_cluster(noisy, labels, method).nodes == linkage_cluster(mirrored, labels, method).nodes


# --- paths and orders ---


def test_example_tree_leaf_path(example_tree):
    path = leaf_path(example_tree, "i")
    assert set(path) == {1, 2, 4, 5, 8, 10}
    assert path[0] == 10  # deepest ancestor first
    assert path[-1] == 1  # root last
    assert len(path) == 6


def test_example_tree_order(example_tree):
    assert hierarchical_order(example_tree, "i") == 6
    assert hierarchical_order(example_tree, "s03") == 2


def test_two_leaf_path_is_root_only():
    tree = linkage_cluster(np.array([[0.0, 1.0], [1.0, 0.0]]), ["A", "B"])
    for leaf in ("A", "B"):
        assert leaf_path(tree, leaf) == (tree.root,)
        assert hierarchical_order(tree, leaf) == 1


def test_balanced_four_leaf_paths():
    tree = tree_from_leaf_depths([2, 2, 2, 2], ["a", "b", "c", "d"])
    assert all(len(leaf_path(tree, leaf)) == 2 for leaf in tree.leaves)


def test_unknown_leaf_rejected(example_tree):
    with pytest.raises(ValueError, match="unknown leaf"):
        leaf_path(example_tree, "nope")


@pytest.mark.parametrize("n_leaves", [2, 3, 17, 400])
def test_order_profile_hierarchical_order_and_leaf_path_agree(n_leaves):
    rng = np.random.default_rng(n_leaves)
    for tree in (random_binary_tree(n_leaves, rng), comb_tree(n_leaves)):
        profile = order_profile(tree)
        for leaf in tree.leaves:
            assert hierarchical_order(tree, leaf) == profile[leaf] == len(leaf_path(tree, leaf))
        with pytest.raises(ValueError, match="unknown leaf 'nope'"):
            hierarchical_order(tree, "nope")


def test_comb_tree_orders():
    tree = comb_tree(4, ["a", "b", "c", "d"])
    assert order_profile(tree) == {"a": 3, "b": 3, "c": 2, "d": 1}
    deep = comb_tree(9)
    assert max(order_profile(deep).values()) == 8


def test_balanced_eight_leaf_profile():
    tree = tree_from_leaf_depths([3] * 8)
    assert set(order_profile(tree).values()) == {3}


def test_order_profile_matches_per_leaf_calls(example_tree):
    profile = order_profile(example_tree)
    assert profile["i"] == 6
    for leaf in example_tree.leaves:
        assert profile[leaf] == hierarchical_order(example_tree, leaf)


def test_order_profile_returns_a_copy(example_tree):
    profile = order_profile(example_tree)
    profile["i"] = 99
    del profile["s03"]
    assert order_profile(example_tree)["i"] == 6
    assert order_profile(example_tree)["s03"] == 2
    assert hierarchical_order(example_tree, "i") == 6


def test_order_bounds_random_trees():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        tree = random_binary_tree(n, rng)
        orders = order_profile(tree)
        assert len(tree.nodes) == n - 1
        assert all(1 <= v <= n - 1 for v in orders.values())
    comb = comb_tree(12)
    assert max(order_profile(comb).values()) == 11


# --- cuts ---


def test_cut_single_cluster(example_tree):
    cut = cluster_cut(example_tree, k=1)
    assert cut.count == 1
    assert set(cut.clusters[0]) == set(example_tree.leaves)


def test_cut_all_singletons(example_tree):
    n = example_tree.n_leaves
    cut = cluster_cut(example_tree, k=n)
    assert cut.count == n
    assert all(len(c) == 1 for c in cut.clusters)


def test_largest_gap_cut_three_points():
    tree = linkage_cluster(THREE_POINT, ["A", "B", "C"], "single")
    cut = cluster_cut(tree)
    assert cut.count == 2
    assert set(cut.clusters) == {("A", "B"), ("C",)}


def test_cut_k_out_of_range(example_tree):
    with pytest.raises(ValueError):
        cluster_cut(example_tree, k=0)
    with pytest.raises(ValueError):
        cluster_cut(example_tree, k=example_tree.n_leaves + 1)


def test_cut_of_a_non_monotone_tree_is_rejected():
    # the highest merge (node 4) sits below the root, so undoing it leaves the root whole
    tree = Dendrogram(
        leaves=("a", "b", "c", "d"),
        nodes=(TreeNode(4, "a", "b", 3.0), TreeNode(5, 4, "c", 1.0), TreeNode(6, 5, "d", 2.0)),
        root=6,
    )
    with pytest.raises(ValueError, match="cut does not split cleanly"):
        cluster_cut(tree, k=2)


def test_cut_consistency_with_union_find():
    rng = np.random.default_rng(3)
    points = rng.standard_normal((15, 2))
    d = np.sqrt(((points[:, None] - points[None, :]) ** 2).sum(-1))
    labels = [f"p{i}" for i in range(15)]
    tree = linkage_cluster(d, labels, "average")
    ordered = sorted(tree.nodes, key=lambda n: (n.height, n.id))
    for k in range(1, 16):
        parent = {leaf: leaf for leaf in labels}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        rep = {}
        for node in ordered[: len(ordered) - (k - 1)]:
            refs = [
                rep[c] if isinstance(c, int) else c for c in (node.left, node.right)
            ]
            ra, rb = find(refs[0]), find(refs[1])
            parent[rb] = ra
            rep[node.id] = ra
        expected = {}
        for leaf in labels:
            expected.setdefault(find(leaf), []).append(leaf)
        expected_clusters = {tuple(sorted(v)) for v in expected.values()}
        cut = cluster_cut(tree, k=k)
        assert set(cut.clusters) == expected_clusters


# --- bootstrap ---


def block_panel(rng, n_per_block=4, length=400):
    common = rng.standard_normal((length, 2))
    cols, labels = [], []
    for b in range(2):
        for j in range(n_per_block):
            cols.append(common[:, b] + 0.3 * rng.standard_normal(length))
            labels.append(f"b{b}{j}")
    return ReturnsPanel(assets=tuple(labels), times=tuple(range(length)), values=np.column_stack(cols))


def chain_panel(rng, length=400):
    """Nested correlation levels [0.9, 0.75, 0.6, 0.45]: a stable chain tree."""
    levels = np.array(
        [
            [1.00, 0.90, 0.75, 0.60, 0.45],
            [0.90, 1.00, 0.75, 0.60, 0.45],
            [0.75, 0.75, 1.00, 0.60, 0.45],
            [0.60, 0.60, 0.60, 1.00, 0.45],
            [0.45, 0.45, 0.45, 0.45, 1.00],
        ]
    )
    values = rng.standard_normal((length, 5)) @ np.linalg.cholesky(levels).T
    return ReturnsPanel(
        assets=("c0", "c1", "c2", "c3", "c4"),
        times=tuple(range(length)),
        values=values,
    )


def test_bootstrap_retains_stable_hierarchy():
    # the nested-level chain keeps every leaf's order put under resampling
    rng = np.random.default_rng(7)
    panel = chain_panel(rng)
    report = bootstrap_orders(panel, flat_weights(panel.n_times), "average", resamples=60, seed=5)
    assert report.resamples == 60
    assert set(report.retained) == set(panel.assets)
    for hist in report.order_histograms.values():
        assert sum(hist.values()) == 60
    assert report.point_orders == {"c0": 4, "c1": 4, "c2": 3, "c3": 2, "c4": 1}


def test_block_split_stable_under_resampling():
    rng = np.random.default_rng(8)
    panel = block_panel(rng)
    blocks = {
        tuple(sorted(a for a in panel.assets if a.startswith("b0"))),
        tuple(sorted(a for a in panel.assets if a.startswith("b1"))),
    }
    from hiermf.dependence import corr_to_distance, weighted_pearson_matrix

    scheme = flat_weights(panel.n_times)
    for r in range(50):
        rows = np.random.default_rng((5, r)).integers(0, panel.n_times, panel.n_times)
        resampled = ReturnsPanel(
            assets=panel.assets, times=panel.times, values=panel.values[rows]
        )
        tree = linkage_cluster(
            corr_to_distance(weighted_pearson_matrix(resampled, scheme)),
            panel.assets,
            "average",
        )
        assert set(cluster_cut(tree, k=2).clusters) == blocks


def test_bootstrap_deterministic():
    rng = np.random.default_rng(9)
    panel = block_panel(rng, n_per_block=3, length=200)
    kwargs = dict(scheme=flat_weights(200), method="average", resamples=50, seed=11)
    a = bootstrap_orders(panel, **kwargs)
    b = bootstrap_orders(panel, **kwargs)
    assert a == b


def test_bootstrap_unchanged_under_reference_linkage(monkeypatch):
    rng = np.random.default_rng(13)
    panel = block_panel(rng, n_per_block=5, length=200)
    kwargs = dict(scheme=flat_weights(200), method="average", resamples=50, seed=17)
    report = bootstrap_orders(panel, **kwargs)
    monkeypatch.setattr(hierarchy, "linkage_cluster", reference_linkage_cluster)
    assert bootstrap_orders(panel, **kwargs) == report


def test_bootstrap_redraws_degenerate_resamples():
    rng = np.random.default_rng(10)
    values = rng.standard_normal((60, 3))
    values[:, 2] = 0.0
    values[0, 2] = 1.0  # zero variance whenever row 0 is not resampled
    panel = ReturnsPanel(assets=("a", "b", "c"), times=tuple(range(60)), values=values)
    report = bootstrap_orders(panel, flat_weights(60), "average", resamples=50, seed=3)
    assert report.redraws > 0


def test_bootstrap_requires_enough_resamples():
    panel = block_panel(np.random.default_rng(11), n_per_block=2, length=100)
    with pytest.raises(ValueError):
        bootstrap_orders(panel, flat_weights(100), "average", resamples=0, seed=0)


# --- interchange format ---


def test_serialize_parse_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    tree = random_binary_tree(64, rng)
    probs = {n.id: float(rng.random()) for n in tree.nodes}
    tree = tree.with_probabilities(probs)
    path = tmp_path / "tree.json"
    serialize_dendrogram(tree, path)
    back = parse_dendrogram(path)
    assert back.leaves == tree.leaves
    assert back.root == tree.root
    assert sorted(back.nodes, key=lambda n: n.id) == sorted(tree.nodes, key=lambda n: n.id)


def reference_serialize_dendrogram(tree, path):
    """The json.dump writer serialize_dendrogram replaced: insertion-ordered keys, in place."""
    payload = {
        "leaves": list(tree.leaves),
        "nodes": [
            {
                "id": node.id,
                "left": hierarchy._encode_child(node.left),
                "right": hierarchy._encode_child(node.right),
                "height": node.height,
                **({"p": node.p} if node.p is not None else {}),
            }
            for node in tree.nodes
        ],
        "root": tree.root,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def test_serialized_tree_has_sorted_keys_and_the_old_content(tmp_path):
    rng = np.random.default_rng(13)
    tree = random_binary_tree(9, rng)
    nodes = tuple(  # every other node without a probability
        TreeNode(n.id, n.left, n.right, n.height, float(rng.random()) if k % 2 else None)
        for k, n in enumerate(tree.nodes)
    )
    tree = Dendrogram(tree.leaves, nodes, tree.root)
    serialize_dendrogram(tree, tmp_path / "new.json")
    reference_serialize_dendrogram(tree, tmp_path / "old.json")
    new = (tmp_path / "new.json").read_text()
    old = json.loads((tmp_path / "old.json").read_text())
    assert json.loads(new) == old
    assert new == json.dumps(old, indent=2, sort_keys=True) + "\n"


def test_serialize_dendrogram_replaces_the_file_atomically(tmp_path, monkeypatch):
    path = tmp_path / "tree.json"
    path.write_text("previous\n")

    def fail_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail_replace)
    # the writer reports the failed write as the ValueError a command prints
    with pytest.raises(ValueError, match=f"^cannot write {re.escape(str(path))}: disk full$"):
        serialize_dendrogram(comb_tree(4), path)
    assert path.read_text() == "previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tree.json"]


def test_parse_example_file(example_tree_path):
    tree = parse_dendrogram(example_tree_path)
    assert hierarchical_order(tree, "i") == 6
    assert tree.node(5).p == 0.5


def test_parse_rejects_three_children(tmp_path):
    payload = {
        "leaves": ["a", "b", "c"],
        "nodes": [
            {"id": 3, "children": ["leaf:a", "leaf:b", "leaf:c"], "height": 1.0},
            {"id": 4, "left": 3, "right": "leaf:c", "height": 2.0},
        ],
        "root": 4,
    }
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(payload))
    with pytest.raises(DendrogramFormatError, match="non-binary"):
        parse_dendrogram(f)


def test_parse_accepts_two_element_children(tmp_path):
    payload = {
        "leaves": ["a", "b"],
        "nodes": [{"id": 2, "children": ["leaf:a", "leaf:b"], "height": 1.0}],
        "root": 2,
    }
    f = tmp_path / "ok.json"
    f.write_text(json.dumps(payload))
    assert parse_dendrogram(f).n_leaves == 2


def test_parse_rejects_duplicate_leaves(tmp_path):
    payload = {
        "leaves": ["a", "a"],
        "nodes": [{"id": 2, "left": "leaf:a", "right": "leaf:a", "height": 1.0}],
        "root": 2,
    }
    f = tmp_path / "dup.json"
    f.write_text(json.dumps(payload))
    with pytest.raises(DendrogramFormatError, match="duplicate leaf"):
        parse_dendrogram(f)


def test_parse_rejects_shared_child(tmp_path):
    payload = {
        "leaves": ["a", "b", "c"],
        "nodes": [
            {"id": 3, "left": "leaf:a", "right": "leaf:b", "height": 1.0},
            {"id": 4, "left": 3, "right": 3, "height": 2.0},
        ],
        "root": 4,
    }
    f = tmp_path / "cycle.json"
    f.write_text(json.dumps(payload))
    with pytest.raises(DendrogramFormatError, match="two parents"):
        parse_dendrogram(f)


def test_parse_rejects_cyclic_reference(tmp_path):
    payload = {
        "leaves": ["a", "b", "c"],
        "nodes": [
            {"id": 3, "left": 4, "right": "leaf:a", "height": 1.0},
            {"id": 4, "left": 3, "right": "leaf:b", "height": 2.0},
        ],
        "root": 4,
    }
    f = tmp_path / "cycle2.json"
    f.write_text(json.dumps(payload))
    with pytest.raises(DendrogramFormatError):
        parse_dendrogram(f)


def test_parse_rejects_bad_probability(tmp_path):
    payload = {
        "leaves": ["a", "b"],
        "nodes": [{"id": 2, "left": "leaf:a", "right": "leaf:b", "height": 1.0, "p": 1.5}],
        "root": 2,
    }
    f = tmp_path / "badp.json"
    f.write_text(json.dumps(payload))
    with pytest.raises(DendrogramFormatError, match="probability"):
        parse_dendrogram(f)


def test_dendrogram_rejects_a_cycle_away_from_the_root():
    # nodes 5 and 6 are each other's child: every node has one parent, but the root reaches neither
    with pytest.raises(DendrogramFormatError, match="tree is not connected"):
        Dendrogram(
            leaves=("a", "b", "c", "d"),
            nodes=(TreeNode(4, "a", "b", 1.0), TreeNode(5, 6, "c", 1.0), TreeNode(6, 5, "d", 1.0)),
            root=4,
        )


def test_dendrogram_requires_n_minus_one_nodes():
    with pytest.raises(DendrogramFormatError, match="internal nodes"):
        Dendrogram(
            leaves=("a", "b", "c"),
            nodes=(TreeNode(3, "a", "b", 1.0),),
            root=3,
        )
