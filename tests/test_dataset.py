"""Dataset containers, synthetic generation, splitting and CSV round trips."""

import copy
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import condinv as ci
from condinv.dataset import (
    CellSpec,
    DatasetError,
    GroupIndex,
    SyntheticSpec,
    group_index,
    load_features,
    save_csv,
)
from condinv.harness import load_spec, spec_from_mapping
from conftest import paths, yaml_nodes


class TestLabeledDataset:
    def test_basic_properties(self, make_dataset):
        data = make_dataset(n_domains=2, n_classes=3, n=20, d=4)
        assert data.n == 20
        assert data.n_features == 4
        assert data.class_ids == (1, 2, 3)
        assert data.domain_ids == (1, 2)

    def test_arrays_are_frozen(self, make_dataset):
        data = make_dataset()
        with pytest.raises(ValueError):
            data.features[0, 0] = 99.0
        with pytest.raises(ValueError):
            data.labels[0] = 5

    def test_rejects_empty(self):
        with pytest.raises(DatasetError, match="empty"):
            ci.LabeledDataset(np.empty((0, 2)), np.empty(0, int), np.empty(0, int))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DatasetError, match="equal length"):
            ci.LabeledDataset(np.ones((3, 2)), np.ones(2, int), np.ones(3, int))

    def test_rejects_non_finite(self):
        x = np.ones((3, 2))
        x[1, 1] = np.nan
        with pytest.raises(DatasetError, match="row 1, column 1"):
            ci.LabeledDataset(x, np.ones(3, int), np.ones(3, int))

    def test_rejects_nonpositive_ids(self):
        with pytest.raises(DatasetError, match="positive"):
            ci.LabeledDataset(np.ones((2, 2)), np.array([0, 1]), np.array([1, 1]))

    def test_take_preserves_names(self):
        data = ci.LabeledDataset(
            np.arange(8.0).reshape(4, 2),
            np.array([1, 1, 2, 2]),
            np.array([1, 2, 1, 2]),
            label_names={1: "cat", 2: "dog"},
            domain_names={1: "a", 2: "b"},
        )
        sub = data.take([2, 0])
        assert sub.n == 2
        assert np.array_equal(sub.features, data.features[[2, 0]])
        assert sub.label_names == {1: "cat", 2: "dog"}

    def test_subset_domains(self, make_dataset):
        data = make_dataset(n_domains=3, n=24)
        sub = data.subset_domains([1, 3])
        assert set(sub.domain_ids) == {1, 3}
        assert sub.n == int(np.isin(data.domains, [1, 3]).sum())

    def test_subset_missing_domain(self, make_dataset):
        data = make_dataset(n_domains=2)
        with pytest.raises(DatasetError, match=r"\[9\]"):
            data.subset_domains([1, 9])


class TestGroupIndex:
    def test_partition_is_exact(self, make_dataset):
        data = make_dataset(n_domains=2, n_classes=3, n=30)
        groups = group_index(data)
        assert isinstance(groups, GroupIndex)
        assert groups.n == 30
        total = 0
        for (s, j), idx in groups.index_of.items():
            assert np.all(data.domains[idx] == s)
            assert np.all(data.labels[idx] == j)
            assert groups.counts[(s, j)] == idx.size
            total += idx.size
        assert total == 30
        assert sum(groups.per_domain.values()) == 30
        assert sum(groups.per_class.values()) == 30

    def test_absent_cell_not_indexed(self):
        data = ci.LabeledDataset(
            np.ones((3, 2)), np.array([1, 1, 2]), np.array([1, 1, 2])
        )
        groups = group_index(data)
        assert (1, 2) not in groups.index_of
        assert (2, 1) not in groups.index_of
        assert groups.counts[(1, 1)] == 2


class TestSyntheticGeneration:
    def test_cell_validation(self):
        with pytest.raises(DatasetError, match="positive"):
            CellSpec(mean=(0.0, 0.0), std=(0.0, 1.0), count=5)
        with pytest.raises(DatasetError, match="count"):
            CellSpec(mean=(0.0, 0.0), std=(1.0, 1.0), count=0)

    def test_deterministic(self):
        spec = ci.benchmark_spec(seed=7)
        a = ci.generate_synthetic(spec)
        b = ci.generate_synthetic(spec)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.domains, b.domains)

    def test_seed_changes_data(self):
        a = ci.generate_synthetic(ci.benchmark_spec(seed=7))
        b = ci.generate_synthetic(ci.benchmark_spec(seed=8))
        assert not np.array_equal(a.features, b.features)

    def test_benchmark_shape(self):
        data = ci.generate_synthetic(ci.benchmark_spec())
        assert data.n == 320
        assert data.n_features == 2
        assert data.domain_ids == (1, 2, 3)
        assert data.class_ids == (1, 2, 3)
        groups = group_index(data)
        assert groups.per_domain == {1: 80, 2: 120, 3: 120}
        assert groups.counts[(2, 2)] == 60

    def test_cell_statistics(self):
        # large count so sample moments sit close to the requested ones
        spec = SyntheticSpec(
            cells={(1, 1): CellSpec(mean=(5.0, -2.0), std=(0.5, 1.5), count=4000)},
            seed=3,
        )
        data = ci.generate_synthetic(spec)
        assert np.allclose(data.features.mean(axis=0), [5.0, -2.0], atol=0.1)
        assert np.allclose(data.features.std(axis=0), [0.5, 1.5], atol=0.1)

    def test_name_maps_are_strings(self):
        data = ci.generate_synthetic(ci.benchmark_spec())
        assert data.domain_names == {1: "1", 2: "2", 3: "3"}
        assert data.label_names == {1: "1", 2: "2", 3: "3"}


class TestSpecParsing:
    def good_tree(self):
        return {
            "version": 1,
            "seed": 11,
            "domains": {
                1: {
                    1: {"x": [1.0, 0.3], "y": [2.0, 0.3], "count": 30},
                    2: {"x": [2.0, 0.3], "y": [1.0, 0.3], "count": 20},
                },
                2: {
                    1: {"x": [3.5, 0.3], "y": [2.5, 0.3], "count": 20},
                    2: {"x": [4.5, 0.3], "y": [1.5, 0.3], "count": 60},
                },
            },
        }

    def test_round_trip(self):
        spec = spec_from_mapping(self.good_tree())
        assert spec.seed == 11
        assert spec.total == 130
        assert spec.cells[(2, 2)].mean == (4.5, 1.5)
        assert spec.cells[(2, 2)].std == (0.3, 0.3)

    def test_bad_version(self):
        tree = self.good_tree()
        tree["version"] = 9
        with pytest.raises(DatasetError, match="version"):
            spec_from_mapping(tree)

    def test_missing_domains(self):
        with pytest.raises(DatasetError, match="domains"):
            spec_from_mapping({"version": 1, "seed": 1})

    def test_bad_cell(self):
        tree = self.good_tree()
        del tree["domains"][1][1]["count"]
        with pytest.raises(DatasetError, match="domain 1 class 1"):
            spec_from_mapping(tree)

    def test_bad_ids(self):
        tree = self.good_tree()
        tree["domains"]["north"] = tree["domains"].pop(2)
        with pytest.raises(DatasetError, match="integer"):
            spec_from_mapping(tree)

    def test_load_spec_file(self, tmp_path):
        path = tmp_path / "spec.yaml"
        path.write_text(
            "version: 1\n"
            "seed: 5\n"
            "domains:\n"
            "  1:\n"
            "    1: {x: [1.0, 0.3], y: [2.0, 0.3], count: 10}\n"
        )
        spec = load_spec(path)
        assert spec.seed == 5
        assert spec.total == 10

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_spec(tmp_path / "nope.yaml")


class TestSplit:
    def test_fraction_and_stratification(self, make_dataset):
        data = make_dataset(n_domains=2, n_classes=3, n=60)
        first, second, warnings = ci.split(data, 0.7, seed=3)
        assert warnings == ()
        assert first.n + second.n == 60
        g_all = group_index(data)
        g_first = group_index(first)
        for key, count in g_all.counts.items():
            expect = min(max(int(np.floor(0.7 * count)), 1), count - 1)
            assert g_first.counts.get(key, 0) == expect

    def test_sides_are_disjoint_and_ordered(self, make_dataset):
        data = make_dataset(n=40)
        first, second, _ = ci.split(data, 0.5, seed=1)
        # every row lands on exactly one side
        rows = {tuple(r) for r in data.features}
        assert {tuple(r) for r in first.features} | {
            tuple(r) for r in second.features
        } == rows
        # original order preserved within each side: features appear in the
        # same relative order as the parent dataset
        def positions(side):
            lookup = {tuple(r): i for i, r in enumerate(data.features)}
            return [lookup[tuple(r)] for r in side.features]

        assert positions(first) == sorted(positions(first))
        assert positions(second) == sorted(positions(second))

    def test_deterministic_per_seed(self, make_dataset):
        data = make_dataset(n=40)
        a = ci.split(data, 0.6, seed=9)
        b = ci.split(data, 0.6, seed=9)
        c = ci.split(data, 0.6, seed=10)
        assert np.array_equal(a.first.features, b.first.features)
        assert not np.array_equal(a.first.features, c.first.features)

    def test_singleton_group_warns(self):
        data = ci.LabeledDataset(
            np.arange(10.0).reshape(5, 2),
            np.array([1, 1, 1, 1, 2]),
            np.array([1, 1, 1, 1, 1]),
        )
        first, second, warnings = ci.split(data, 0.5, seed=0)
        assert len(warnings) == 1
        assert "single sample" in warnings[0]
        assert 2 in first.labels  # the singleton went to the first side
        assert 2 not in second.labels

    def test_invalid_fraction(self, make_dataset):
        data = make_dataset()
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(DatasetError, match="fraction"):
                ci.split(data, bad, seed=0)

    def test_all_singletons_error(self):
        # every group is a singleton: the second side would be empty
        data = ci.LabeledDataset(
            np.arange(4.0).reshape(2, 2), np.array([1, 2]), np.array([1, 1])
        )
        with pytest.raises(DatasetError, match="empty side"):
            ci.split(data, 0.5, seed=0)


class TestCsvRoundTrip:
    def variant_dataset(self):
        # 280-sample layout: a trimmed third domain exercises uneven counts
        spec = ci.benchmark_spec(seed=13)
        cells = dict(spec.cells)
        cells[(3, 1)] = CellSpec(mean=(8.0, 2.5), std=(0.3, 0.3), count=30)
        cells[(3, 2)] = CellSpec(mean=(9.5, 1.5), std=(0.3, 0.3), count=30)
        cells[(3, 3)] = CellSpec(mean=(10.0, 2.5), std=(0.3, 0.3), count=20)
        return ci.generate_synthetic(SyntheticSpec(cells=cells, seed=13))

    def test_save_load_is_exact(self, tmp_path):
        data = self.variant_dataset()
        assert data.n == 280
        path = tmp_path / "data.csv"
        save_csv(data, path)
        back = ci.load_csv(path)
        assert np.array_equal(back.features, data.features)  # repr round trip
        assert np.array_equal(back.labels, data.labels)
        assert np.array_equal(back.domains, data.domains)
        assert back.label_names == data.label_names
        assert back.domain_names == data.domain_names

    def test_header_and_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "x1,x2,label,domain\n"
            "0.5,1.5,cat,lab\n"
            "2.5,3.5,dog,field\n"
            "4.5,5.5,cat,field\n"
        )
        data = ci.load_csv(path)
        assert data.n == 3
        assert data.label_names == {1: "cat", 2: "dog"}
        assert data.domain_names == {1: "field", 2: "lab"}
        assert data.features[0, 1] == 1.5

    def test_numeric_names_sort_numerically(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "x1,label,domain\n" "1.0,2,10\n" "2.0,10,2\n" "3.0,1,1\n"
        )
        data = ci.load_csv(path)
        assert data.label_names == {1: "1", 2: "2", 3: "10"}
        assert data.domain_names == {1: "1", 2: "2", 3: "10"}

    def test_selected_feature_columns(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "a,b,c,label,domain\n" "1,2,3,x,u\n" "4,5,6,y,v\n"
        )
        data = ci.load_csv(path, feature_columns=["c", "a"])
        assert data.n_features == 2
        assert np.array_equal(data.features, [[3.0, 1.0], [6.0, 4.0]])

    def test_duplicate_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,x1,label,domain\n1,2,a,b\n")
        with pytest.raises(DatasetError, match="duplicate"):
            ci.load_csv(path)

    def test_repeated_feature_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,x2,label,domain\n1,2,a,b\n")
        with pytest.raises(DatasetError, match=r"repeated: \['x1'\]"):
            ci.load_csv(path, feature_columns=["x1", "x2", "x1"])

    @pytest.mark.parametrize("delimiter", ["ab", "", None, 1])
    def test_bad_delimiter(self, tmp_path, delimiter):
        path = tmp_path / "t.csv"
        path.write_text("x1,label,domain\n1.0,a,b\n")
        for read in (ci.load_csv, load_features):
            with pytest.raises(DatasetError, match="bad delimiter"):
                read(path, delimiter=delimiter)
        out = tmp_path / "out.csv"
        with pytest.raises(DatasetError, match="bad delimiter"):
            save_csv(ci.load_csv(path), out, delimiter=delimiter)
        assert not out.exists()

    def test_missing_required_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,label\n1,a\n")
        with pytest.raises(DatasetError, match="'domain'"):
            ci.load_csv(path)

    def test_bad_value_names_line_and_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,label,domain\n1.0,a,b\noops,a,b\n")
        with pytest.raises(DatasetError, match="line 3, column 'x1'"):
            ci.load_csv(path)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,label,domain\n1.0,a\n")
        with pytest.raises(DatasetError, match="line 2"):
            ci.load_csv(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            ci.load_csv(tmp_path / "absent.csv")

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x1,label,domain\n1.0,a,b\n\n2.0,a,b\n")
        assert ci.load_csv(path).n == 2


class TestLoadFeatures:
    def test_reads_matrix(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("u,v\n1.0,2.0\n3.0,4.0\n")
        mat, header = load_features(path)
        assert header == ["u", "v"]
        assert np.array_equal(mat, [[1.0, 2.0], [3.0, 4.0]])

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "f.csv"
        path.write_text("u\nhello\n")
        with pytest.raises(DatasetError, match="line 2"):
            load_features(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "NaN"])
    def test_rejects_non_finite(self, tmp_path, cell):
        path = tmp_path / "f.csv"
        path.write_text(f"u,v\n1.0,2.0\n3.0,{cell}\n")
        with pytest.raises(DatasetError, match="line 3: non-finite"):
            load_features(path)


# --- malformed input raises DatasetError and nothing else ----------------------

GOOD_SPEC = {
    "version": 1,
    "seed": 11,
    "domains": {
        1: {1: {"x": [1.0, 0.3], "y": [2.0, 0.3], "count": 3},
            2: {"x": [2.0, 0.3], "y": [1.0, 0.3], "count": 2}},
        2: {1: {"x": [3.5, 0.3], "y": [2.5, 0.3], "count": 2}},
    },
}

def spec_or_none(tree):
    """spec_from_mapping on tree: the spec, or None on DatasetError; anything else raises."""
    try:
        return spec_from_mapping(tree)
    except DatasetError:
        return None


def is_integer(parsed, given) -> bool:
    """Whether parsed equals the tree's value given, which is no bool (True == 1)."""
    return parsed == given and not isinstance(given, bool)


class TestSpecFromMappingFuzz:
    @pytest.mark.parametrize("domains", [[1, 2], None, "12", 7])
    def test_non_mapping_domains(self, domains):
        with pytest.raises(DatasetError, match="domains"):
            spec_from_mapping({"domains": domains})

    def test_infinite_count_and_id(self):
        tree = copy.deepcopy(GOOD_SPEC)
        tree["domains"][1][1]["count"] = float("inf")
        with pytest.raises(DatasetError, match="domain 1 class 1"):
            spec_from_mapping(tree)
        tree = copy.deepcopy(GOOD_SPEC)
        tree["domains"][float("inf")] = tree["domains"].pop(2)
        with pytest.raises(DatasetError, match="integers"):
            spec_from_mapping(tree)

    @settings(max_examples=300, deadline=None)
    @given(yaml_nodes)
    def test_arbitrary_trees(self, tree):
        spec_or_none(tree)
        spec_or_none({"version": 1, "domains": tree})

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(paths(GOOD_SPEC)), yaml_nodes)
    @example(("seed",), 0.5)
    @example(("seed",), True)
    @example(("domains", 1, 1, "count"), 2.7)
    @example(("domains",), {1.5: {1: {"x": [1.0, 0.3], "y": [2.0, 0.3], "count": 3}}})
    def test_wrong_node_types(self, path, node):
        tree = copy.deepcopy(GOOD_SPEC)
        parent = functools.reduce(lambda branch, key: branch[key], path[:-1], tree)
        parent[path[-1]] = copy.deepcopy(node)
        spec = spec_or_none(tree)
        if spec is None:
            return
        # a seed, count or id that parsed holds the integer the tree gave
        assert is_integer(spec.seed, tree.get("seed", 0))
        for s, classes in tree["domains"].items():
            for j, cell in classes.items():
                assert (s, j) in spec.cells and not isinstance(s, bool) and not isinstance(j, bool)
                assert is_integer(spec.cells[(s, j)].count, cell["count"])

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_truncations(self, data):
        tree = copy.deepcopy(GOOD_SPEC)
        for path in data.draw(st.lists(st.sampled_from(paths(tree)), min_size=1, max_size=4)):
            try:
                parent = functools.reduce(lambda node, key: node[key], path[:-1], tree)
                del parent[path[-1]]
            except KeyError:
                pass  # an earlier deletion removed it already
        spec_or_none(tree)


@pytest.mark.parametrize(
    "load, error",
    [(ci.load_csv, DatasetError), (load_features, DatasetError), (ci.load_model, ci.SolverError)],
    ids=["load_csv", "load_features", "load_model"],
)
@pytest.mark.parametrize("where", ["directory", "nul"])
def test_unopenable_path_is_a_package_error(tmp_path, load, error, where):
    # opening a directory or a path with a NUL byte fails before any byte is read
    path = str(tmp_path) if where == "directory" else str(tmp_path / "a\0b")
    with pytest.raises(error, match="cannot|not a readable"):
        load(path)


@pytest.fixture(scope="module")
def saved_csv(tmp_path_factory):
    """Bytes of a saved labeled CSV with named classes, and a scratch path."""
    data = ci.generate_synthetic(
        spec_from_mapping(GOOD_SPEC)
    )
    path = tmp_path_factory.mktemp("fuzz") / "data.csv"
    save_csv(data, path)
    return path.read_bytes(), path


def csv_or_none(path, blob):
    """load_csv on blob: the dataset, or None on DatasetError; anything else raises."""
    path.write_bytes(blob)
    try:
        return ci.load_csv(path)
    except DatasetError:
        return None


class TestLoadCsvFuzz:
    def test_non_utf8_bytes(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(DatasetError, match="UTF-8"):
            ci.load_csv(path)
        with pytest.raises(DatasetError, match="UTF-8"):
            load_features(path)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_truncations(self, saved_csv, data):
        blob, path = saved_csv
        csv_or_none(path, blob[: data.draw(st.integers(0, len(blob) - 1))])

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_byte_flips(self, saved_csv, data):
        blob, path = saved_csv
        flips = data.draw(
            st.lists(st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 7)),
                     min_size=1, max_size=8)
        )
        out = bytearray(blob)
        for pos, bit in flips:
            out[pos] ^= 1 << bit
        csv_or_none(path, bytes(out))

    @settings(max_examples=200, deadline=None)
    @given(st.binary(max_size=64))
    def test_arbitrary_bytes(self, saved_csv, blob):
        csv_or_none(saved_csv[1], blob)
