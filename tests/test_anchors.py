"""Language-anchor table: embedding file parsing, projection, freezing."""

import re

import numpy as np
import pytest

from scenehull.anchors import AnchorTable, load_embeddings, read_embedding_file
from scenehull.toydata import write_embeddings


def write_file(path, vectors):
    write_embeddings(path, vectors)
    return path


class TestLoadEmbeddings:
    def test_basic(self, tmp_path):
        path = write_file(tmp_path / "emb.txt", {
            "chair": [1.0, 2.0, 3.0],
            "table": [4.0, 5.0, 6.0],
        })
        table = load_embeddings(path, ["chair", "table"])
        assert table.num_classes == 2
        assert table.embedding_dim == 3
        np.testing.assert_array_equal(table.embeddings[0], [1, 2, 3])

    def test_missing_token(self, tmp_path):
        path = write_file(tmp_path / "emb.txt", {"chair": [1.0, 2.0]})
        message = f"class 'bookshelf': token 'bookshelf' not in {path}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_embeddings(path, ["chair", "bookshelf"])

    def test_multi_token_name_averaged(self, tmp_path):
        night = np.array([1.0, 3.0, -2.0])
        stand = np.array([5.0, -1.0, 4.0])
        path = write_file(tmp_path / "emb.txt", {"night": night, "stand": stand})
        table = load_embeddings(path, ["night stand"])
        np.testing.assert_allclose(table.embeddings[0], (night + stand) / 2.0, atol=1e-15)

    def test_underscore_name(self, tmp_path):
        path = write_file(tmp_path / "emb.txt", {"night": [1.0], "stand": [2.0]})
        table = load_embeddings(path, ["night_stand"])
        np.testing.assert_allclose(table.embeddings[0], [1.5])

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "emb.txt"
        path.write_text("chair 1 2 3\ntable 4 5\n")
        message = f"{path} line 2: embedding dimension is not the 3 of line 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_embeddings(path, ["chair", "table"])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-Infinity", "1e500"])
    def test_non_finite_value_names_the_file_and_line(self, tmp_path, bad):
        # a nan vector once made every zero-shot probability nan
        path = tmp_path / "emb.txt"
        path.write_text(f"chair 1 2 3\n\ntable 4 {bad} 6\n")
        message = f"{path} line 3: embedding not finite: '4 {bad} 6'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_embeddings(path, ["chair", "table"])

    @pytest.mark.parametrize("row, message", [
        ("table", "empty embedding vector"), ("table 4 x 6", "bad embedding row '4 x 6'")])
    def test_bad_row_names_the_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "emb.txt"
        path.write_text(f"chair 1 2 3\nsofa x\n{row}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path} line 3: {message}')}$"):
            load_embeddings(path, ["chair", "table"])

    def test_only_wanted_rows_parsed_first_wins(self, tmp_path):
        # rows of other tokens are never parsed, nor a second row of a token
        path = tmp_path / "emb.txt"
        path.write_text("sofa x y\nChair\t1 2\u20283\nchair nan\ntable 4 5 6 \nlamp\n")
        vectors = read_embedding_file(path, {"chair", "table"})
        assert list(vectors) == ["chair", "table"]
        np.testing.assert_array_equal(vectors["chair"], [1, 2, 3])
        np.testing.assert_array_equal(vectors["table"], [4, 5, 6])

    def test_identity_projection_when_dims_match(self, tmp_path):
        path = write_file(tmp_path / "emb.txt", {"a": [1.0, 2.0], "b": [3.0, 4.0]})
        table = load_embeddings(path, ["a", "b"], feature_dim=2)
        np.testing.assert_array_equal(table.w_proj, np.eye(2))
        np.testing.assert_array_equal(table.anchor(0), [1.0, 2.0])


class TestAnchor:
    def make_table(self, c=3, e=50, d=96, seed=0):
        rng = np.random.default_rng(seed)
        return AnchorTable(
            [f"class{i}" for i in range(c)],
            rng.normal(size=(c, e)),
            rng.normal(size=(e, d)),
        )

    def test_zero_projection_zero_anchor(self):
        table = self.make_table()
        table.w_proj[:] = 0.0
        for c in range(table.num_classes):
            np.testing.assert_array_equal(table.anchor(c), np.zeros(96))

    def test_matches_independent_matvec(self):
        table = self.make_table(seed=1)
        for c in range(table.num_classes):
            expected = table.w_proj.T @ table.embeddings[c]
            np.testing.assert_allclose(table.anchor(c), expected, atol=1e-12)

    def test_out_of_range(self):
        table = self.make_table()
        with pytest.raises(IndexError):
            table.anchor(3)
        with pytest.raises(IndexError):
            table.anchor(-1)

    def test_projection_edit_immediately_visible(self):
        table = self.make_table(seed=2)
        before = table.anchor(0).copy()
        table.w_proj *= 2.0
        np.testing.assert_allclose(table.anchor(0), 2.0 * before, atol=1e-12)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_grads_keyed_and_shaped_like_parameters(self, normalize, dtype):
        rng = np.random.default_rng(3)
        table = AnchorTable(["a", "b", "c"], rng.normal(size=(3, 5)),
                            rng.normal(size=(5, 4)).astype(dtype), normalize=normalize)
        grads = table.backward(np.ones((3, 4), dtype=dtype))
        params = table.parameters()
        assert set(grads) == set(params)
        for name, p in params.items():
            assert grads[name].shape == p.shape and grads[name].dtype == p.dtype, name


class TestFreezing:
    def test_embeddings_read_only(self):
        table = AnchorTable(["a"], np.ones((1, 4)), np.eye(4))
        with pytest.raises(ValueError):
            table.embeddings[0, 0] = 2.0

    def test_embeddings_bit_identical_after_training_step(self):
        from scenehull.objective import Adam, contrastive_loss

        rng = np.random.default_rng(3)
        table = AnchorTable(["a", "b"], rng.normal(size=(2, 4)), rng.normal(size=(4, 6)))
        frozen = table.embeddings.copy()
        anchor_before = table.anchor(0).copy()
        feats = rng.normal(size=(10, 6))
        labels = rng.integers(0, 2, 10)
        opt = Adam(table.parameters(), lr=0.1)
        for _ in range(5):
            opt.step(contrastive_loss(feats, labels, table)[2])
        np.testing.assert_array_equal(table.embeddings, frozen)
        # the projection did train: anchors moved, raw embeddings did not
        assert not np.array_equal(table.anchor(0), anchor_before)


class TestZeroShotExtension:
    def test_add_class_keeps_existing_anchors(self):
        rng = np.random.default_rng(4)
        table = AnchorTable(["a", "b"], rng.normal(size=(2, 5)), rng.normal(size=(5, 7)))
        before = table.matrix().copy()
        new_id = table.add_class("c", rng.normal(size=5))
        assert new_id == 2
        after = table.matrix()
        assert after.shape == (3, 7)
        np.testing.assert_array_equal(after[:2], before)

    def test_duplicate_name_rejected(self):
        table = AnchorTable(["a"], np.ones((1, 3)), np.eye(3))
        with pytest.raises(ValueError):
            table.add_class("a", np.zeros(3))

    def test_wrong_dim_rejected(self):
        table = AnchorTable(["a"], np.ones((1, 3)), np.eye(3))
        with pytest.raises(ValueError):
            table.add_class("b", np.zeros(4))


class TestNormalcyFlag:
    def test_cosine_mode_unit_anchors(self):
        rng = np.random.default_rng(5)
        table = AnchorTable(["a", "b"], rng.normal(size=(2, 4)), rng.normal(size=(4, 6)),
                            normalize=True)
        norms = np.linalg.norm(table.matrix(), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
