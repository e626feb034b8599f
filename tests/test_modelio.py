"""Model file round trips and plane CSV export."""

import struct

import numpy as np
import pytest

from inkspread.core import QuantizationSpec, StainRadii
from inkspread.inference import infer_fuzzy, infer_many_fuzzy
from inkspread.model import IdsGroup, Model, Sample, train_full, train_merged
from inkspread.modelio import MAX_LEVELS, load_model, plane_to_csv, save_model

SPECS = [QuantizationSpec(1, 10, 19), QuantizationSpec(0, 5, 7)]
OUT = QuantizationSpec(1, 2, 2)
RADII = StainRadii(3.0, 1.5)


def build_model():
    samples = [Sample((1.5, 4.0), 2.0), Sample((3.0, 4.0), 1.0), Sample((7.2, 0.4), 1.4)]
    return train_full(samples, SPECS, OUT, RADII)


class TestRoundTrip:
    def test_structure_survives(self, tmp_path):
        model = build_model()
        path = tmp_path / "m.model"
        save_model(model, path)
        back = load_model(path)
        assert back.input_specs == model.input_specs
        assert back.output_spec == model.output_spec
        assert back.radii == model.radii
        assert len(back.groups) == len(model.groups)
        assert [len(g.stains) for g in back.groups] == [1, 1, 1]

    def test_round_trip_is_exact(self, tmp_path):
        model = build_model()
        path = tmp_path / "m.model"
        save_model(model, path)
        back = load_model(path)
        assert back.groups == model.groups
        for g in range(len(model.groups)):
            for j in range(model.n_inputs):
                assert np.array_equal(back.plane(g, j).grid, model.plane(g, j).grid)
        X = np.random.default_rng(3).uniform(0, 10, size=(50, 2))
        assert np.array_equal(infer_many_fuzzy(back, X), infer_many_fuzzy(model, X))
        # header, three specs, radii, three group sizes, three stains of three levels
        assert path.stat().st_size == 20 + 3 * 20 + 16 + 3 * 4 + 3 * 3 * 4

    def test_stored_output_levels_survive(self, tmp_path):
        rng = np.random.default_rng(2)
        specs = [QuantizationSpec(0, 10, 11)] * 2
        out = QuantizationSpec(0, 10, 11)
        samples = [Sample(tuple(rng.uniform(0, 10, 2)), float(rng.uniform(0, 10)))
                   for _ in range(30)]
        model = train_merged(samples, specs, out, StainRadii(2, 1))
        path = tmp_path / "merged.model"
        save_model(model, path)
        back = load_model(path)
        assert max(len(g.stains) for g in model.groups) > 1
        assert [g.stains for g in back.groups] == [g.stains for g in model.groups]

    def test_inference_unchanged_after_round_trip(self, tmp_path):
        model = build_model()
        path = tmp_path / "m.model"
        save_model(model, path)
        back = load_model(path)
        rng = np.random.default_rng(4)
        for _ in range(25):
            q = (float(rng.uniform(1, 10)), float(rng.uniform(0, 5)))
            a = infer_fuzzy(model, q).confidences
            b = infer_fuzzy(back, q).confidences
            assert np.allclose(a, b, atol=1e-7)

    def test_empty_group_list_round_trips(self, tmp_path):
        from inkspread.model import Model

        model = Model([], SPECS, OUT, RADII)
        path = tmp_path / "empty.model"
        save_model(model, path)
        back = load_model(path)
        assert back.groups == []


class TestValidation:
    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.model"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_unknown_version_rejected(self, tmp_path):
        model = build_model()
        path = tmp_path / "m.model"
        save_model(model, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        model = build_model()
        path = tmp_path / "m.model"
        save_model(model, path)
        path.write_bytes(path.read_bytes() + b"\x00\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_model(path)

    def test_truncated_file_rejected(self, tmp_path):
        model = build_model()
        path = tmp_path / "m.model"
        save_model(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 10])
        with pytest.raises(ValueError):
            load_model(path)

    def test_every_truncation_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(build_model(), path)
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(ValueError):
                load_model(path)

    def test_header_counts_checked_against_length(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(build_model(), path)
        raw = bytearray(path.read_bytes())
        for field_offset in (8, 12, 16):  # n_inputs, n_groups, n_stains
            bad = bytearray(raw)
            struct.pack_into("<I", bad, field_offset, 2 ** 32 - 1)
            path.write_bytes(bytes(bad))
            with pytest.raises(ValueError, match="truncated"):
                load_model(path)

    def test_level_counts_are_bounded(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(build_model(), path)
        raw = path.read_bytes()
        # the levels field of the output spec, then of the first input spec
        for levels_offset in (20 + 16, 20 + 20 + 16):
            for levels in (MAX_LEVELS + 1, 2 ** 32 - 1):
                bad = bytearray(raw)
                struct.pack_into("<I", bad, levels_offset, levels)
                path.write_bytes(bytes(bad))
                with pytest.raises(ValueError, match="exceeds"):
                    load_model(path)

    def test_saving_too_many_levels_rejected(self, tmp_path):
        wide = QuantizationSpec(0, 1, MAX_LEVELS + 1)
        model = train_full([Sample((0.5, 4.0), 1.5)], [wide, SPECS[1]], OUT, RADII)
        with pytest.raises(ValueError, match="exceeds"):
            save_model(model, tmp_path / "m.model")
        assert not (tmp_path / "m.model").exists()

    def test_group_sizes_must_add_up(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(build_model(), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 20 + 3 * 20 + 16, 2)  # first group claims two stains
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="add up"):
            load_model(path)

    def _write(self, path, groups):
        model = Model([], SPECS, OUT, RADII)
        model.groups = groups  # bypasses the level checks, as a corrupt file would
        save_model(model, path)

    def test_out_of_range_levels_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        for c_in, c_out in (((0, 3), 1), ((20, 3), 1), ((1, 8), 1), ((1, 3), 3), ((1, 3), 0)):
            self._write(path, [IdsGroup([(c_in, c_out)])])
            with pytest.raises(ValueError, match="outside"):
                load_model(path)

    def test_repeated_output_level_in_a_group_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        self._write(path, [IdsGroup([((1, 3), 2)])])
        raw = bytearray(path.read_bytes())
        good = load_model(path)
        assert good.groups == [IdsGroup([((1, 3), 2)])]
        # widen the one group to two copies of its stain
        head = 20 + 3 * 20 + 16
        struct.pack_into("<II", raw, 12, 1, 2)
        struct.pack_into("<I", raw, head, 2)
        raw += raw[head + 4:]
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="repeat"):
            load_model(path)

    def test_version_one_file_rejected(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(build_model(), path)
        raw = bytearray(path.read_bytes())
        raw[4] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version 1"):
            load_model(path)


class TestPlaneCsv:
    def test_dimensions_transposed_for_plotting(self, tmp_path):
        model = build_model()
        path = tmp_path / "plane.csv"
        plane_to_csv(model.plane(0, 0), path)
        data = np.loadtxt(path, delimiter=",")
        assert data.shape == (OUT.levels, SPECS[0].levels)
        assert np.allclose(data, model.plane(0, 0).grid.T, atol=1e-7)

    def test_apex_cell_is_one(self, tmp_path):
        model = build_model()
        path = tmp_path / "plane.csv"
        plane_to_csv(model.plane(0, 0), path)
        data = np.loadtxt(path, delimiter=",")
        assert data.max() == 1.0
