"""Checkpoints (bit-exact round trips, versioning) and run reports
(schema, CSV/JSON value parity)."""

import binascii
import json
import re
import tempfile
import types
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import DAMAGE, checkpoint_document, damaged_checkpoints, report_record, stored_values
from aqvq.cli import cli_main
from aqvq.data import DatasetSource
from aqvq.errors import CheckpointError, ConfigError, ContractError, FormatError
from aqvq.model import ModelConfig, evaluate, init_state, train_step
from aqvq import persist, vq
from aqvq.persist import (
    RunReport,
    config_hash,
    load_checkpoint,
    read_checkpoint,
    resolve_run_config,
    save_checkpoint,
    write_json,
)

RNG = np.random.default_rng


def trained_state(quantizer="fixed", use_ema=True, steps=5, seed=0, precision="double"):
    cfg = ModelConfig(input_shape=(6,), num_hiddens=8, quantizer=quantizer,
                      codebook_n=8, codebook_d=2, capacity=8, use_ema=use_ema,
                      learning_rate=1e-3, seed=seed, precision=precision)
    state = init_state(cfg)
    rng = RNG(seed)
    for _ in range(steps):
        train_step(rng.normal(size=(8, 6)), state, rng=rng)
    return state


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("quantizer,use_ema", [
        ("fixed", True), ("fixed", False), ("adaptive", True), ("none", True),
    ])
    def test_bit_exact_state(self, tmp_path, quantizer, use_ema):
        state = trained_state(quantizer=quantizer, use_ema=use_ema)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.step == state.step and loaded.adam_t == state.adam_t
        for name, p in state.params.items():
            assert np.array_equal(loaded.params[name].data, p.data), name
        for a, b in zip(state.codebooks, loaded.codebooks):
            assert np.array_equal(a.embeddings.data, b.embeddings.data)
            assert np.array_equal(a.ema_cluster_size, b.ema_cluster_size)
            assert np.array_equal(a.ema_embed_sum, b.ema_embed_sum)
        for ours, theirs in zip(loaded.arena, state.arena):
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)

    def test_evaluate_identical_after_reload(self, tmp_path):
        state = trained_state(quantizer="adaptive")
        data = RNG(1).normal(size=(32, 6))
        before = evaluate(data, state)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        after = evaluate(data, load_checkpoint(path))
        assert before == after

    def test_double_save_byte_identical(self, tmp_path):
        state = trained_state()
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        save_checkpoint(state, first)
        save_checkpoint(load_checkpoint(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_search_never_changes_saved_state(self, tmp_path, monkeypatch):
        # an 8-element tile puts every codebook over several tiles, so [64,1]
        # takes the sorted search and keeps its sort order on the codebook;
        # that order is derived, so neither it nor a search may reach the file
        monkeypatch.setattr(vq, "TILE_ELEMENTS", 8)
        cfg = ModelConfig(input_shape=(6,), num_hiddens=8, quantizer="adaptive",
                          capacity=64, use_ema=True, learning_rate=1e-3, seed=0)
        state = init_state(cfg)
        rng = RNG(0)
        for _ in range(3):
            train_step(rng.normal(size=(8, 6)), state, rng=rng)
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_checkpoint(state, first)
        saved = [(cb.embeddings.data.tobytes(), cb.ema_cluster_size.tobytes(),
                  cb.ema_embed_sum.tobytes()) for cb in state.codebooks]
        data = RNG(1).normal(size=(32, 6))
        before = evaluate(data, state)
        for cb in state.codebooks:
            vq.nearest_indices(RNG(2).normal(size=(16, cb.d)), cb)
        assert [cb.sort_order is not None for cb in state.codebooks] == [
            cb.d == 1 for cb in state.codebooks]
        assert saved == [(cb.embeddings.data.tobytes(), cb.ema_cluster_size.tobytes(),
                          cb.ema_embed_sum.tobytes()) for cb in state.codebooks]
        save_checkpoint(state, second)
        assert first.read_bytes() == second.read_bytes()
        loaded = load_checkpoint(second)
        assert all(cb.sort_order is None for cb in loaded.codebooks)
        assert evaluate(data, loaded) == evaluate(data, state) == before

    def test_format_version_first_key(self, tmp_path):
        state = trained_state()
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        doc = json.loads(path.read_text())
        assert next(iter(doc)) == "format_version"

    def test_loaded_arrays_are_those_init_state_allocated(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.json"
        save_checkpoint(trained_state(quantizer="adaptive"), path)
        allocated = []
        build = persist._build_state

        def capture(config, rng):
            state = build(config, rng)
            allocated.append(persist._state_arrays(state))
            # the load overwrites every drawn array, so it draws nothing: zeros
            assert not any(arr.any() for name, arr in allocated[-1].items()
                           if not name.endswith("ema_cluster_size"))
            return state

        monkeypatch.setattr(persist, "_build_state", capture)
        loaded = load_checkpoint(path)
        (before,) = allocated
        after = persist._state_arrays(loaded)
        assert list(after) == list(before)
        assert all(after[name] is arr for name, arr in before.items())
        # Adam updates the arena, so each parameter must still be a view of
        # its first array, and the moments must be the other two
        flat, m, v = loaded.arena
        viewed = [name for name in after if name.startswith("params[")]
        assert len(viewed) == len(loaded.params)
        assert all(np.shares_memory(after[name], flat) for name in viewed)
        assert after["adam_m"] is m and after["adam_v"] is v

    def test_training_continues_after_reload(self, tmp_path):
        state = trained_state(steps=3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        metrics = train_step(RNG(2).normal(size=(8, 6)), loaded)
        assert metrics["step"] == 4

    def test_dataset_recipe_round_trip(self, tmp_path):
        state = trained_state()
        src = DatasetSource(clusters=3, samples=64, seed=9)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path, dataset=src)
        loaded, recipe = read_checkpoint(path)
        assert recipe == src
        save_checkpoint(loaded, tmp_path / "bare.json")
        assert read_checkpoint(tmp_path / "bare.json")[1] is None


# A recipe whose one string holds the payload's key and the empty string the
# save splits its document at, a quote, a backslash and a non-ASCII character.
AWKWARD_RECIPE = DatasetSource(kind="idx_images",
                               images_path='dir/"payload": "" \\ \u00e9.idx')


class TestStreamedSave:
    @pytest.mark.parametrize("dataset", [None, DatasetSource(clusters=3, seed=9),
                                         AWKWARD_RECIPE], ids=["bare", "recipe", "awkward"])
    @pytest.mark.parametrize("precision", ["double", "single"])
    @pytest.mark.parametrize("quantizer,use_ema", [
        ("fixed", True), ("fixed", False), ("adaptive", True), ("none", True),
    ])
    def test_bytes_equal_write_json_of_whole_document(self, tmp_path, quantizer, use_ema,
                                                      precision, dataset):
        state = trained_state(quantizer=quantizer, use_ema=use_ema, precision=precision)
        save_checkpoint(state, tmp_path / "saved.json", dataset=dataset)
        write_json(tmp_path / "oracle.json", checkpoint_document(state, dataset))
        assert (tmp_path / "saved.json").read_bytes() == (tmp_path / "oracle.json").read_bytes()

    def test_awkward_recipe_round_trips(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(trained_state(), path, dataset=AWKWARD_RECIPE)
        assert read_checkpoint(path)[1] == AWKWARD_RECIPE

    def test_failed_write_leaves_the_old_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "ckpt.json"
        save_checkpoint(trained_state(steps=1), path)
        old = path.read_bytes()
        calls = []

        def fail_on_third(arr):
            calls.append(arr)
            return binascii.b2a_hex(arr) if len(calls) < 3 else binascii.b2a_hex(arr).decode()

        monkeypatch.setattr(persist, "binascii", types.SimpleNamespace(b2a_hex=fail_on_third))
        with pytest.raises(TypeError):
            save_checkpoint(trained_state(steps=2), path)
        assert len(calls) == 3
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]

    @pytest.mark.parametrize("layout", ["big-endian", "fortran-order"])
    def test_layout_of_an_array_does_not_change_the_payload(self, tmp_path, monkeypatch, layout):
        """The payload holds each array's C-order little-endian bytes,
        whatever the byte order and memory layout of the array saved."""
        state = trained_state(quantizer="adaptive")
        save_checkpoint(state, tmp_path / "native.json")
        state_arrays = persist._state_arrays
        relaid = {"big-endian": lambda arr: arr.astype(arr.dtype.newbyteorder(">")),
                  "fortran-order": lambda arr: np.asfortranarray(arr)}[layout]
        monkeypatch.setattr(persist, "_state_arrays",
                            lambda s: {k: relaid(v) for k, v in state_arrays(s).items()})
        save_checkpoint(state, tmp_path / "relaid.json")
        payload = json.loads((tmp_path / "native.json").read_text())["payload"]
        assert json.loads((tmp_path / "relaid.json").read_text())["payload"] == payload


# Bit patterns a checkpoint must carry unchanged: -0.0, the smallest and
# largest subnormals, +-inf, and NaNs with distinct signs and payloads (quiet
# and signalling).
SPECIAL_BITS = {
    np.float64: [0x8000000000000000, 0x1, 0x000FFFFFFFFFFFFF, 0x7FF0000000000000,
                 0xFFF0000000000000, 0x7FF8000000000000, 0x7FF0000000000001,
                 0xFFF8000000000123, 0x7FFDEADBEEF00000],
    np.float32: [0x80000000, 0x1, 0x007FFFFF, 0x7F800000, 0xFF800000, 0x7FC00000,
                 0x7F800001, 0xFFC00123, 0x7FBEEF00],
}


class TestBitExactRoundTrip:
    @settings(deadline=None, max_examples=40)
    @given(data=st.data(), precision=st.sampled_from(["double", "single"]),
           empty_at=st.integers(0, 10 ** 3))
    def test_save_load_save(self, data, precision, empty_at):
        """A model's arrays filled with arbitrary bit patterns, the special
        ones oversampled, and one zero-size array among them: save then load
        gives the same bytes, a double save is byte-identical, and load then
        save gives the same file."""
        state = trained_state(quantizer="adaptive", precision=precision, steps=1)
        for arr in persist._state_arrays(state).values():
            uint = np.dtype(f"uint{8 * arr.itemsize}")
            special = SPECIAL_BITS[arr.dtype.type]
            elements = st.sampled_from(special) | st.integers(0, 2 ** (8 * arr.itemsize) - 1)
            arr.view(uint)[...] = data.draw(hnp.arrays(uint, arr.shape, elements=elements))
        state_arrays = persist._state_arrays

        def with_empty(s):
            items = list(state_arrays(s).items())
            at = empty_at % (len(items) + 1)
            return dict(items[:at] + [("empty", np.zeros((0, 3), items[0][1].dtype))] + items[at:])

        with tempfile.TemporaryDirectory() as directory, \
                mock.patch.object(persist, "_state_arrays", with_empty):
            first, second, third = (Path(directory) / name for name in ("1", "2", "3"))
            save_checkpoint(state, first)
            save_checkpoint(state, second)
            loaded = load_checkpoint(first)
            save_checkpoint(loaded, third)
            assert stored_bytes(loaded) == stored_bytes(state)
            assert (loaded.step, loaded.adam_t) == (state.step, state.adam_t)
            assert first.read_bytes() == second.read_bytes() == third.read_bytes()


class TestCheckpointErrors:
    def test_version_mismatch(self, tmp_path):
        state = trained_state()
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        doc = json.loads(path.read_text())
        doc["format_version"] = 0
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "0" in str(err.value)

    def test_corrupt_document_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format_version": 1, "config": ')
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert "line" in str(err.value)

    def test_missing_field(self, tmp_path):
        state = trained_state()
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        doc = json.loads(path.read_text())
        del doc["adam_t"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


    def test_param_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(trained_state(), path)
        doc = json.loads(path.read_text())
        doc["arrays"]["params[enc.w1]"]["shape"] = [2, 2]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=r"params\[enc.w1\] does not have"):
            load_checkpoint(path)

    @pytest.mark.parametrize("payload", [5, "*" * 12, "AAAA\u00e9AAA", "AAAAAAAAAAA="],
                             ids=["not-a-string", "not-hex", "not-ascii", "base64"])
    def test_bad_payload_names_entry(self, tmp_path, payload):
        """A payload not made of hex digits is rejected naming the entry its
        bad digit falls in (a payload that is no string: none at all)."""
        path = tmp_path / "ckpt.json"
        save_checkpoint(trained_state(), path)
        doc = json.loads(path.read_text())
        at = len(doc["payload"]) - 24  # in the last array's hex
        name = list(doc["arrays"])[-1]
        if isinstance(payload, str):
            payload = doc["payload"][:at] + payload + doc["payload"][at + len(payload):]
        doc["payload"] = payload
        path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        message = ('no "payload" string' if payload == 5
                   else rf"{re.escape(name)} has a bad payload")
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(path)

    def test_unknown_adam_key_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(trained_state(), path)
        doc = json.loads(path.read_text())
        doc["arrays"]["adam_m[bogus]"] = doc["arrays"]["params[enc.w1]"]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "bogus" in str(err.value)

    def test_parameter_table_must_be_an_object(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(trained_state(), path)
        doc = json.loads(path.read_text())
        doc["arrays"] = list(doc["arrays"].values())
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "enc.w1" in str(err.value)

    def test_codebook_dtype_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(trained_state(quantizer="adaptive"), path)
        doc = json.loads(path.read_text())
        doc["arrays"]["codebooks[1].ema_embed_sum"]["dtype"] = "float32"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as err:
            load_checkpoint(path)
        assert "codebooks[1].ema_embed_sum" in str(err.value)

    @pytest.mark.parametrize("where", [[], ["config"]], ids=["top-level", "config"])
    def test_unknown_key_rejected(self, tmp_path, where):
        path = tmp_path / "ckpt.json"
        save_checkpoint(trained_state(), path, dataset=DatasetSource(seed=4))
        doc = json.loads(path.read_text())
        node = doc
        for key in where:
            node = node[key]
        node["surprise"] = {"x": 1}
        doc["payload"] = doc.pop("payload")  # the payload stays the last value
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="surprise"):
            read_checkpoint(path)

    def test_null_dataset_loads(self, tmp_path):
        path = tmp_path / "ckpt.json"
        save_checkpoint(trained_state(), path)
        assert json.loads(path.read_text())["config"]["dataset"] is None
        assert read_checkpoint(path)[1] is None


def saved_bytes(tmp_path) -> bytes:
    """The bytes of an adaptive model's checkpoint: many arrays, one recipe."""
    save_checkpoint(trained_state(quantizer="adaptive"), tmp_path / "ckpt.json",
                    dataset=DatasetSource(clusters=3, seed=9))
    return (tmp_path / "ckpt.json").read_bytes()


def stored_bytes(state) -> dict:
    return {name: arr.tobytes() for name, arr in persist._state_arrays(state).items()}


class TestStreamedReader:
    """The reader parses only the JSON before the payload and streams the
    payload into the state; any JSON text of the document loads the same."""

    @pytest.mark.parametrize("dump", [
        lambda doc: json.dumps(doc),
        lambda doc: json.dumps(doc, separators=(",", ":")),
        lambda doc: json.dumps(doc, indent="\t", separators=(" ,\n", "\r\n :\t")),
    ], ids=["compact", "no-spaces", "odd-whitespace"])
    def test_any_layout_loads_bit_exact(self, tmp_path, dump):
        data = saved_bytes(tmp_path)
        (tmp_path / "relaid.json").write_text(dump(json.loads(data)))
        expected, recipe = read_checkpoint(tmp_path / "ckpt.json")
        loaded, again = read_checkpoint(tmp_path / "relaid.json")
        assert stored_bytes(loaded) == stored_bytes(expected) and again == recipe

    @pytest.mark.parametrize("at", [0, 1, 8, 9, 10, 15, 16, 17])
    def test_payload_key_across_a_chunk_boundary_is_found(self, tmp_path, monkeypatch, at):
        """A read chunk that ends inside the payload's key, or in the
        whitespace after it, does not hide the key."""
        data = saved_bytes(tmp_path)
        key = data.index(b'"payload"')
        data = data[:key + 9] + b" \n\t " + data[key + 9:]  # "payload" \n\t : "
        (tmp_path / "spaced.json").write_bytes(data)
        monkeypatch.setattr(persist, "READ_CHUNK", key + at)
        loaded, _ = read_checkpoint(tmp_path / "spaced.json")
        assert stored_bytes(loaded) == stored_bytes(read_checkpoint(tmp_path / "ckpt.json")[0])

    @pytest.mark.parametrize("case", DAMAGE)
    def test_damaged_file_is_rejected_naming_the_damage(self, tmp_path, case):
        text, message = damaged_checkpoints(saved_bytes(tmp_path))[case]
        (tmp_path / "damaged.json").write_bytes(text)
        with pytest.raises(CheckpointError, match=message):
            load_checkpoint(tmp_path / "damaged.json")

    @pytest.mark.parametrize("k", [0, 5, -1], ids=["first", "middle", "last"])
    def test_escaped_payload_names_entry(self, tmp_path, capsys, k):
        """A payload digit written with a JSON escape, which
        ``save_checkpoint`` never writes, fails hex decoding in the array it
        falls in; resuming from it exits 1 with one line."""
        data = saved_bytes(tmp_path)
        doc = json.loads(data)
        name = list(doc["arrays"])[k]
        at = data.index(b'"payload": "') + len(b'"payload": "')
        for before, values in stored_values(doc).items():
            if before == name:
                break
            at += 2 * values.nbytes
        escaped = data[:at] + b"\\u%04x" % data[at] + data[at + 1:]
        (tmp_path / "escaped.json").write_bytes(escaped)
        with pytest.raises(CheckpointError, match=rf"{re.escape(name)} has a bad payload"):
            load_checkpoint(tmp_path / "escaped.json")
        (tmp_path / "config.json").write_text(json.dumps({"train": {"steps": 2}}))
        out = tmp_path / "out"
        assert cli_main(["train", "--config", str(tmp_path / "config.json"), "--resume",
                         str(tmp_path / "escaped.json"), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.strip().splitlines()) == 1
        assert name in err and list(out.glob("*")) == []

    @pytest.mark.parametrize("raw", [b"\xc3\xa9", b"\xff", b"\x01", b"\n"],
                             ids=["non-ascii", "not-utf8", "control", "line-break"])
    def test_raw_byte_in_payload_names_entry(self, tmp_path, raw):
        data = saved_bytes(tmp_path)
        at = data.index(b'"payload": "') + len(b'"payload": "') + 4
        (tmp_path / "bad.json").write_bytes(data[:at] + raw + data[at:])
        name = list(json.loads(data)["arrays"])[0]
        with pytest.raises(CheckpointError, match=rf"{re.escape(name)} has a bad payload"):
            load_checkpoint(tmp_path / "bad.json")

    @pytest.mark.parametrize("layout", ["indented", "compact"])
    @pytest.mark.parametrize("cut", ["not-utf8-outside", "bad-token"])
    def test_malformed_file_reported_where_the_file_has_it(self, tmp_path, layout, cut):
        data = saved_bytes(tmp_path)
        if layout == "compact":
            data = json.dumps(json.loads(data)).encode()
        at = data.rindex(b'"dtype"')  # in the last stored entry, before the payload
        broken = {"not-utf8-outside": data.replace(b'"float64"', b'"float\xff64"', 1),
                  "bad-token": data[:at] + b"dtype" + data[at + len(b'"dtype"'):]}[cut]
        path = tmp_path / "broken.json"
        path.write_bytes(broken)
        with pytest.raises(FormatError) as expected:
            persist.read_json(path, "checkpoint")
        with pytest.raises(FormatError) as err:
            load_checkpoint(path)
        assert str(err.value) == str(expected.value)
        assert ("not UTF-8" if cut == "not-utf8-outside" else " line ") in str(err.value)


class TestResolvedConfig:
    def test_defaults_expanded(self):
        resolved = resolve_run_config({})
        assert resolved["model"]["alpha"] == 0.25
        assert resolved["dataset"]["kind"] == "synthetic_gaussian_mixture"
        assert resolved["train"]["steps"] == 2000

    def test_overrides_respected(self):
        resolved = resolve_run_config({"model": {"num_hiddens": 4},
                                       "train": {"steps": 10}})
        assert resolved["model"]["num_hiddens"] == 4
        assert resolved["train"]["steps"] == 10

    def test_unknown_sections_rejected(self):
        with pytest.raises(ConfigError):
            resolve_run_config({"optimizer": {}})
        with pytest.raises(ConfigError):
            resolve_run_config({"train": {"warmup": 5}})
        with pytest.raises(ConfigError):
            resolve_run_config({"model": {"depth": 3}})

    def test_hash_stable_and_sensitive(self):
        a = resolve_run_config({"model": {"seed": 1}})
        b = resolve_run_config({"model": {"seed": 1}})
        c = resolve_run_config({"model": {"seed": 2}})
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)


class TestRunReport:
    def make_report(self):
        report = RunReport()
        report.add_record(1, recon=0.5, vq=0.1, gap=None, temperature=3.0, usage=[2, 1, 0])
        report.add_record(2, recon=0.4, vq=0.09, gap=0.033, temperature=2.0, usage=[1, 1, 1])
        report.set_summary(final_val_recon_sum=1.25, final_val_recon_mean=0.625,
                           wall_time=0.8, config_hash="abc")
        return report

    def test_steps_strictly_increasing(self):
        report = self.make_report()
        with pytest.raises(ContractError):
            report.add_record(2, recon=0.3, vq=0.05)

    @pytest.mark.parametrize("records,message", [
        ([report_record(1, usage=[1, 2]), report_record(2, usage=[1, 2, 3])], "usage widths"),
        ([report_record(2), report_record(2)], "steps must increase"),
        ([report_record(1, loss=0.6)], "loss"),
        ([report_record(1, usage=[[1, 2]])], "list"),
        ([report_record(1, usage="12")], "str"),
        ([report_record(1.5)], "float"),
        ([report_record(1, recon="x")], "x"),
        ([report_record(1, recon=10 ** 400)], "too large"),
        ([{"step": 1, "recon": 0.5}], "vq"),
        ([list(report_record(1).values())], "mapping"),
    ], ids=["mixed-usage-widths", "repeated-step", "unknown-key", "nested-usage",
            "usage-string", "fractional-step", "recon-string", "recon-overflows",
            "missing-key", "record-list"])
    def test_from_json_rejects_what_add_record_rejects(self, tmp_path, records, message):
        path = tmp_path / "report.json"
        path.write_text(json.dumps({"records": records, "summary": {}}))
        with pytest.raises(FormatError) as err:
            RunReport.from_json(path)
        assert str(err.value).startswith(f"{path}: ") and message in str(err.value)

    def test_mixed_usage_widths_rejected_on_add(self):
        report = self.make_report()
        with pytest.raises(ContractError):
            report.add_record(3, recon=0.3, vq=0.05, usage=[1, 1])

    def test_json_round_trip(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        report.to_json(path)
        again = RunReport.from_json(path)
        assert again.records == report.records
        assert again.summary == report.summary

    def test_csv_header_schema(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.csv"
        report.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "step,recon,vq,gap,temperature,usage_0,usage_1,usage_2"

    def test_csv_and_json_values_identical(self, tmp_path):
        report = self.make_report()
        csv_path = tmp_path / "report.csv"
        json_path = tmp_path / "report.json"
        report.to_csv(csv_path)
        report.to_json(json_path)
        json_records = json.loads(json_path.read_text())["records"]
        lines = csv_path.read_text().splitlines()
        header = lines[0].split(",")
        for line, rec in zip(lines[1:], json_records):
            cells = dict(zip(header, line.split(",")))
            assert int(cells["step"]) == rec["step"]
            assert float(cells["recon"]) == rec["recon"]
            assert float(cells["vq"]) == rec["vq"]
            gap = None if cells["gap"] == "" else float(cells["gap"])
            assert gap == rec["gap"]
            usage = [int(cells[f"usage_{i}"]) for i in range(3)]
            assert usage == rec["usage"]

    def test_failed_write_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(path, {"kept": 1})
        old = path.read_bytes()
        with pytest.raises(TypeError):
            write_json(path, {"a": list(range(10000)), "b": object()})
        assert path.read_bytes() == old
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_fixed_mode_report_has_no_usage_columns(self, tmp_path):
        report = RunReport()
        report.add_record(1, recon=0.5, vq=0.1)
        path = tmp_path / "report.csv"
        report.to_csv(path)
        assert path.read_text().splitlines()[0] == "step,recon,vq,gap,temperature"
