"""Checkpoints, run reports, and resolved run configurations.

Checkpoints (format 5) are JSON documents: the config, ``step``,
``adam_t``, an ``arrays`` map from each array's name to its shape and
dtype (the Adam moments are two entries, ``adam_m`` and ``adam_v``, each
a whole arena array), and last one ``payload`` string, the lowercase hex
of every array's C-order little-endian bytes in ``arrays`` order. Save/load
round-trips are bit-exact on any host and a double save is
byte-identical; files of earlier formats are rejected by their version
number. A checkpoint is written as the indented JSON of its document up
to the payload's opening quote, then each array's hex as it is (hex needs
no escaping), and it replaces its target atomically. The reader streams
the file, opened with ``data.open_input`` like every input file: it
parses only the text before the payload, with ``_parse_json`` like every
JSON input (a repeated key is an error), builds the state with
``init_state``'s constructors from a stand-in generator that draws zeros,
since every drawn array is then overwritten, and decodes each stored
entry's share of the payload straight into the array of its name.

Run reports collect per-step metrics and a summary; they serialize to
JSON and to plot-ready CSV with identical values, and ``from_json``
rebuilds one through ``add_record``, the builder. ``write_csv`` and
``write_json`` are the one table writer and the one document writer that
reports, sweeps and ablations go through; they and checkpoints replace
their target atomically through one writer.
"""

from __future__ import annotations

import binascii
import hashlib
import json
import operator
import os
import re
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .data import DatasetSource, open_input, read_bytes
from .errors import CheckpointError, ConfigError, ContractError, FormatError, check_config
from .model import EVAL_BATCH_SIZE, ModelConfig, TrainState, _build_state

__all__ = [
    "FORMAT_VERSION",
    "RunReport",
    "save_checkpoint",
    "load_checkpoint",
    "read_checkpoint",
    "read_json",
    "resolve_run_config",
    "config_hash",
    "write_csv",
    "write_json",
]

FORMAT_VERSION = 5

TRAIN_DEFAULTS = {
    "steps": 2000,
    "record_every": 1,
    "gap_every": 0,
    "probe_size": 64,
    "eval_batch_size": EVAL_BATCH_SIZE,
}


def _state_arrays(state: TrainState) -> dict:
    """Every array of a model's state, under the name a checkpoint stores it
    by: each Adam-trained parameter, each codebook's EMA buffers (and its
    codewords when EMA trains them), and the arena's two Adam moments."""
    arrays = {f"params[{name}]": p.data for name, p in state.params.items()}
    for i, cb in enumerate(state.codebooks):
        if not cb.embeddings.requires_grad:
            arrays[f"codebooks[{i}].embeddings"] = cb.embeddings.data
        arrays[f"codebooks[{i}].ema_cluster_size"] = cb.ema_cluster_size
        arrays[f"codebooks[{i}].ema_embed_sum"] = cb.ema_embed_sum
    arrays["adam_m"], arrays["adam_v"] = state.arena[1:]
    return arrays


def save_checkpoint(state: TrainState, path, dataset: DatasetSource | None = None) -> None:
    """Write ``state`` to ``path`` as a versioned, bit-exact JSON document,
    replacing ``path`` atomically.

    The text is ``json.dumps(doc, indent=1)`` of the document with an empty
    payload, the last value; each array's hex is written into it as it is,
    since hex never needs JSON escaping. The file is byte for byte what
    ``write_json`` writes for the full document.
    """
    arrays = _state_arrays(state)
    doc = {
        "format_version": FORMAT_VERSION,
        "config": {
            "model": state.config.to_dict(),
            "dataset": dataset.to_dict() if dataset is not None else None,
        },
        "step": state.step,
        "adam_t": state.adam_t,
        "arrays": {name: {"shape": list(arr.shape), "dtype": str(arr.dtype)}
                   for name, arr in arrays.items()},
        "payload": "",
    }
    head, _, tail = json.dumps(doc, indent=1).rpartition('""')

    def chunks():
        yield f'{head}"'.encode("utf-8")
        for arr in arrays.values():
            yield binascii.b2a_hex(np.ascontiguousarray(arr, arr.dtype.newbyteorder("<")))
        yield f'"{tail}\n'.encode("utf-8")

    _write_atomically(path, chunks())


def read_json(path, kind: str):
    """Parse one JSON input file: a missing ``kind`` file is a ConfigError,
    and text that is not JSON a FormatError (see ``_parse_json``)."""
    return _parse_json(path, read_bytes(path, kind))


def _parse_json(path, data: bytes):
    """Parse ``data``, the UTF-8 JSON text of ``path``: malformed JSON, or
    a key repeated in one object, is a FormatError naming its line and
    column or the key, and JSON that Python cannot hold (an integer past
    its digit limit, nesting past its recursion limit) a FormatError
    naming the file."""
    try:
        return json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as err:
        raise FormatError(f"{path}: malformed JSON at line {err.lineno} column {err.colno}: "
                          f"{err.msg}") from err
    except UnicodeDecodeError as err:
        raise FormatError(f"{path}: not UTF-8 text: {err.reason}") from err
    except ValueError as err:
        raise FormatError(f"{path}: cannot parse JSON: {err}") from err
    except RecursionError as err:
        raise FormatError(f"{path}: JSON nested too deeply") from err


def _unique_keys(pairs: list) -> dict:
    """A JSON object from its ``(key, value)`` pairs, none of whose keys
    repeats: every JSON input is parsed with this one policy."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ValueError(f"key {key!r} repeats in one object")
        seen.add(key)
    return dict(pairs)


# the payload's key and opening quote: the document's text before them is
# parsed as JSON, and the payload is streamed from after them
PAYLOAD_KEY = re.compile(rb'"payload"[ \t\n\r]*:[ \t\n\r]*"')
# what follows the payload: its closing quote and the document's closing brace
DOCUMENT_END = re.compile(rb'"[ \t\n\r]*}')
READ_CHUNK = 1 << 16

# the keys of a checkpoint besides "arrays", whose entries are checked one by one
CHECKPOINT_FIELDS = {"format_version": 0, "config": {}, "step": 0, "adam_t": 0, "payload": ""}
RUN_FIELDS = {"model": {}, "dataset": {}}
ARRAY_FIELDS = {"shape": (0,), "dtype": ""}


def _read_header(fh) -> tuple[bytes, bytes | None]:
    """Read ``fh`` in chunks up to the payload's opening quote. Returns the
    text up to it and the bytes read after it, or the whole file and None
    if it has no payload key."""
    head = bytearray()
    found = None
    while found is None:
        chunk = fh.read(READ_CHUNK)
        if not chunk:
            return bytes(head), None
        # a key cut by this chunk's start begins at the last quote before
        # it, or 8 bytes earlier (then that quote closes "payload")
        quote = head.rfind(b'"')
        start = max(0, quote - 8) if quote >= 0 else len(head)
        head += chunk
        found = PAYLOAD_KEY.search(head, start)
    return bytes(head[:found.end()]), bytes(head[found.end():])


def _load_payload(path, fh, read: bytes, stored: dict, arrays: dict) -> None:
    """Decode the payload, ``read`` and then the rest of ``fh``, into the
    state's ``arrays``: each ``stored`` entry, in document order, takes the
    hex of its array's bytes; then the document must end. Each array's hex
    is read into one buffer, sized for the largest array and reused."""
    read = memoryview(read)
    text = bytearray(2 * max(arr.nbytes for arr in arrays.values()))
    window = memoryview(text)
    for name, entry in stored.items():
        arr = arrays[name]
        if entry["shape"] != list(arr.shape) or arr.dtype != entry["dtype"]:
            raise CheckpointError(f"{path}: {name} does not have the model's shape "
                                  f"{list(arr.shape)} and dtype {arr.dtype}")
        need = 2 * arr.nbytes
        got = min(need, len(read))
        window[:got] = read[:got]
        read = read[got:]
        got += fh.readinto(window[got:need])
        if got < need and text.find(b'"', 0, got) < 0:
            raise CheckpointError(f"{path}: the file ends inside the payload, in {name}")
        try:
            raw = binascii.a2b_hex(window[:got])
        except ValueError as err:  # binascii.Error: a non-hex digit, a quote or an escape
            if text.find(b'"', 0, got) >= 0 and text.find(b"\\", 0, got) < 0:
                raise CheckpointError(f"{path}: the payload ends inside {name}") from err
            raise CheckpointError(f"{path}: {name} has a bad payload: {err}") from err
        arr[...] = np.frombuffer(raw, arr.dtype.newbyteorder("<")).reshape(arr.shape)
    rest = bytes(read) + fh.read()
    end = DOCUMENT_END.match(rest)
    if not rest.startswith(b'"'):
        raise CheckpointError(f"{path}: the payload runs past the hex of the arrays' bytes")
    if end is None:
        raise CheckpointError(f"{path}: the payload is not the document's last value")
    if rest[end.end():].strip(b" \t\n\r"):
        raise CheckpointError(f"{path}: bytes follow the document's closing brace")


class _NoDraws:
    """Stands in for the "init" generator of a state whose every drawn array
    is about to be overwritten: each draw is zeros."""

    @staticmethod
    def normal(loc, scale, size):
        return np.zeros(size)


def read_checkpoint(path) -> tuple[TrainState, DatasetSource | None]:
    """Rebuild a TrainState from a checkpoint written by ``save_checkpoint``,
    with the dataset recipe saved beside it (None if there is none). Its
    array names, shapes and dtypes must be those of the state its model
    config builds; the payload is decoded into those arrays. A key that
    ``save_checkpoint`` does not write, at the top of the document or in
    its config, is rejected, and so is any text after the payload but the
    document's end.

    The file is streamed once: only the text before the payload is parsed
    as JSON, and each stored array's share of the payload, in document
    order, is read and decoded straight into the array of its name.
    """
    with open_input(path, "checkpoint") as fh:
        head, read = _read_header(fh)
        doc = _parse_json(path, head if read is None else head + b'"}')
        version = doc.get("format_version") if isinstance(doc, dict) else None
        if version != FORMAT_VERSION:
            raise CheckpointError(f"{path}: format version {version!r} is not supported "
                                  f"(reader expects {FORMAT_VERSION})")
        if read is None:
            raise CheckpointError(f'{path}: no "payload" string ends the document')
        try:
            check_config("checkpoint", {k: v for k, v in doc.items() if k != "arrays"},
                         CHECKPOINT_FIELDS)
            # no run reaches 2**63 steps, and Adam raises its betas to the power adam_t
            for key in ("step", "adam_t"):
                if not 0 <= doc[key] < 2**63:
                    raise CheckpointError(f"{path}: checkpoint field {key} must be nonnegative "
                                          f"and below 2**63, got {reprlib.repr(doc[key])}")
            config = doc["config"]  # a null dataset: none was saved
            check_config("checkpoint run", {k: v for k, v in config.items() if v is not None},
                         RUN_FIELDS)
            state = _build_state(ModelConfig.from_dict(config["model"]), _NoDraws())
            dataset = (None if config.get("dataset") is None
                       else DatasetSource.from_dict(config["dataset"]))
            stored = doc["arrays"] if isinstance(doc["arrays"], dict) else {}
            arrays = _state_arrays(state)
            if set(stored) != set(arrays):
                raise CheckpointError(f"{path}: arrays {sorted(set(stored) ^ set(arrays))} "
                                      "do not match the model")
            for name, entry in stored.items():
                check_config(name, entry, ARRAY_FIELDS)
            _load_payload(path, fh, read, stored, arrays)
            state.adam_t = doc["adam_t"]
            state.step = doc["step"]
        except KeyError as err:
            raise CheckpointError(f"{path}: missing checkpoint field {err}") from err
        except ConfigError as err:
            raise CheckpointError(f"{path}: {err}") from err
    return state, dataset


def load_checkpoint(path) -> TrainState:
    """The TrainState of ``read_checkpoint(path)``."""
    return read_checkpoint(path)[0]


def resolve_run_config(raw: dict) -> dict:
    """Expand a run config to its full form with every default filled in."""
    check_config("run", raw, {"model": {}, "dataset": {}, "train": {}})
    model = ModelConfig.from_dict(raw.get("model", {}))
    dataset = DatasetSource.from_dict(raw.get("dataset", {}))
    train = check_config("train", raw.get("train", {}), TRAIN_DEFAULTS)
    return {"model": model.to_dict(), "dataset": dataset.to_dict(),
            "train": {**TRAIN_DEFAULTS, **train}}


def _write_atomically(path, chunks) -> None:
    """Write the byte strings ``chunks`` to a temporary file beside
    ``path``, then move it over ``path``: a write that fails leaves
    ``path`` as it was."""
    temporary = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(temporary, "wb") as fh:
            fh.writelines(chunks)
        os.replace(temporary, path)
    finally:
        if os.path.exists(temporary):
            os.remove(temporary)


def write_json(path, doc, **options) -> None:
    """Write ``doc`` as indented JSON with a final newline, atomically."""
    _write_atomically(path, [(json.dumps(doc, indent=1, **options) + "\n").encode("utf-8")])


def config_hash(resolved: dict) -> str:
    """Stable hash of a resolved configuration document."""
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def write_csv(path, columns, rows) -> None:
    """Write a header of ``columns``, then one line per row (a dict keyed by
    column), atomically. Floats are written with ``repr``, so they read
    back bit-exact; a missing or None cell is empty; anything else is
    written with ``str``."""
    def cell(value) -> str:
        if value is None:
            return ""
        return repr(float(value)) if isinstance(value, float) else str(value)

    lines = [",".join(columns)] + [",".join(cell(row.get(c)) for c in columns) for row in rows]
    _write_atomically(path, [("\n".join(lines) + "\n").encode("utf-8")])


RECORD_KEYS = ("step", "recon", "vq", "gap", "temperature", "usage")


@dataclass
class RunReport:
    """Per-step training records plus a run summary.

    Records are appended with strictly increasing integer steps. ``gap``
    and ``usage`` are optional per record (probes may be sparse); all usage
    lists have one width. ``from_json`` rebuilds a report with ``add_record``.
    """

    records: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def add_record(self, step: int, recon: float, vq: float, gap: float | None = None,
                   temperature: float | None = None, usage=None) -> None:
        step = operator.index(step)
        if self.records and step <= self.records[-1]["step"]:
            raise ContractError(
                f"steps must increase: got {step} after {self.records[-1]['step']}"
            )
        if usage is not None:
            usage = [operator.index(c) for c in usage]
            first = next((r["usage"] for r in self.records if r["usage"] is not None), usage)
            if len(usage) != len(first):
                raise ContractError(f"inconsistent usage widths in report: "
                                    f"{sorted({len(first), len(usage)})}")
        self.records.append({
            "step": step,
            "recon": float(recon),
            "vq": float(vq),
            "gap": None if gap is None else float(gap),
            "temperature": None if temperature is None else float(temperature),
            "usage": usage,
        })

    def set_summary(self, **kwargs) -> None:
        self.summary.update(kwargs)

    def to_json(self, path) -> None:
        write_json(path, {"records": self.records, "summary": self.summary})

    @classmethod
    def from_json(cls, path) -> "RunReport":
        doc = read_json(path, "run report")
        if not (isinstance(doc, dict) and isinstance(doc.get("records"), list)
                and isinstance(doc.get("summary"), dict)):
            raise FormatError(f"{path}: not a run report (a list of records and a summary)")
        report = cls(summary=doc["summary"])
        try:
            for record in doc["records"]:
                report.add_record(**record)
        except (TypeError, ValueError, OverflowError) as err:  # ContractError is a ValueError
            raise FormatError(f"{path}: bad run report record: {err}") from err
        return report

    def to_csv(self, path) -> None:
        width = max((len(r["usage"]) for r in self.records if r["usage"] is not None), default=0)
        columns = list(RECORD_KEYS[:-1]) + [f"usage_{i}" for i in range(width)]
        write_csv(path, columns, [
            {**r, **{f"usage_{i}": c for i, c in enumerate(r["usage"] or [])}}
            for r in self.records
        ])
