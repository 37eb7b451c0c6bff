"""Digest of the trained state of every benchmark workload.

For each workload of ``perfbench/workload.py``, at the reference seeds
(data 11, model 0), in double and in single precision, trains the
benchmark's ``STEPS`` steps from a fresh state, saves the checkpoint to
a temporary directory, loads it back, and prints one line:

    <workload> <precision> <checkpoint SHA-256> <final_val_recon_sum as hex> <state SHA-256>

The state SHA-256 covers the loaded state alone: each array a checkpoint
stores (name, dtype, shape and C-order little-endian bytes, in the
checkpoint's order), then ``step`` and ``adam_t``. It does not depend on
the file's encoding, so a change of encoding that moves no state byte
changes the checkpoint column only; a change of the stored arrays' names
or shapes changes the state column too. A change meant to keep every byte
keeps every line; compare the output of two checkouts with ``diff``. Run
from the repository root:

    python3 tools/state_digest.py

BLAS runs on one thread, as in the benchmark, so that the lines do not
depend on the host's core count.
"""

import os

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy loads BLAS

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from aqvq import data, experiments, persist  # noqa: E402
from workload import STEPS, WORKLOADS, make_inputs  # noqa: E402

DATA_SEED, MODEL_SEED = 11, 0


def state_sha(state) -> str:
    """SHA-256 of every array a checkpoint of ``state`` stores, with its
    name, dtype and shape, then of ``step`` and ``adam_t``."""
    sha = hashlib.sha256()
    for name, arr in persist._state_arrays(state).items():
        little = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        sha.update(json.dumps([name, str(little.dtype), list(arr.shape)]).encode("utf-8"))
        sha.update(little.tobytes())
    sha.update(json.dumps([state.step, state.adam_t]).encode("utf-8"))
    return sha.hexdigest()


def digest(workload: str, precision: str, directory: Path) -> str:
    """The line of one workload trained in one precision."""
    source, config = make_inputs(workload, DATA_SEED, MODEL_SEED)
    config = dataclasses.replace(config, precision=precision)
    state, report = experiments.train_run(config, data.make_dataset(source), STEPS)
    path = directory / f"{workload}-{precision}.json"
    persist.save_checkpoint(state, path)
    file_sha = hashlib.sha256(path.read_bytes()).hexdigest()
    recon = report.summary["final_val_recon_sum"].hex()
    return f"{workload} {precision} {file_sha} {recon} {state_sha(persist.load_checkpoint(path))}"


def main() -> None:
    with tempfile.TemporaryDirectory() as directory:
        for workload in WORKLOADS:
            for precision in ("double", "single"):
                print(digest(workload, precision, Path(directory)), flush=True)


if __name__ == "__main__":
    main()
