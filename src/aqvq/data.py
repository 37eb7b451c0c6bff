"""Dataset generation and ingestion.

Two synthetic generators (a Gaussian mixture of cluster centers and a
bank of procedural 8x8 image patterns) plus a reader for the big-endian
IDX image/label format. Everything is deterministic per seed.
``open_input`` is the one way input files are opened: ``read_bytes`` reads
IDX files here and JSON documents in ``persist`` through it, and
``persist`` streams checkpoints from it.
"""

from __future__ import annotations

import struct
from contextlib import contextmanager
from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConfigError, FormatError, check_addressable, check_config

__all__ = ["DatasetSource", "Dataset", "synth_dataset", "load_idx", "make_dataset",
           "open_input", "read_bytes"]

IDX_UBYTE = 0x08


@dataclass
class DatasetSource:
    """Recipe for one dataset: kind, per-kind parameters, split, seed."""

    kind: str = "synthetic_gaussian_mixture"
    clusters: int = 4
    dims: int = 8
    samples: int = 1024
    noise_sigma: float = 0.05
    spread: float = 1.0              # scale of the cluster centers
    images_path: str | None = None   # idx_images only
    labels_path: str | None = None
    val_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        kinds = ("synthetic_gaussian_mixture", "synthetic_patterns", "idx_images")
        if self.kind not in kinds:
            raise ConfigError(f"unknown dataset kind {self.kind!r}; expected one of {kinds}")
        if self.seed < 0:
            raise ConfigError(f"dataset seed must be nonnegative, got {self.seed}")
        for name in ("noise_sigma", "spread"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"validation fraction must lie in (0,1), got {self.val_fraction}")
        if self.kind != "idx_images":
            if self.clusters < 1 or self.dims < 1:
                raise ConfigError(f"need at least one cluster and one dimension, got "
                                  f"{self.clusters} and {self.dims}")
            if self.samples < 2:
                raise ConfigError(f"need at least two samples to split, got {self.samples}")
            if self.noise_sigma < 0:
                raise ConfigError("noise sigma must be nonnegative")
            if self.kind == "synthetic_patterns":
                check_addressable("dataset", "samples", self.samples, 1, 8, 8)
            else:
                check_addressable("dataset", "samples and dims", self.samples, self.dims)
                check_addressable("dataset", "clusters and dims", self.clusters, self.dims)
        elif self.images_path is None:
            raise ConfigError("idx_images needs an images_path")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSource":
        return cls(**check_config("dataset", d, cls))


@dataclass
class Dataset:
    """Train/validation split of one generated or loaded dataset."""

    train: np.ndarray
    val: np.ndarray
    labels_train: np.ndarray | None = None
    labels_val: np.ndarray | None = None

    @property
    def sample_shape(self) -> tuple:
        return self.train.shape[1:]


def _split(data: np.ndarray, labels, source: DatasetSource) -> Dataset:
    n = data.shape[0]
    n_val = max(1, int(round(n * source.val_fraction)))
    n_val = min(n_val, n - 1)
    rng = np.random.default_rng(np.random.SeedSequence((source.seed, 0x5B17)))
    order = rng.permutation(n)
    data = data[order]
    labels = labels[order] if labels is not None else None
    return Dataset(
        train=data[n_val:],
        val=data[:n_val],
        labels_train=None if labels is None else labels[n_val:],
        labels_val=None if labels is None else labels[:n_val],
    )


def _gaussian_mixture(source: DatasetSource, rng: np.random.Generator) -> np.ndarray:
    centers = source.spread * rng.normal(size=(source.clusters, source.dims))
    which = rng.integers(0, source.clusters, size=source.samples)
    noise = rng.normal(size=(source.samples, source.dims))
    return centers[which] + source.noise_sigma * noise


def _patterns(source: DatasetSource, rng: np.random.Generator) -> np.ndarray:
    """Procedural 8x8 single-channel images: stripes, checkers, blobs."""
    side = 8
    yy, xx = np.mgrid[0:side, 0:side]
    images = np.empty((source.samples, 1, side, side))
    families = rng.integers(0, 3, size=source.samples)
    for i, family in enumerate(families):
        if family == 0:  # stripes, random orientation/period/phase
            period = int(rng.integers(2, 5))
            phase = int(rng.integers(0, period))
            axis = yy if rng.random() < 0.5 else xx
            img = ((axis + phase) // period % 2).astype(np.float64)
        elif family == 1:  # checkerboard with random cell size
            cell = int(rng.integers(1, 4))
            img = (((yy // cell) + (xx // cell)) % 2).astype(np.float64)
        else:  # gaussian blob at a random location
            cy, cx = rng.uniform(1.5, 6.5, size=2)
            width = rng.uniform(1.0, 2.5)
            img = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * width**2))
        images[i, 0] = img
    images += source.noise_sigma * rng.normal(size=images.shape)
    return images


def synth_dataset(source: DatasetSource) -> Dataset:
    """Generate a synthetic dataset; identical seeds give identical bits."""
    rng = np.random.default_rng(source.seed)
    if source.kind == "synthetic_gaussian_mixture":
        data = _gaussian_mixture(source, rng)
    elif source.kind == "synthetic_patterns":
        data = _patterns(source, rng)
    else:
        raise ConfigError(f"synth_dataset cannot generate kind {source.kind!r}")
    return _split(data, None, source)


@contextmanager
def open_input(path, kind: str):
    """Open input file ``path`` for reading bytes; a ``kind`` file that is
    missing, a directory or unreadable is a ConfigError."""
    try:
        fh = open(path, "rb")
    except FileNotFoundError as err:
        raise ConfigError(f"{kind} not found: {path}") from err
    except (IsADirectoryError, PermissionError) as err:
        raise ConfigError(f"cannot read {kind} {path}: {err.strerror}") from err
    with fh:
        yield fh


def read_bytes(path, kind: str) -> bytes:
    """The bytes of input file ``path``, opened with ``open_input``."""
    with open_input(path, kind) as fh:
        return fh.read()


def _read_idx(path: str) -> np.ndarray:
    blob = read_bytes(path, "IDX file")
    if len(blob) < 4:
        raise FormatError(f"{path}: too short for an IDX header ({len(blob)} bytes)")
    zero1, zero2, dtype_code, ndim = struct.unpack(">BBBB", blob[:4])
    if zero1 != 0 or zero2 != 0 or dtype_code != IDX_UBYTE:
        raise FormatError(
            f"{path}: bad IDX magic bytes {blob[:4].hex()} (expected 0000{IDX_UBYTE:02x}NN)"
        )
    header_len = 4 + 4 * ndim
    if len(blob) < header_len:
        raise FormatError(f"{path}: truncated IDX header, {len(blob)} < {header_len} bytes")
    extents = struct.unpack(f">{ndim}I", blob[4:header_len])
    expected = int(np.prod(extents, dtype=np.int64))
    payload = blob[header_len:]
    if len(payload) != expected:
        raise FormatError(
            f"{path}: IDX payload has {len(payload)} bytes, extents {extents} require {expected}"
        )
    return np.frombuffer(payload, dtype=np.uint8).reshape(extents)


def load_idx(images_path: str, labels_path: str | None = None):
    """Read IDX images (scaled to [0,1]) and optionally their labels."""
    raw = _read_idx(images_path)
    if raw.ndim < 2:
        raise FormatError(f"{images_path}: expected image tensor, got {raw.ndim} dimension(s)")
    images = raw.astype(np.float64) / 255.0
    if labels_path is None:
        return images
    labels = _read_idx(labels_path)
    if labels.ndim != 1:
        raise FormatError(f"{labels_path}: expected label vector, got shape {labels.shape}")
    if labels.shape[0] != images.shape[0]:
        raise FormatError(
            f"{labels_path}: {labels.shape[0]} labels for {images.shape[0]} images"
        )
    return images, labels


def make_dataset(source: DatasetSource) -> Dataset:
    """Build the dataset described by ``source`` (synthetic or IDX files)."""
    if source.kind != "idx_images":
        return synth_dataset(source)
    if source.labels_path is not None:
        images, labels = load_idx(source.images_path, source.labels_path)
    else:
        images, labels = load_idx(source.images_path), None
    if images.shape[0] < 2:
        raise ConfigError(f"{source.images_path}: need at least two images to split, "
                          f"got {images.shape[0]}")
    if images.ndim == 3:  # H x W images -> single channel
        images = images[:, None, :, :]
    return _split(images, labels, source)
