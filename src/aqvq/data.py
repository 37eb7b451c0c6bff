"""Dataset generation and ingestion.

Two synthetic generators (a Gaussian mixture of cluster centers and a
bank of procedural 8x8 image patterns) plus a reader for the big-endian
IDX image/label format. Everything is deterministic per seed, and the
synthetic samples are labelled by their mixture component or pattern
family.
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


def _gaussian_mixture(source: DatasetSource, rng: np.random.Generator):
    """Rows around random cluster centers, and each row's cluster."""
    centers = source.spread * rng.normal(size=(source.clusters, source.dims))
    which = rng.integers(0, source.clusters, size=source.samples)
    noise = rng.normal(size=(source.samples, source.dims))
    return centers[which] + source.noise_sigma * noise, which


PATTERN_SIDE = 8


def _fixed_patterns():
    """The 21 noise-free stripe and checker images, and the row of each:
    stripes by (period, phase, along y), checkers by cell size."""
    yy, xx = np.mgrid[0:PATTERN_SIDE, 0:PATTERN_SIDE]
    rows, images = {}, []
    for period in (2, 3, 4):
        for phase in range(period):
            for along_y in (True, False):
                rows[period, phase, along_y] = len(images)
                images.append(((yy if along_y else xx) + phase) // period % 2)
    for cell in (1, 2, 3):
        rows[cell] = len(images)
        images.append(((yy // cell) + (xx // cell)) % 2)
    return rows, np.array(images, dtype=np.float64)


_FIXED_ROWS, _FIXED_IMAGES = _fixed_patterns()


def _patterns(source: DatasetSource, rng: np.random.Generator):
    """Procedural 8x8 single-channel images (stripes, checkers, blobs), and
    each image's family: 0 stripes, 1 checkers, 2 blobs.

    The generator is drawn in one fixed order: the families; then, sample
    by sample, that sample's parameters (stripes: period, phase and
    orientation; checkers: cell size; blobs: centre, then width); then the
    noise. The loop only draws. The images are built in bulk afterwards:
    stripes and checkers are rows of a table of the 21 fixed images, and
    the blobs are one Gaussian over all of them.
    """
    yy, xx = np.mgrid[0:PATTERN_SIDE, 0:PATTERN_SIDE]
    families = rng.integers(0, 3, size=source.samples)
    fixed, blobs = [], []
    for family in families.tolist():
        if family == 0:  # stripes, random orientation/period/phase
            period = int(rng.integers(2, 5))
            phase = int(rng.integers(0, period))
            fixed.append(_FIXED_ROWS[period, phase, rng.random() < 0.5])
        elif family == 1:  # checkerboard with random cell size
            fixed.append(_FIXED_ROWS[int(rng.integers(1, 4))])
        else:  # gaussian blob at a random location
            cy, cx = rng.uniform(1.5, 6.5, size=2)
            width = rng.uniform(1.0, 2.5)
            # per sample: the array form 2.0 * w**2 rounds some widths differently
            blobs.append((cy, cx, 2.0 * width**2))
    images = np.empty((source.samples, 1, PATTERN_SIDE, PATTERN_SIDE))
    is_blob = families == 2
    images[~is_blob, 0] = _FIXED_IMAGES[fixed]
    cy, cx, den = np.array(blobs).reshape(-1, 3).T[..., None, None]
    images[is_blob, 0] = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / den)
    images += source.noise_sigma * rng.normal(size=images.shape)
    return images, families


def synth_dataset(source: DatasetSource) -> Dataset:
    """Generate a synthetic dataset, labelled by each sample's mixture
    component or pattern family; identical seeds give identical bits."""
    rng = np.random.default_rng(source.seed)
    if source.kind == "synthetic_gaussian_mixture":
        data, labels = _gaussian_mixture(source, rng)
    elif source.kind == "synthetic_patterns":
        data, labels = _patterns(source, rng)
    else:
        raise ConfigError(f"synth_dataset cannot generate kind {source.kind!r}")
    return _split(data, labels, source)


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
