"""Synthetic two-view corpora with hidden ground truth, plus the binary
feature-file format for externally computed embeddings.

Each location gets a unit latent vector; the two views observe it through
different orthonormal-column maps plus Gaussian noise. Ground truth rides
along for evaluation only: its one accessor is ``Corpus.ground_truth()``,
which ``Trainer`` reads to check the pairing and to evaluate, never to
train.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagicError,
    DataError,
    NonFiniteDataError,
    TruncatedFileError,
)
from .numcore import Rng, as_int_ids, as_matrix, l2_normalize_rows

FEATURE_MAGIC = b"DMFV"
FEATURE_VERSION = 1
LABEL_MARKER = b"LBLS"
VIEW_TAGS = {"drone": 0, "satellite": 1}
TAG_VIEWS = {v: k for k, v in VIEW_TAGS.items()}


class Corpus:
    def __init__(self, drone_raw, sat_raw, drone_loc=None, sat_loc=None):
        self.drone_raw = as_matrix(drone_raw, "drone features")
        self.sat_raw = as_matrix(sat_raw, "satellite features")
        if self.drone_raw.shape[1] != self.sat_raw.shape[1]:
            raise DataError("view dimensions differ")
        self._drone_loc = _locations(drone_loc, "drone")
        self._sat_loc = _locations(sat_loc, "satellite")
        for name, loc, mat in (
            ("drone", self._drone_loc, self.drone_raw),
            ("satellite", self._sat_loc, self.sat_raw),
        ):
            if 0 in mat.shape:
                raise DataError(f"{name} view is empty: {mat.shape[0]} rows x {mat.shape[1]} columns")
            if loc is not None and loc.shape != mat.shape[:1]:
                raise DataError(f"{name} labels do not match instance count: shape {loc.shape}, {mat.shape[0]} rows")

    @property
    def has_ground_truth(self) -> bool:
        return self._drone_loc is not None and self._sat_loc is not None

    def ground_truth(self) -> tuple[np.ndarray, np.ndarray]:
        """Evaluation-only accessor for the true location ids."""
        if not self.has_ground_truth:
            raise DataError("corpus carries no ground truth")
        return self._drone_loc, self._sat_loc

    def check_paired(self) -> None:
        """Every location must appear in both views, or some query has no
        relevant gallery item and its average precision is undefined."""
        # sets, not np.setdiff1d: its first call adds about 2 MB to the peak RSS
        # of a process that only evaluates
        drone_loc, sat_loc = (set(loc.tolist()) for loc in self.ground_truth())
        for has, lacks, unpaired in (
            ("drone", "satellite", drone_loc - sat_loc),
            ("satellite", "drone", sat_loc - drone_loc),
        ):
            if unpaired:
                raise DataError(f"location {min(unpaired)} has {has} instances but no {lacks} instance")


def _locations(loc, name: str) -> np.ndarray | None:
    if loc is None:
        return None
    try:
        return as_int_ids(loc, f"{name} labels must be integer location ids").copy()
    except ValueError as exc:
        raise DataError(str(exc)) from None


@dataclass
class SyntheticSpec:
    num_locations: int = 64
    latent_dim: int = 16
    input_dim: int = 32
    drone_per_loc: int = 8
    sat_per_loc: int = 1
    noise_std: float = 0.05
    seed: int = 0
    shared_view_maps: bool = False

    def validate(self) -> None:
        if self.num_locations < 1 or self.drone_per_loc < 1 or self.sat_per_loc < 1:
            raise ValueError("counts must be positive")
        if self.latent_dim < 1 or self.input_dim < self.latent_dim:
            raise ValueError("need input_dim >= latent_dim >= 1")
        if not np.isfinite(self.noise_std):
            raise ValueError(f"noise_std must be finite, got {self.noise_std}")
        if self.noise_std < 0.0:
            raise ValueError("noise_std must be >= 0")


def _orthonormal_columns(rng: Rng, rows: int, cols: int) -> np.ndarray:
    gauss = rng.normal((rows, cols))
    q, _ = np.linalg.qr(gauss)
    return q[:, :cols]


def generate(spec: SyntheticSpec) -> Corpus:
    """Deterministic per seed; both views share the per-location latents."""
    spec.validate()
    rng = Rng(spec.seed)
    latents = l2_normalize_rows(rng.derive(1).normal((spec.num_locations, spec.latent_dim)))
    map_d = _orthonormal_columns(rng.derive(2), spec.input_dim, spec.latent_dim)
    map_s = map_d if spec.shared_view_maps else _orthonormal_columns(
        rng.derive(3), spec.input_dim, spec.latent_dim
    )
    drone_loc = np.repeat(np.arange(spec.num_locations, dtype=np.int64), spec.drone_per_loc)
    sat_loc = np.repeat(np.arange(spec.num_locations, dtype=np.int64), spec.sat_per_loc)
    drone = latents[drone_loc] @ map_d.T
    sat = latents[sat_loc] @ map_s.T
    if spec.noise_std > 0.0:
        drone = drone + rng.derive(4).normal(drone.shape, scale=spec.noise_std)
        sat = sat + rng.derive(5).normal(sat.shape, scale=spec.noise_std)
    return Corpus(drone, sat, drone_loc=drone_loc, sat_loc=sat_loc)


def save_features(path, view: str, features, labels=None) -> None:
    """One file per view: magic, version u32, view tag u8, count u32,
    dim u32, float32 payload, then an optional label block. A view the
    format cannot hold fails before the file is opened."""
    parts = _feature_file(view, features, labels)
    with open(path, "wb") as fh:
        fh.writelines(parts)


def _feature_file(view: str, features, labels) -> list:
    """The parts of one view file, in order. Features beyond float32 (which
    ``load_feature_file`` rejects) and location ids beyond int32 (which
    would wrap) are errors."""
    if view not in VIEW_TAGS:
        raise ValueError(f"view must be one of {sorted(VIEW_TAGS)}")
    features = as_matrix(features, "features")
    count, dim = features.shape
    with np.errstate(over="ignore"):  # the overflow is the error raised here
        payload = features.astype("<f4")
    if not np.isfinite(payload).all():
        raise NonFiniteDataError(f"{view} features do not fit float32")
    parts = [FEATURE_MAGIC, struct.pack("<IBII", FEATURE_VERSION, VIEW_TAGS[view], count, dim), payload]
    if labels is not None:
        labels = as_int_ids(labels, "{count} location ids: need one integer each for {rows} rows", count)
        block = labels.astype("<i4")
        wrapped = labels != block
        if wrapped.any():
            raise DataError(f"{view} location id {labels[wrapped][0]} does not fit int32")
        parts += [LABEL_MARKER, block]
    return parts


def load_feature_file(path) -> tuple[str, np.ndarray, np.ndarray | None]:
    """Parse one view file; rejects bad magic, truncation, and non-finite
    payloads with distinct errors."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from None
    if blob[:4] != FEATURE_MAGIC:
        raise BadMagicError(f"{path}: not a feature file")
    header = struct.calcsize("<IBII")
    if len(blob) < 4 + header:
        raise TruncatedFileError(f"{path}: header truncated")
    version, tag, count, dim = struct.unpack_from("<IBII", blob, 4)
    if version != FEATURE_VERSION:
        raise DataError(f"{path}: unsupported feature file version {version}")
    if tag not in TAG_VIEWS:
        raise DataError(f"{path}: unknown view tag {tag}")
    payload_bytes = 4 * count * dim
    offset = 4 + header
    if len(blob) < offset + payload_bytes:
        raise TruncatedFileError(f"{path}: payload truncated")
    raw = np.frombuffer(blob, dtype="<f4", count=count * dim, offset=offset)
    if not np.all(np.isfinite(raw)):
        raise NonFiniteDataError(f"{path}: payload contains non-finite values")
    features = raw.astype(np.float64).reshape(count, dim)
    offset += payload_bytes
    labels = None
    rest = blob[offset:]
    if rest:
        if rest[:4] != LABEL_MARKER:
            raise DataError(f"{path}: unexpected trailing bytes")
        if len(rest) < 4 + 4 * count:
            raise TruncatedFileError(f"{path}: label block truncated")
        if len(rest) > 4 + 4 * count:
            raise DataError(f"{path}: unexpected trailing bytes")
        labels = np.frombuffer(rest, dtype="<i4", count=count, offset=4).astype(np.int64)
    return TAG_VIEWS[tag], features, labels


def load_corpus(drone_path, sat_path) -> Corpus:
    """Assemble a corpus from one drone file and one satellite file."""
    view_d, drone, labels_d = load_feature_file(drone_path)
    view_s, sat, labels_s = load_feature_file(sat_path)
    if view_d != "drone":
        raise DataError(f"{drone_path}: expected a drone view file, got {view_d}")
    if view_s != "satellite":
        raise DataError(f"{sat_path}: expected a satellite view file, got {view_s}")
    if (labels_d is None) != (labels_s is None):
        raise DataError("ground truth must be present in both files or neither")
    return Corpus(drone, sat, drone_loc=labels_d, sat_loc=labels_s)


def save_corpus(corpus: Corpus, drone_path, sat_path) -> None:
    """Write both view files. A view the format cannot hold fails before
    either file is opened."""
    labels = corpus.ground_truth() if corpus.has_ground_truth else (None, None)
    views = zip(("drone", "satellite"), (corpus.drone_raw, corpus.sat_raw), labels)
    files = [_feature_file(view, raw, loc) for view, raw, loc in views]
    for path, parts in zip((drone_path, sat_path), files):
        with open(path, "wb") as fh:
            fh.writelines(parts)
