"""Weight-shared two-layer tanh encoder with exact analytic gradients.

Both views pass through the same parameters. The forward pass ends in row
L2 normalization, so downstream dot products against unit memory rows are
cosine similarities. backward() differentiates through that normalization
(projection Jacobian), which is what the finite-difference suite checks.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadMagicError,
    DataError,
    DegenerateInputError,
    NonFiniteDataError,
    NumericError,
    TruncatedFileError,
)
from .numcore import Rng, as_matrix, row_norms

COLLAPSE_NORM = 1e-12

CHECKPOINT_MAGIC = b"DMPW"
CHECKPOINT_VERSION = 1


@dataclass
class EncoderParams:
    """Dense parameters: w1 (hidden x input), b1, w2 (embed x hidden), b2.

    A gradient has the same shapes, so ``backward`` returns one of these
    too, and ``+=`` accumulates gradients in place.
    """

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray

    @property
    def input_dim(self) -> int:
        return self.w1.shape[1]

    @property
    def hidden_dim(self) -> int:
        return self.w1.shape[0]

    @property
    def embed_dim(self) -> int:
        return self.w2.shape[0]

    def arrays(self) -> tuple[np.ndarray, ...]:
        """The arrays in declaration order, which is the checkpoint's order."""
        return (self.w1, self.b1, self.w2, self.b2)

    def __iadd__(self, other: "EncoderParams") -> "EncoderParams":
        for mine, theirs in zip(self.arrays(), other.arrays()):
            mine += theirs
        return self


@dataclass
class ForwardTape:
    """Activations cached by forward() for the exact backward pass."""

    inputs: np.ndarray
    hidden: np.ndarray
    norms: np.ndarray
    embeddings: np.ndarray


def init_params(rng: Rng, input_dim: int, hidden_dim: int, embed_dim: int) -> EncoderParams:
    """Fan-in scaled normal weights (variance 2/fan_in), zero biases."""
    if min(input_dim, hidden_dim, embed_dim) <= 0:
        raise ValueError("layer dimensions must be positive")
    w1 = rng.derive(1).normal((hidden_dim, input_dim), scale=np.sqrt(2.0 / input_dim))
    w2 = rng.derive(2).normal((embed_dim, hidden_dim), scale=np.sqrt(2.0 / hidden_dim))
    return EncoderParams(
        w1=w1,
        b1=np.zeros(hidden_dim),
        w2=w2,
        b2=np.zeros(embed_dim),
    )


def forward(params: EncoderParams, X) -> tuple[np.ndarray, ForwardTape]:
    """Map raw rows to unit-norm embeddings, caching what backward needs."""
    X = as_matrix(X, "inputs")
    if X.shape[1] != params.input_dim:
        raise ValueError(
            f"input dim {X.shape[1]} does not match encoder input {params.input_dim}"
        )
    hidden = X @ params.w1.T
    hidden += params.b1
    np.tanh(hidden, out=hidden)
    u = hidden @ params.w2.T
    u += params.b2
    norms = row_norms(u)
    # a norm that overflows to inf would divide its row to zeros
    if not np.isfinite(norms).all():
        bad = int(np.flatnonzero(~np.isfinite(norms))[0])
        raise NumericError(f"embedding row {bad} has a non-finite norm")
    if (norms < COLLAPSE_NORM).any():
        bad = int(np.flatnonzero(norms < COLLAPSE_NORM)[0])
        raise DegenerateInputError(f"embedding row {bad} collapsed (norm < {COLLAPSE_NORM})")
    u /= norms[:, None]
    return u, ForwardTape(X, hidden, norms, u)


def backward(params: EncoderParams, tape: ForwardTape, d_embeddings) -> EncoderParams:
    """Exact gradient of a scalar loss given its gradient at the embeddings,
    one array per parameter.

    Includes the Jacobian of the final row normalization:
    d/du (u/|u|) = (I - e e^T) / |u| with e = u/|u|.
    """
    dE = np.asarray(d_embeddings, dtype=np.float64)
    if dE.shape != tape.embeddings.shape:
        raise ValueError(
            f"gradient shape {dE.shape} does not match embeddings {tape.embeddings.shape}"
        )
    e = tape.embeddings
    inner = np.einsum("ij,ij->i", dE, e)
    d_pre = inner[:, None] * e
    np.subtract(dE, d_pre, out=d_pre)
    d_pre /= tape.norms[:, None]
    dw2 = d_pre.T @ tape.hidden
    db2 = d_pre.sum(axis=0)
    d_act = d_pre @ params.w2  # d_hidden, scaled in place by tanh's derivative
    slope = np.square(tape.hidden)
    np.subtract(1.0, slope, out=slope)
    d_act *= slope
    dw1 = d_act.T @ tape.inputs
    db1 = d_act.sum(axis=0)
    return EncoderParams(dw1, db1, dw2, db2)


def sgd_step(params: EncoderParams, grads: EncoderParams, lr: float) -> EncoderParams:
    """Plain gradient descent into new arrays: theta <- theta - lr * g."""
    for g in grads.arrays():
        if not np.all(np.isfinite(g)):
            raise NumericError("non-finite gradient in sgd_step")
    return EncoderParams(*(p - lr * g for p, g in zip(params.arrays(), grads.arrays())))


def flatten_params(params: EncoderParams) -> np.ndarray:
    return np.concatenate([a.ravel() for a in params.arrays()])


def unflatten_params(flat, like: EncoderParams) -> EncoderParams:
    flat = np.asarray(flat, dtype=np.float64)
    out = []
    pos = 0
    for a in like.arrays():
        out.append(flat[pos : pos + a.size].reshape(a.shape).copy())
        pos += a.size
    if pos != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, expected {pos}")
    return EncoderParams(*out)


def save_params(params: EncoderParams, path) -> None:
    """Checkpoint layout: magic, version u32, ndims u32, dims u32[],
    then w1, b1, w2, b2 as little-endian float64 in that order."""
    dims = (params.input_dim, params.hidden_dim, params.embed_dim)
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<II", CHECKPOINT_VERSION, len(dims)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        for a in params.arrays():
            fh.write(a.astype("<f8").tobytes())


def load_params(path) -> EncoderParams:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DataError(f"{path}: cannot read: {exc.strerror}") from None
    if blob[:4] != CHECKPOINT_MAGIC:
        raise BadMagicError(f"{path}: not a checkpoint file")
    if len(blob) < 12:
        raise TruncatedFileError(f"{path}: header truncated")
    version, ndims = struct.unpack_from("<II", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise BadMagicError(f"{path}: unsupported checkpoint version {version}")
    if ndims != 3:
        raise DataError(f"{path}: unsupported dimension count {ndims}; a checkpoint has 3")
    if len(blob) < 12 + 4 * ndims:
        raise TruncatedFileError(f"{path}: dimension block truncated")
    input_dim, hidden_dim, embed_dim = struct.unpack_from(f"<{ndims}I", blob, 12)
    if 0 in (input_dim, hidden_dim, embed_dim):
        raise DataError(f"{path}: zero layer dimension in {input_dim} x {hidden_dim} x {embed_dim}")
    # Python ints: a damaged dimension cannot overflow the size checked below
    shapes = [(hidden_dim, input_dim), (hidden_dim,), (embed_dim, hidden_dim), (embed_dim,)]
    count = sum(math.prod(shape) for shape in shapes)
    payload = blob[12 + 4 * ndims :]
    if len(payload) != 8 * count:
        raise TruncatedFileError(
            f"{path}: expected {8 * count} payload bytes, found {len(payload)}"
        )
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    if not np.isfinite(flat).all():
        raise NonFiniteDataError(f"{path}: payload contains non-finite values")
    # allocated only now that the payload has been found to hold every entry
    return unflatten_params(flat, EncoderParams(*map(np.empty, shapes)))
