"""Block-source simulators and min-entropy certification.

Simulators exist to drive end-to-end tests: they draw samples from a fixed
model with a seeded deterministic generator, so streams are reproducible but
are NOT cryptographic randomness and must never be used as real entropy
input.  A certificate states the largest per-sample-bit min-entropy rate
the model guarantees for every contiguous window of samples conditioned on
any earlier assignment (the forward-block property):

  * i.i.d. models: rate * b = -log2(max point mass), exact.
  * order-1 Markov models (started from the uniform state distribution):
    rate * b = -log2(max transition probability); the uniform start never
    binds because each row's maximum is at least 2^-b.
  * explicit joint tables over at most 3 samples with b <= 4: checked
    exhaustively over every window and every positive-probability prefix.

File-backed sources replay captured bytes and are uncertifiable from data
alone; their rate is a physical assumption the caller must supply.
"""

from __future__ import annotations

import copy
import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterator, Sequence

import numpy as np

from .errors import InfeasibleError, TruncatedSourceError, UncertifiableError
from .params import _validate_sample_bits

PROB_SUM_TOL = 2.0 ** -30

# Widest `uniform` config model, built as a 2^b-entry float64 table (128 MiB).
MAX_UNIFORM_BITS = 24

_ANALYTIC_KINDS = ("iid-biased", "iid-table", "markov")

# Samples drawn and packed at a time by `sample_chunks`.
_CHUNK = 1 << 16


@dataclass(frozen=True)
class SourceModel:
    """A (b, N, rate)-block source specification.

    Use the factory functions (:func:`iid_biased`, :func:`iid_table`,
    :func:`markov`, :func:`file_source`, :func:`joint_table`) rather than
    constructing directly; they validate their parameters.  Every model
    refuses a sample width b outside 1..64.
    """

    kind: str
    bits_per_sample: int
    seed: int = 0
    p: float | None = None
    table: np.ndarray | None = None
    path: str | None = None

    def __post_init__(self):
        _validate_sample_bits(self.bits_per_sample)


@dataclass(frozen=True)
class MinEntropyCertificate:
    rate: float             # certified min-entropy bits per sample bit
    method: str             # "analytic" | "exhaustive"
    worst_guess_prob: float  # the conditional point mass that binds the rate


def _outcomes(bits_per_sample: int) -> int:
    _validate_sample_bits(bits_per_sample)  # before 2^b sizes anything
    return 1 << bits_per_sample


def _check_distribution(probs: np.ndarray, what: str) -> np.ndarray:
    probs = np.asarray(probs, dtype=np.float64)
    if np.any(probs < 0):
        raise ValueError(f"{what} has negative entries")
    if abs(float(probs.sum()) - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"{what} sums to {probs.sum()!r}, not 1 within 2^-30")
    return probs


def iid_biased(p: float, seed: int = 0) -> SourceModel:
    """One-bit i.i.d. samples, each 1 with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"bias {p} outside [0,1]")
    return SourceModel(kind="iid-biased", bits_per_sample=1, seed=seed, p=p)


def iid_table(probs: Sequence[float], bits_per_sample: int, seed: int = 0) -> SourceModel:
    """i.i.d. b-bit samples drawn from an explicit probability table."""
    probs = _check_distribution(np.asarray(probs), "probability table")
    if probs.shape != (_outcomes(bits_per_sample),):
        raise ValueError(
            f"table length {probs.shape} does not match 2^{bits_per_sample} outcomes"
        )
    return SourceModel(kind="iid-table", bits_per_sample=bits_per_sample, seed=seed, table=probs)


def markov(transitions, bits_per_sample: int, seed: int = 0) -> SourceModel:
    """Order-1 chain over b-bit states; the first sample is uniform."""
    t = np.asarray(transitions, dtype=np.float64)
    size = _outcomes(bits_per_sample)
    if t.shape != (size, size):
        raise ValueError(f"transition table must be {size}x{size}, got {t.shape}")
    for row in range(size):
        _check_distribution(t[row], f"transition row {row}")
    return SourceModel(kind="markov", bits_per_sample=bits_per_sample, seed=seed, table=t)


def file_source(path: str, bits_per_sample: int) -> SourceModel:
    """Replay raw bytes from a file as b-bit samples."""
    return SourceModel(kind="file", bits_per_sample=bits_per_sample, path=path)


def joint_table(probs, bits_per_sample: int) -> SourceModel:
    """Explicit joint distribution of a few consecutive samples.

    Only used by the exhaustive certifier; shape must be (2^b,) * m for
    m samples.
    """
    probs = np.asarray(probs, dtype=np.float64)
    size = _outcomes(bits_per_sample)
    if probs.ndim < 1 or any(s != size for s in probs.shape):
        raise ValueError(f"joint table axes must all have length {size}")
    _check_distribution(probs, "joint table")
    return SourceModel(kind="joint", bits_per_sample=bits_per_sample, table=probs)


def _pack_samples(values: np.ndarray, bits_per_sample: int) -> bytes:
    """Values below 2^b as b bits each, least significant first, packed little-endian.

    One-bit values are their own bits; unpacking them would cost a row each.
    """
    if bits_per_sample > 1:
        octets = np.asarray(values, dtype="<u8").view(np.uint8).reshape(-1, 8)
        values = np.unpackbits(octets, axis=1, count=bits_per_sample, bitorder="little")
    return np.packbits(values, bitorder="little").tobytes()


def sample_chunks(model: SourceModel, count: int) -> Iterator[bytes]:
    """Deterministic sample stream of count samples, as packed byte chunks.

    Joined, the chunks hold count * b bits packed little-endian; trailing
    pad bits of the final byte are zero.  Each simulated sample is one
    uniform draw u in [0, 1) from the model's seeded generator: 1 if u < p
    for `iid-biased`, else the first outcome whose CDF value exceeds u (for
    `markov`, in the current state's CDF row).  These are the draws
    `Generator.choice` makes.  They do not depend on how the draws are
    split, so every analytic kind draws and packs _CHUNK samples at a time
    (whole bytes but for the last chunk), and memory is one chunk plus the
    model's table.  A `markov` walk's first state is the one drawn after
    every u, taken from a copy of the generator advanced past them (each
    `random()` double is one 64-bit step).  A `file` model is one chunk:
    the file's first ceil(count * b / 8) bytes.

    Every check is made before this returns, so a caller can refuse a bad
    request before it opens its output: count < 1 and a model that cannot
    be sampled raise ValueError, a file too short TruncatedSourceError.
    """
    if count < 1:
        raise ValueError("sample count must be >= 1")
    b = model.bits_per_sample
    if model.kind == "file":
        need_bytes = (count * b + 7) // 8
        with open(model.path, "rb") as fh:
            buf = bytearray(fh.read(need_bytes))
        if len(buf) < need_bytes:
            raise TruncatedSourceError(
                f"{model.path} holds {len(buf)} bytes; {need_bytes} needed for "
                f"{count} samples of {b} bits"
            )
        buf[-1] &= 0xFF >> (-count * b % 8)  # zero the pad bits
        return iter((bytes(buf),))
    if model.kind not in _ANALYTIC_KINDS:
        raise ValueError(f"cannot generate from a {model.kind!r} model")
    rng = np.random.default_rng(model.seed)
    if model.kind == "markov":
        cum = np.cumsum(model.table, axis=1)
        cum[:, -1] = 1.0  # guard against float sum drift
        rows = cum.tolist()
        after = np.random.Generator(copy.deepcopy(rng.bit_generator).advance(count))
        state = int(after.integers(0, 1 << b))

        def draw(u):
            nonlocal state
            walk = accumulate(map(float, u), lambda s, x: bisect_right(rows[s], x),
                              initial=state)
            values = np.fromiter(walk, "<u8", len(u) + 1)[1:]
            state = int(values[-1])
            return values
    elif model.kind == "iid-biased":
        def draw(u):
            return u < model.p
    else:
        cdf = np.cumsum(model.table)
        cdf /= cdf[-1]  # a scalar divisor, so no full-size temporary

        def draw(u):
            return cdf.searchsorted(u, side="right")
    return (_pack_samples(draw(rng.random(min(_CHUNK, count - i))), b)
            for i in range(0, count, _CHUNK))


def generate(model: SourceModel, count: int) -> bytes:
    """The stream of :func:`sample_chunks` as one bytes object."""
    return b"".join(sample_chunks(model, count))


def certify_forward_block(model: SourceModel) -> MinEntropyCertificate:
    """Largest rate for which the model is a forward block source.

    Analytic for i.i.d. and Markov models; exhaustive for small joint
    tables.  File models raise: independence and entropy of captured data
    are physical assumptions, not checkable from the bytes.
    """
    b = model.bits_per_sample
    if model.kind in _ANALYTIC_KINDS:
        if model.kind == "iid-biased":
            pmax = max(model.p, 1.0 - model.p)
        else:
            # For markov, any window conditioned on a prefix is a path of
            # transitions; each step's mass is at most the global max entry,
            # and the uniform start distribution (2^-b <= any row max) never
            # binds.
            pmax = float(model.table.max())
        return MinEntropyCertificate(_rate_from_pmax(pmax, b), "analytic", pmax)
    if model.kind == "joint":
        return _certify_joint(model)
    if model.kind == "file":
        raise UncertifiableError(
            "file-backed sources carry no model; their entropy rate is a "
            "physical assumption"
        )
    raise ValueError(f"unknown model kind {model.kind!r}")


def _rate_from_pmax(pmax: float, b: int) -> float:
    if pmax >= 1.0:
        return 0.0
    return -math.log2(pmax) / b


def _certify_joint(model: SourceModel) -> MinEntropyCertificate:
    b = model.bits_per_sample
    probs = model.table
    m = probs.ndim
    if m > 3 or b > 4:
        raise InfeasibleError(
            f"exhaustive certification limited to <= 3 samples of <= 4 bits; "
            f"got {m} samples of {b} bits"
        )
    size = 1 << b
    worst_rate = 1.0
    worst_p = 0.0
    for k in range(1, m + 1):
        prefix_shape = (size,) * (k - 1)
        for prefix in np.ndindex(*prefix_shape):
            sub = probs[prefix]          # joint over samples k..m
            mass = float(sub.sum())
            if mass == 0.0:
                continue  # conditioning on an impossible prefix is undefined
            for i in range(k, m + 1):
                window = i - k + 1
                trailing = tuple(range(window, m - k + 1))
                marginal = sub.sum(axis=trailing) if trailing else sub
                cond_max = min(1.0, float(marginal.max()) / mass)
                rate = 0.0 if cond_max >= 1.0 else -math.log2(cond_max) / (window * b)
                if rate < worst_rate or (rate == worst_rate and cond_max > worst_p):
                    worst_rate = rate
                    worst_p = cond_max
    return MinEntropyCertificate(worst_rate, "exhaustive", worst_p)


def parse_model(config: dict) -> SourceModel:
    """Build a model from a parsed JSON config dict.

    A config that is not an object, lacks a key its kind needs, gives `b`
    or `seed` as anything but an integer (a bool, 2.5) or `p` as anything
    but a number (a bool, a list), or asks for a `uniform` model wider than
    MAX_UNIFORM_BITS, raises ValueError naming the problem.  Numbers and
    numeric strings are taken; `b` and `seed` must be integral.
    """
    if not isinstance(config, dict):
        raise ValueError(f"source config must be a JSON object, not {type(config).__name__}")
    kind = config.get("kind")

    def need(key: str):
        if key not in config:
            raise ValueError(f"source config of kind {kind!r} needs the key {key!r}")
        return config[key]

    def number(key: str, value, integral: bool = True):
        refused = ValueError(f"source config key {key!r} must be "
                             f"{'an integer' if integral else 'a number'}, got {value!r}")
        if isinstance(value, bool) or (integral and isinstance(value, float)
                                       and not value.is_integer()):
            raise refused
        try:
            return int(value) if integral else float(value)
        except (TypeError, ValueError):
            raise refused from None

    seed = number("seed", config.get("seed", 0))
    b_key = "b" if "b" in config else "bits_per_sample"
    b = number(b_key, config.get(b_key, 1))
    if kind == "iid-biased":
        return iid_biased(number("p", need("p"), integral=False), seed=seed)
    if kind == "iid-table":
        return iid_table(need("probs"), b, seed=seed)
    if kind == "uniform":
        size = _outcomes(b)
        if b > MAX_UNIFORM_BITS:
            raise ValueError(f"source config key {b_key!r} of kind 'uniform' must be at most "
                             f"{MAX_UNIFORM_BITS} (the model is a 2^b-entry table), got {b}")
        return iid_table(np.full(size, 2.0 ** -b), b, seed=seed)
    if kind == "markov":
        return markov(need("transitions"), b, seed=seed)
    if kind == "file":
        return file_source(str(need("path")), b)
    if kind == "joint":
        size = _outcomes(b)
        probs = np.asarray(need("probs"), dtype=np.float64)
        m = int(round(math.log(probs.size, size)))
        return joint_table(probs.reshape((size,) * m), b)
    raise ValueError(f"unknown source kind {kind!r}")


__all__ = [
    "MinEntropyCertificate",
    "SourceModel",
    "certify_forward_block",
    "file_source",
    "generate",
    "iid_biased",
    "iid_table",
    "joint_table",
    "markov",
    "parse_model",
    "sample_chunks",
]
