"""Persistent cache of exact reduced coefficients.

Line-oriented text format, one record per line::

    FLCOEFF v1 <l1,..,lk> <p> <sha256 of body>
    k l1..lk | j1..jk | num/den

Integers are decimal, arbitrary precision; rationals are in lowest terms.
Re-saving an identical tensor yields a byte-identical file.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from fractions import Fraction
from pathlib import Path

from .coefficients import CoeffTensor, WeightProfile, bar_coefficient

__all__ = [
    "save",
    "load",
    "default_store_dir",
    "store_path",
    "StoreError",
    "StoreVersionError",
    "StoreChecksumError",
    "StoreTruncatedError",
    "StoreFormatError",
    "InsufficientCapError",
]

FORMAT_TAG = "FLCOEFF"
FORMAT_VERSION = "v1"


class StoreError(Exception):
    """Base class for coefficient store failures."""


class StoreVersionError(StoreError):
    """Header tag or version does not match this implementation."""


class StoreChecksumError(StoreError):
    """Body does not hash to the checksum recorded in the header."""


class StoreTruncatedError(StoreError):
    """File holds fewer records than the header promises."""


class StoreFormatError(StoreError):
    """A record line is malformed."""


class InsufficientCapError(StoreError):
    """Stored cap is smaller than the requested one."""


def default_store_dir() -> Path:
    """Coefficient store directory: $STOCHTAYLOR_STORE, else user cache."""
    env = os.environ.get("STOCHTAYLOR_STORE")
    if env:
        return Path(env)
    cache_home = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    return Path(cache_home) / "stochtaylor"


def store_path(profile, p: int, directory: Path | None = None) -> Path:
    profile = WeightProfile(profile)
    d = Path(directory) if directory is not None else default_store_dir()
    return d / f"coeffs_{'-'.join(map(str, profile))}_p{p}.flc"


def _body_lines(tensor: CoeffTensor) -> list[str]:
    profile = tensor.profile
    head = f"{profile.k} {' '.join(map(str, profile))}"
    lines = []
    for j in sorted(tensor.values):
        v = tensor.values[j]
        num, den = v.numerator, v.denominator
        lines.append(f"{head} | {' '.join(map(str, j))} | {num}/{den}")
    return lines


def save(tensor: CoeffTensor, path, force: bool = False) -> int:
    """Write ``tensor`` to ``path``; returns the number of records written.

    Refuses to overwrite an existing file unless ``force`` is set.  The write
    is atomic (temp file + rename).
    """
    path = Path(path)
    if path.exists() and not force:
        raise FileExistsError(f"{path} exists; pass force=True to overwrite")
    body = _body_lines(tensor)
    payload = "\n".join(body) + "\n"
    checksum = hashlib.sha256(payload.encode()).hexdigest()
    header = (
        f"{FORMAT_TAG} {FORMAT_VERSION} "
        f"{','.join(map(str, tensor.profile))} {tensor.p} {checksum}\n"
    )
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(header)
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return len(body)


def load(path, profile, p: int) -> CoeffTensor:
    """Read a tensor back; ``p`` may be smaller than stored (sub-box).

    Raises distinct errors for version mismatch, checksum failure, truncated
    files, and insufficient stored cap.
    """
    path = Path(path)
    profile = WeightProfile(profile)
    with open(path) as fh:
        header = fh.readline().rstrip("\n")
        payload = fh.read()
    parts = header.split()
    if len(parts) != 5 or parts[0] != FORMAT_TAG:
        raise StoreVersionError(f"{path}: not a {FORMAT_TAG} file")
    if parts[1] != FORMAT_VERSION:
        raise StoreVersionError(f"{path}: version {parts[1]} != {FORMAT_VERSION}")
    stored_profile = WeightProfile(int(v) for v in parts[2].split(","))
    if stored_profile != profile:
        raise StoreFormatError(
            f"{path}: stored profile {stored_profile} != requested {profile}"
        )
    stored_p = int(parts[3])
    if p > stored_p:
        raise InsufficientCapError(
            f"{path}: stored cap {stored_p} < requested {p}; rebuild the store"
        )
    if hashlib.sha256(payload.encode()).hexdigest() != parts[4]:
        raise StoreChecksumError(f"{path}: body checksum mismatch")
    lines = payload.splitlines()
    expected = (stored_p + 1) ** profile.k
    if len(lines) < expected:
        raise StoreTruncatedError(f"{path}: {len(lines)} records, expected {expected}")
    values = {}
    for line in lines:
        try:
            head, jpart, vpart = (s.strip() for s in line.split("|"))
            j = tuple(int(v) for v in jpart.split())
            num, den = vpart.split("/")
        except ValueError as exc:
            raise StoreFormatError(f"{path}: bad record {line!r}") from exc
        if max(j) <= p:
            values[j] = Fraction(int(num), int(den))
    if len(values) != (p + 1) ** profile.k:
        raise StoreTruncatedError(f"{path}: sub-box {p} incomplete")
    return CoeffTensor(profile, p, values)


def verify(path, profile, p: int, samples: int = 1000, seed: int = 0) -> int:
    """Spot-check stored records against fresh symbolic integration.

    Recomputes up to ``samples`` randomly chosen records; returns the number
    checked.  Raises ``StoreError`` on any mismatch.
    """
    import random

    tensor = load(path, profile, p)
    keys = sorted(tensor.values)
    rng = random.Random(seed)
    if len(keys) > samples:
        keys = rng.sample(keys, samples)
    for j in keys:
        expect = bar_coefficient(tensor.profile, j)
        if tensor.values[j] != expect:
            raise StoreError(f"record {j}: stored {tensor.values[j]} != recomputed {expect}")
    return len(keys)
