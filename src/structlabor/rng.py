"""Deterministic randomness plumbing.

Every stochastic component draws from a counter-based Philox generator so
that results are reproducible bit for bit and independent of evaluation
order.  Substreams are derived from a single 64-bit root seed by hashing
(root, tag, index) with SHA-256; any component can therefore be re-run in
isolation without replaying the draws that precede it.

Philox produces four 64-bit words per counter block and a uniform double
consumes exactly one word, so ``Philox(key=s).advance(i)`` positions the
stream at the start of block ``i``.  A record that consumes one full block
(four uniforms) is then a pure function of ``(s, i)``, which is what the
chunked Monte Carlo sampler relies on.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import require
from .schema import INTENSITY, SEED_MAX, check


def check_seed(seed: int, name: str = "seed") -> int:
    """Validate and return a 64-bit unsigned seed."""
    is_int = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    if not (is_int and 0 <= seed <= SEED_MAX):
        # Inside the branch, so only a bad seed pays for formatting the messages.
        require(is_int, f"{name} must be an integer")
        require(0 <= seed <= SEED_MAX, f"{name} must lie in [0, 2**64 - 1]")
    return int(seed)


def derive_seed(root: int, tag: str, index: int = 0) -> int:
    """Derive a substream seed from (root, tag, index).

    The first eight bytes of SHA-256 over the packed inputs become the
    substream key.  Distinct tags or indices give statistically
    independent streams under the same root.
    """
    root = check_seed(root, "root seed")
    require(index >= 0, "stream index must be nonnegative")
    h = hashlib.sha256()
    h.update(root.to_bytes(8, "little"))
    h.update(tag.encode("utf-8"))
    h.update(int(index).to_bytes(8, "little"))
    return int.from_bytes(h.digest()[:8], "little")


def generator(seed: int) -> np.random.Generator:
    """A Philox-backed generator keyed directly by ``seed``."""
    return np.random.Generator(np.random.Philox(key=check_seed(seed)))


def stream(root: int, tag: str, index: int = 0) -> np.random.Generator:
    """A generator for the substream named by (tag, index) under ``root``."""
    return generator(derive_seed(root, tag, index))


def indexed_uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Uniform(0,1) draws addressed by record index.

    Returns a ``(count, 4)`` array where row ``i`` always holds the same
    four doubles for a given seed, no matter how the overall index range
    is split into chunks.  Each row occupies one Philox counter block.
    """
    check_seed(seed)
    require(start >= 0 and count >= 0, "start and count must be nonnegative")
    bg = np.random.Philox(key=seed)
    bg.advance(int(start))
    # Generator.random equals uniform(0, 1) bit for bit (0 + 1 * x), without the scaling pass.
    return np.random.Generator(bg).random(size=(count, 4))


def poisson_inverse_cdf(gen: np.random.Generator, lam: float) -> int:
    """One Poisson draw via inversion of a single uniform.

    Inversion keeps the draw monotone in ``lam`` for a fixed underlying
    uniform, which is what lets paired scenarios that differ only in the
    entry intensity share birth randomness.  Exactly one uniform is
    consumed even when ``lam`` is zero so that paired streams stay
    aligned.
    """
    check({"lam": lam}, {"lam": INTENSITY})
    u = gen.uniform()
    if lam == 0.0:
        return 0
    k = 0
    p = math.exp(-lam)
    cdf = p
    # The loop terminates quickly for any supported intensity; the bound
    # is a guard against pathological accumulated rounding.
    while u > cdf and k < 100_000:
        k += 1
        p *= lam / k
        cdf += p
    return k
