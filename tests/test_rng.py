import hashlib
import struct

import numpy as np
import pytest

from structlabor.errors import DomainError
from structlabor.rng import derive_seed, generator, indexed_uniforms, poisson_inverse_cdf, stream


def test_check_seed_rejected_values():
    with pytest.raises(DomainError):
        generator(-1)
    with pytest.raises(DomainError):
        generator(2**64)
    with pytest.raises(DomainError):
        generator(True)
    with pytest.raises(DomainError):
        generator(1.0)
    # The extremes of the legal range are fine.
    generator(0)
    generator(2**64 - 1)
    generator(np.uint64(17))


def test_derive_seed_matches_direct_hash():
    def reference(root, tag, index=0):
        h = hashlib.sha256()
        h.update(struct.pack("<Q", root))
        h.update(tag.encode("utf-8"))
        h.update(struct.pack("<Q", index))
        return struct.unpack("<Q", h.digest()[:8])[0]

    assert derive_seed(0, "calibration") == reference(0, "calibration")
    assert derive_seed(0, "calibration") == 8611252015350264022
    assert derive_seed(42, "entry", 3) == reference(42, "entry", 3)
    assert derive_seed(2**64 - 1, "x", 10**9) == reference(2**64 - 1, "x", 10**9)


def test_derive_seed_separates_tags_and_indices():
    seen = {
        derive_seed(5, "a"),
        derive_seed(5, "b"),
        derive_seed(5, "a", 1),
        derive_seed(6, "a"),
    }
    assert len(seen) == 4
    with pytest.raises(DomainError):
        derive_seed(5, "a", -1)


def test_indexed_uniforms_frozen_rows():
    u = indexed_uniforms(42, 0, 3)
    assert u.shape == (3, 4)
    assert list(u[0]) == [
        0.8201981478608876,
        0.18924562408645496,
        0.8676608148821462,
        0.3945814702827203,
    ]
    assert list(u[2]) == [
        0.8767979674463799,
        0.7670379910197939,
        0.34994861740634253,
        0.042743582238439326,
    ]


def test_indexed_uniforms_chunks_agree_with_one_shot():
    whole = indexed_uniforms(9001, 0, 1000)
    parts = np.vstack(
        [
            indexed_uniforms(9001, 0, 137),
            indexed_uniforms(9001, 137, 400),
            indexed_uniforms(9001, 537, 463),
        ]
    )
    assert np.array_equal(whole, parts)


def test_indexed_uniforms_empty_and_invalid():
    empty = indexed_uniforms(1, 10, 0)
    assert empty.shape == (0, 4)
    assert empty.dtype == np.float64
    with pytest.raises(DomainError):
        indexed_uniforms(1, -1, 5)
    with pytest.raises(DomainError):
        indexed_uniforms(1, 0, -5)


def test_stream_is_derive_seed_composed_with_generator():
    a = stream(7, "entry", 3).uniform(size=8)
    b = generator(derive_seed(7, "entry", 3)).uniform(size=8)
    assert np.array_equal(a, b)


def test_poisson_zero_intensity_still_consumes_one_uniform():
    g1 = generator(123)
    g2 = generator(123)
    n = poisson_inverse_cdf(g1, 0.0)
    assert n == 0
    g2.uniform()
    # After the draw both generators sit at the same point of the stream.
    assert g1.uniform() == g2.uniform()


def test_poisson_counts_monotone_in_intensity():
    # Inverse transform sampling with a shared uniform cannot decrease the
    # count when the intensity rises.
    for seed in range(40):
        lo = poisson_inverse_cdf(generator(seed), 0.7)
        hi = poisson_inverse_cdf(generator(seed), 1.4)
        assert hi >= lo


def test_poisson_mean_roughly_matches_intensity():
    g = generator(77)
    draws = [poisson_inverse_cdf(g, 3.0) for _ in range(20000)]
    assert abs(np.mean(draws) - 3.0) < 0.05


def test_poisson_rejects_bad_intensity():
    g = generator(0)
    with pytest.raises(DomainError):
        poisson_inverse_cdf(g, -0.1)
    with pytest.raises(DomainError):
        poisson_inverse_cdf(g, float("inf"))
    with pytest.raises(DomainError):
        poisson_inverse_cdf(g, float("nan"))
    with pytest.raises(DomainError):
        poisson_inverse_cdf(g, 501.0)
