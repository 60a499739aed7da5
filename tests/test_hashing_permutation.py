"""Tests for repro.hashing.permutation."""

from __future__ import annotations

import pickle

import pytest

from repro.exceptions import ConfigurationError
from repro.hashing import permutation
from repro.hashing.permutation import AffinePermutation, FeistelPermutation, RandomPermutation


@pytest.mark.parametrize("domain", [1, 2, 7, 10, 64, 100, 257])
def test_feistel_is_bijection(domain):
    perm = FeistelPermutation(domain_size=domain, seed=3)
    outputs = sorted(perm(x) for x in range(domain))
    assert outputs == list(range(domain))


@pytest.mark.parametrize("domain", [1, 2, 9, 16, 101])
def test_affine_is_bijection(domain):
    perm = AffinePermutation(domain_size=domain, seed=3)
    outputs = sorted(perm(x) for x in range(domain))
    assert outputs == list(range(domain))


def test_feistel_inverse_roundtrip():
    perm = FeistelPermutation(domain_size=200, seed=9)
    for x in range(200):
        assert perm.inverse(perm(x)) == x


def test_affine_inverse_roundtrip():
    perm = AffinePermutation(domain_size=97, seed=5)
    for x in range(97):
        assert perm.inverse(perm(x)) == x


def test_feistel_seed_changes_mapping():
    perm_a = FeistelPermutation(domain_size=500, seed=1)
    perm_b = FeistelPermutation(domain_size=500, seed=2)
    differences = sum(1 for x in range(500) if perm_a(x) != perm_b(x))
    assert differences > 400


def test_feistel_deterministic():
    perm_a = FeistelPermutation(domain_size=64, seed=7)
    perm_b = FeistelPermutation(domain_size=64, seed=7)
    assert [perm_a(x) for x in range(64)] == [perm_b(x) for x in range(64)]


def test_out_of_domain_raises():
    perm = FeistelPermutation(domain_size=10, seed=0)
    with pytest.raises(ConfigurationError):
        perm(10)
    with pytest.raises(ConfigurationError):
        perm(-1)
    with pytest.raises(ConfigurationError):
        perm.inverse(10)


def test_invalid_construction_raises():
    with pytest.raises(ConfigurationError):
        FeistelPermutation(domain_size=0)
    with pytest.raises(ConfigurationError):
        FeistelPermutation(domain_size=8, rounds=1)
    with pytest.raises(ConfigurationError):
        AffinePermutation(domain_size=0)


def test_random_permutation_alias_is_feistel():
    assert RandomPermutation is FeistelPermutation


def test_affine_derives_its_coefficients_once(monkeypatch):
    perm = AffinePermutation(domain_size=1000, seed=4)
    calls = []
    real = permutation.stable_hash64

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(permutation, "stable_hash64", counting)
    outputs = [perm(x) for x in range(1000)]
    assert [perm.inverse(y) for y in outputs] == list(range(1000))
    assert calls == []


def test_affine_pickle_round_trip():
    perm = AffinePermutation(domain_size=257, seed=11)
    clone = pickle.loads(pickle.dumps(perm))
    assert clone == perm
    assert [clone(x) for x in range(257)] == [perm(x) for x in range(257)]
