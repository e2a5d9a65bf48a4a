"""The package's public names."""

from collections import Counter

import irsim


def test_every_public_name_resolves_once():
    assert [name for name, k in Counter(irsim.__all__).items() if k > 1] == []
    assert [name for name in irsim.__all__ if not hasattr(irsim, name)] == []
