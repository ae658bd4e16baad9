"""The package's public names."""

import urelnet


def test_every_exported_name_resolves_once_in_sorted_order():
    names = urelnet.__all__
    assert names == sorted(names)
    assert len(names) == len(set(names))
    unresolved = [name for name in names if not hasattr(urelnet, name)]
    assert unresolved == []
    assert {"InferringModel", "Model", "RelationNetwork"} <= set(names)
