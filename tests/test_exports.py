"""The package's public names."""

import hm_sim


def test_every_exported_name_resolves_once_in_sorted_order():
    names = hm_sim.__all__
    assert [n for n in names if not hasattr(hm_sim, n)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)
