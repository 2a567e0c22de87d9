import spherefit


def test_all_names_are_unique_and_resolve():
    names = spherefit.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(spherefit, name)]
    assert missing == []
