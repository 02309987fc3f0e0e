import boxball


def test_every_exported_name_resolves_once():
    names = boxball.__all__
    assert len(names) == len(set(names)), "duplicate names in boxball.__all__"
    missing = [n for n in names if not hasattr(boxball, n)]
    assert missing == []
