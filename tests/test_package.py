import l1subgrad


def test_every_export_resolves():
    missing = [name for name in l1subgrad.__all__ if not hasattr(l1subgrad, name)]
    assert missing == []
    assert len(set(l1subgrad.__all__)) == len(l1subgrad.__all__)
