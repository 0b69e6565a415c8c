"""The package namespace exports exactly what ``__all__`` lists."""
import cxsect


def test_all_names_resolve():
    assert [name for name in cxsect.__all__ if not hasattr(cxsect, name)] == []
    assert len(set(cxsect.__all__)) == len(cxsect.__all__)
