import cartierv


def test_all_names_resolve():
    missing = [name for name in cartierv.__all__ if not hasattr(cartierv, name)]
    assert not missing


def test_all_is_sorted_without_duplicates():
    assert list(cartierv.__all__) == sorted(set(cartierv.__all__))


def test_star_import():
    namespace: dict = {}
    exec("from cartierv import *", namespace)
    assert set(cartierv.__all__) <= set(namespace)
