"""The package's public namespace."""

import gradprune


def test_every_exported_name_resolves():
    namespace: dict = {}
    exec("from gradprune import *", namespace)
    assert set(gradprune.__all__) <= set(namespace)
