"""The repro.api facade after the removal of its demotion shim.

``Subscription`` and ``event_from_record`` were demoted to ``repro.obs``;
the facade no longer resolves them, and every name it does export
resolves without a warning.
"""

import warnings

import pytest

from repro import api, obs

DEMOTED = ("Subscription", "event_from_record")


class TestFacadeShim:
    def test_moved_names_are_not_in_all(self):
        for name in DEMOTED:
            assert name not in api.__all__
            assert name not in dir(api)
            assert name in obs.__all__

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            api.NoSuchName
        for name in DEMOTED:
            with pytest.raises(AttributeError):
                getattr(api, name)

    def test_blessed_names_stay_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for name in api.__all__:
                getattr(api, name)
