"""Package re-exports of the library types.

The warn-once ``repro.online.library`` shim is gone (its removal is
asserted in ``tests/test_public_api.py``); the package-level re-exports
it sat beside stay, and stay warning-free.
"""

import warnings


class TestDeprecationShim:
    def test_package_reexports_stay_warning_free(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.library import Cartridge as canonical_cartridge
            from repro.library import TapeLibrary as canonical
            from repro.online import Cartridge as compat_cartridge
            from repro.online import TapeLibrary as compat

        assert compat is canonical
        assert compat_cartridge is canonical_cartridge
