"""The two Gaussian ufuncs the package takes from scipy: ndtr and ndtri.

They are all the package uses of scipy, yet ``from scipy.special import
...`` runs the whole ``scipy.special`` package init, which costs about 0.3 s
and some 14 MB, more than the setup of the rest of the package. So this
module loads the two ufuncs straight from the compiled
``scipy.special._ufuncs`` behind a stand-in ``scipy.special``: a bare
module whose ``__path__`` is scipy's ``special`` directory. The stand-in and
every ``scipy.special.*`` module that the import adds are taken out of
``sys.modules`` again, so a later ``import scipy.special`` runs the real
init, and its ``ndtr`` and ``ndtri`` are the objects loaded here (a compiled
module is loaded once per interpreter).

This leans on scipy's layout: ``special`` is a directory of the ``scipy``
package, and ``_ufuncs`` in it defines ``ndtr`` and ``ndtri`` without
needing the package init. That was checked on scipy 1.17.1 only, while
``pyproject.toml`` allows scipy >= 1.10. So the module falls back to the
plain ``from scipy.special import ndtr, ndtri`` when ``scipy.special`` is
already imported, when the light route cannot import ``_ufuncs``
(ImportError), or when ``_ufuncs`` lacks either name (AttributeError).
The cleanup reads ``vars(scipy)``, never ``getattr``/``hasattr``: scipy's
module ``__getattr__`` would import the full ``scipy.special``. While the
stand-in is in ``sys.modules``, another thread that imports
``scipy.special`` would get it; the package loads this module at its own
import, before it starts any thread.
"""

from __future__ import annotations

import os
import sys
import types


def _light_ufuncs():
    """ndtr and ndtri from scipy.special._ufuncs, without scipy.special's init."""
    import scipy

    stand_in = types.ModuleType("scipy.special")
    stand_in.__path__ = [os.path.join(p, "special") for p in scipy.__path__]
    before = set(sys.modules)
    sys.modules["scipy.special"] = stand_in
    try:
        from scipy.special import _ufuncs

        return _ufuncs.ndtr, _ufuncs.ndtri
    finally:
        for name in set(sys.modules) - before:
            if name == "scipy.special" or name.startswith("scipy.special."):
                del sys.modules[name]
        if vars(scipy).get("special") is stand_in:
            del scipy.special


def _load():
    if "scipy.special" not in sys.modules:
        try:
            return _light_ufuncs()
        except (ImportError, AttributeError):  # another scipy layout
            pass
    from scipy.special import ndtr, ndtri

    return ndtr, ndtri


ndtr, ndtri = _load()
