"""The package namespace: each public name is declared once, in its module."""

import wavemotil
from wavemotil import analysis, certificates, errors, frontmetrics, model, pde, waveode

MODULES = (errors, model, analysis, certificates, waveode, frontmetrics, pde)


def test_package_exports_exactly_the_module_lists():
    listed = [name for module in MODULES for name in module.__all__]
    assert len(listed) == len(set(listed)), "a name is public in two modules"
    assert sorted(wavemotil.__all__) == sorted(listed + ["__version__"])
    for module in MODULES:
        for name in module.__all__:
            assert getattr(wavemotil, name) is getattr(module, name), name
