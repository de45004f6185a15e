"""Reproduction of "Don't Knock! Rowhammer at the Backdoor of DNN Models".

The package is organized bottom-up:

- :mod:`repro.autodiff` -- a from-scratch NumPy reverse-mode autograd engine.
- :mod:`repro.nn`, :mod:`repro.optim` -- neural-network layers and optimizers.
- :mod:`repro.data` -- synthetic datasets and trigger-pattern utilities.
- :mod:`repro.models` -- ResNet and VGG architectures from the paper.
- :mod:`repro.quant` -- TensorRT-style int8 quantization and bit manipulation.
- :mod:`repro.memory` -- DRAM geometry, page cache and mmap simulation.
- :mod:`repro.rowhammer` -- n-sided Rowhammer engine and fault profiling.
- :mod:`repro.attacks` -- CFT/CFT+BR and the BadNet/FT/TBT baselines.
- :mod:`repro.defenses` -- the countermeasures evaluated in Section VI.
- :mod:`repro.analysis` -- probability analysis, metrics and GradCAM.
- :mod:`repro.core` -- end-to-end offline+online attack pipeline.
- :mod:`repro.telemetry` -- metrics, spans and the benchmark report format.
"""

# NumPy 2 loads ``numpy.ma`` on the first ``np.unique`` call (scipy used to
# import it along with itself); loading it with the package keeps that
# one-off 15-25 ms out of the first profiling or attack step.
import numpy.ma  # noqa: F401

from repro.version import __version__

__all__ = ["__version__"]
