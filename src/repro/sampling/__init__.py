"""PMU address-sampling models (PEBS-LL, IBS) and the overhead model."""

from .dump import iter_samples, load_samples, save_samples
from .events import AddressSample, SampleLog, data_source
from .ibs import IBSSampler
from .overhead import (
    ASLOP_INSTRUMENTATION,
    BURSTY_SAMPLING_INSTRUMENTATION,
    REUSE_DISTANCE_INSTRUMENTATION,
    InstrumentationModel,
    OverheadModel,
)
from .other_pmus import DEARSampler, MRKSampler, Pentium4PEBSSampler
from .pebs import DEFAULT_LDLAT, PEBSLoadLatencySampler
from .sampler import SamplingEngine

__all__ = [
    "ASLOP_INSTRUMENTATION",
    "AddressSample",
    "BURSTY_SAMPLING_INSTRUMENTATION",
    "DEARSampler",
    "DEFAULT_LDLAT",
    "MRKSampler",
    "Pentium4PEBSSampler",
    "IBSSampler",
    "InstrumentationModel",
    "OverheadModel",
    "PEBSLoadLatencySampler",
    "REUSE_DISTANCE_INSTRUMENTATION",
    "SampleLog",
    "SamplingEngine",
    "data_source",
    "iter_samples",
    "load_samples",
    "save_samples",
]
