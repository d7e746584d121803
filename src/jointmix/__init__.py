"""Joint mixability toolkit: verdicts, constant-sum couplings, and
rearrangement-based numerical evidence.

The names below, and the submodules themselves, load on first access
(PEP 562): ``import jointmix`` imports no submodule, and a verdict on scales
alone (``jointmix check --sigmas``) loads neither numpy nor scipy.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "generators": "CharacteristicGenerator MixingLaw cg_eval mixing_law sample_mixing",
    "families": "BimodalMoment BimodalPower Elliptical GeneralizedLogistic KotzType "
    "LocationScaleSymmetric MixtureFamily SkewNormal SlashElliptical SSMN Uniform "
    "UnivariateFamily family_from_spec",
    "mixability": "JM NOT_JM UNKNOWN MixabilityVerdict check_scale_inequality "
    "jm_verdict_elliptical jm_verdict_unimodal_location_scale not_jm_bounded_symmetric "
    "not_jm_unbounded_symmetric skewnormal_noncm_certificate ssmn_noncm_certificate",
    "couplings": "EquicorrelationPlan MatrixSampleBatch PolygonInequalityError SampleBatch "
    "elliptical_jm_covariance polygon_unit_vectors sample_cm_scale_mixture "
    "sample_jm_elliptical sample_jm_slash sample_matrix_variate_cm transform_center",
    "oracle": "QuantileGrid RearrangementResult brute_force_min_spread discretize "
    "ra_minimize verify_constant_sum",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_HOME, *_EXPORTS})
