"""Row Hammer fault model and attack library.

:mod:`repro.rowhammer.model` accumulates activation-induced disturbance
per DA row with the paper's blast-radius weighting (effect halves per
wordline of distance, Section II-D) and reports bit-flips when a victim
crosses ``H_cnt`` within its effective refresh window.

:mod:`repro.rowhammer.attacks` generates the classic access patterns
(single-, double-, many-sided, blast) as physical-address streams, and
:mod:`repro.rowhammer.adversary` implements the three SHADOW-specific
adversarial scenarios of Section VII-A / Appendix XI.

:mod:`repro.rowhammer.templating` drives a mitigation, so it sits above
:mod:`repro.mitigations` and is not re-exported here.
"""

from repro.rowhammer.attacks import (
    AttackPattern,
    blast_attack,
    double_sided,
    half_double,
    many_sided,
    single_sided,
)
from repro.rowhammer.adversary import (
    ScenarioIAttacker,
    ScenarioIIAttacker,
    ScenarioIIIAttacker,
)
from repro.rowhammer.model import (
    BitFlip,
    DisturbanceModel,
    HammerConfig,
    blast_weight,
    blast_weight_sum,
)

__all__ = [
    "AttackPattern",
    "BitFlip",
    "DisturbanceModel",
    "HammerConfig",
    "ScenarioIAttacker",
    "ScenarioIIAttacker",
    "ScenarioIIIAttacker",
    "blast_attack",
    "blast_weight",
    "blast_weight_sum",
    "double_sided",
    "half_double",
    "many_sided",
    "single_sided",
]
