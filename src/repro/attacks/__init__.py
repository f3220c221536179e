"""Attack simulations: ROP, replay, pointer overwrites, brute force.

Each attack's :meth:`~repro.attacks.base.Attack.run` returns one
:class:`repro.inject.outcome.Outcome` row; the rows of
:func:`default_attacks` across the profiles form the E6 matrix.
"""

from repro.attacks.base import ArbitraryMemoryPrimitive, Attack
from repro.attacks.bruteforce import (
    BruteForceAttack,
    expected_guesses,
    success_probability,
)
from repro.attacks.fnptr import JopGadgetAttack, WritableFnPtrAttack
from repro.attacks.frametamper import FrameTamperAttack, frame_mac_profile
from repro.attacks.keyleak import (
    ModuleMrsAttack,
    OracleProbeAttack,
    SctlrDisableAttack,
    XomReadAttack,
)
from repro.attacks.opstable import (
    CredPointerAttack,
    OpsTableSwapAttack,
    RodataWriteAttack,
)
from repro.attacks.replay import ReplayAttack, cross_thread_replay_accepted
from repro.attacks.rop import RopInjectionAttack
from repro.attacks.runner import default_attacks

__all__ = [
    "Attack",
    "ArbitraryMemoryPrimitive",
    "RopInjectionAttack",
    "ReplayAttack",
    "cross_thread_replay_accepted",
    "WritableFnPtrAttack",
    "JopGadgetAttack",
    "FrameTamperAttack",
    "frame_mac_profile",
    "OpsTableSwapAttack",
    "RodataWriteAttack",
    "CredPointerAttack",
    "BruteForceAttack",
    "expected_guesses",
    "success_probability",
    "XomReadAttack",
    "ModuleMrsAttack",
    "SctlrDisableAttack",
    "OracleProbeAttack",
    "default_attacks",
]
