"""The attack suite behind the security-evaluation matrix.

Paper Section 6.2: which attacks succeed against an unprotected kernel,
which are stopped by backward-edge CFI alone, and which need the full
design (forward-edge CFI + DFI).  :func:`repro.bench.run_security_matrix`
runs :func:`default_attacks` against every profile into one
:class:`~repro.inject.outcome.Matrix`.
"""

from __future__ import annotations

from repro.attacks.bruteforce import BruteForceAttack
from repro.attacks.fnptr import JopGadgetAttack, WritableFnPtrAttack
from repro.attacks.frametamper import FrameTamperAttack
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
from repro.attacks.replay import ReplayAttack
from repro.attacks.rop import RopInjectionAttack

__all__ = ["default_attacks"]


def default_attacks():
    """The full suite, in the order the paper discusses them."""
    return [
        RopInjectionAttack(),
        ReplayAttack(variant="cross-function"),
        ReplayAttack(variant="same-function"),
        WritableFnPtrAttack(),
        JopGadgetAttack(),
        OpsTableSwapAttack(),
        RodataWriteAttack(),
        CredPointerAttack(),
        BruteForceAttack(),
        XomReadAttack(),
        ModuleMrsAttack(),
        SctlrDisableAttack(),
        OracleProbeAttack(),
        # The Section 8 future-work gap: expected to SUCCEED against
        # every published profile (the frame_mac extension closes it —
        # see the ablation benchmarks).
        FrameTamperAttack(),
    ]
