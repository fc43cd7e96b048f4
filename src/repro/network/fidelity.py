"""Fabric fidelity switches.

The simulator supports two network fidelity levels:

- ``"packet"`` (default) — every 32 KiB segment is an individual wire event
  on every hop.  Bit-identical to the calibrated baseline; always used for
  regression baselines.
- ``"flow"`` — a multi-segment message on an *uncongested* path is modeled
  as one analytic serialization+propagation interval per hop (a
  :class:`~repro.network.packet.Burst`), falling back to packet-level
  per-segment behavior automatically wherever other traffic contends for
  a link.  Validated against packet mode per artifact by ``python -m
  repro.bench validate-fidelity``.

Every topology reads the process-wide level, which comes from the
``REPRO_FIDELITY`` environment variable so that benchmark pool workers and
subprocesses inherit the mode without plumbing it through every
constructor; :func:`fidelity_override` sets it for a block of code.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

from repro.errors import ConfigurationError

#: recognized fidelity levels
FIDELITIES = ("packet", "flow")

ENV_VAR = "REPRO_FIDELITY"

#: Reason codes for every flow-fidelity decision a :class:`Link` takes on a
#: burst.  Links count each decision in ``link.flow_decisions`` (exposed as
#: ``link_flow_decisions{reason=...}`` callback gauges) and, under a span
#: tracer, record a zero-duration ``phase="fidelity"`` span per decision —
#: record-only markers that attribution ignores and that serve the Chrome
#: trace timeline (``bench trace --trace-out``).  All counts stay zero in
#: packet mode.
LINK_FLOW_DECISIONS = (
    "burst:carry",           # solo analytic train carried (closed form)
    "burst:expand:busy",     # downstream hop expanded: foreign occupancy
    "burst:expand:convoy",   # convoy path declined -> per-segment expansion
    "convoy:form",           # convoy grid pinned on an idle serializer
    "convoy:form:respace",   # grid formed by re-spacing a committed train
    "convoy:join",           # new member admitted to an existing grid
    "convoy:widen",          # grid widened (re-spaced) for a late arrival
    "convoy:lay",            # member sub-burst laid on its first-hop slots
    "convoy:carry",          # downstream hop carried a convoy train
    "convoy:decline",        # convoy asked for but grid/timing mismatched
)

#: Reason codes for the POE-side flow admission pipeline: whether a bulk
#: message enters the analytic fast-forward path at all, per-window
#: re-admission between sub-bursts, and mid-message fallbacks to the
#: per-segment loop (with cause).  Counted in ``poe.flow_tx_decisions``
#: (``poe_flow_decisions{reason=...}`` gauges) plus zero-duration
#: ``phase="fidelity"`` decision spans under a tracer.
POE_FLOW_DECISIONS = (
    "admit",                    # message enters the analytic burst path
    "reject:below_floor",       # shorter than the admission floor
    "reject:paced",             # cut-through producer paces segmentation
    "reject:packet_sibling",    # a sibling bulk tx runs the packet loop
    "reject:flow_control",      # credit/window state could stall mid-train
    "window:readmit",           # sub-burst window re-admitted mid-message
    "fallback:link_declined",   # first hop declined: convoy mismatch
    "fallback:packet_sibling",  # packet-loop sibling appeared mid-message
    "fallback:flow_control",    # flow-control state soured mid-message
)


def default_fidelity() -> str:
    """The process-wide fidelity: ``$REPRO_FIDELITY`` or ``"packet"``."""
    value = os.environ.get(ENV_VAR, "").strip().lower()
    if not value:
        return "packet"
    if value not in FIDELITIES:
        raise ConfigurationError(
            f"{ENV_VAR}={value!r} is not a fidelity level; "
            f"choose one of {', '.join(FIDELITIES)}"
        )
    return value


@contextmanager
def fidelity_override(fidelity: str) -> Iterator[str]:
    """Temporarily force the process-wide default (used by the validation
    harness to replay one artifact in both modes)."""
    if fidelity not in FIDELITIES:
        raise ConfigurationError(
            f"fidelity {fidelity!r} is not a fidelity level; "
            f"choose one of {', '.join(FIDELITIES)}"
        )
    previous = os.environ.get(ENV_VAR)
    os.environ[ENV_VAR] = fidelity
    try:
        yield fidelity
    finally:
        if previous is None:
            os.environ.pop(ENV_VAR, None)
        else:
            os.environ[ENV_VAR] = previous
