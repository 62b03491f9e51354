"""Runtime span tracing at the layer boundaries of ``repro``.

The traced run patches the public functions listed in :data:`BOUNDARIES`
(the class attribute, or the module binding its callers actually use) with
thin wrappers that record one span per call: boundary name, start, end,
parent span and op id, plus a byte size for the AEAD and storage-write
boundaries.  Spans never hold argument values.  Nothing under ``src/`` is
edited; :meth:`Tracer.uninstall` puts every original binding back.

Spans stay in memory while the workload runs and are written out once, at
the end.  Per-layer figures are derived from them: a span's *self time* is
its duration minus the durations of its direct children, so the self times
of all spans add up to the wall time covered by traced calls.
"""

from __future__ import annotations

import importlib
import inspect
import json
from functools import wraps
from pathlib import Path
from time import perf_counter


def _arg_len(position: int, keyword: str):
    """Size probe: ``len`` of one positional/keyword argument (a length,
    never the value)."""

    def size(args: tuple, kwargs: dict) -> int:
        if len(args) > position:
            return len(args[position])
        return len(kwargs.get(keyword, b""))

    return size


#: ``(group, module, qualified name, size probe)``.  ``group`` is
#: ``<layer>.<component>``; the layer is a ``repro`` subpackage (``wire`` is
#: the one top-level module).  Methods are patched on their class, module
#: functions at the binding their callers look up: ``seal_data`` is imported
#: by name into ``repro.sgx.sdk`` and ``run_preflight`` into
#: ``repro.fleet.service``; ``schnorr``, ``wire`` and ``planner`` are called
#: through their module.
BOUNDARIES: tuple[tuple, ...] = (
    ("crypto.pk", "repro.crypto.dh", "DiffieHellman.generate_keypair", None),
    ("crypto.pk", "repro.crypto.dh", "DiffieHellman.shared_secret", None),
    ("crypto.pk", "repro.crypto.schnorr", "sign", None),
    ("crypto.pk", "repro.crypto.schnorr", "verify", None),
    ("crypto.pk", "repro.crypto.epid", "EpidMemberKey.sign", None),
    ("crypto.pk", "repro.crypto.epid", "EpidGroup.verify", None),
    ("crypto.aead", "repro.crypto.gcm", "AesGcm.encrypt", _arg_len(2, "plaintext")),
    ("crypto.aead", "repro.crypto.gcm", "AesGcm.decrypt", _arg_len(2, "ciphertext")),
    ("crypto.cmac", "repro.crypto.cmac", "AesCmac.mac", None),
    ("sgx.ecall", "repro.sgx.enclave", "Enclave.ecall", None),
    ("sgx.seal", "repro.sgx.sdk", "seal_data", None),
    ("sgx.seal", "repro.sgx.sdk", "unseal_data", None),
    ("attestation.ra", "repro.attestation.remote", "RemoteAttestationInitiator.msg1", None),
    ("attestation.ra", "repro.attestation.remote", "RemoteAttestationInitiator.finish", None),
    ("attestation.ra", "repro.attestation.remote", "RemoteAttestationResponder.msg2", None),
    ("attestation.la", "repro.attestation.local", "LocalAttestationInitiator.msg1", None),
    ("attestation.la", "repro.attestation.local", "LocalAttestationInitiator.finish", None),
    ("attestation.la", "repro.attestation.local", "LocalAttestationResponder.msg0", None),
    ("attestation.la", "repro.attestation.local", "LocalAttestationResponder.msg2", None),
    ("attestation.channel", "repro.attestation.channel", "SecureChannel.send", None),
    ("attestation.channel", "repro.attestation.channel", "SecureChannel.recv", None),
    ("core.migrate", "repro.core.protocol", "MigratableApp.migrate", None),
    ("core.migrate", "repro.core.protocol", "MigratableApp.migrate_group", None),
    ("core.migrate", "repro.core.protocol", "MigratableApp._execute", None),
    ("wire.codec", "repro.wire", "encode", None),
    ("wire.codec", "repro.wire", "decode", None),
    ("cloud.net", "repro.cloud.network", "Network.send", None),
    ("cloud.storage", "repro.cloud.storage", "UntrustedStorage.write", _arg_len(2, "data")),
    ("cloud.storage", "repro.cloud.storage", "UntrustedStorage.sync", None),
    ("cloud.storage", "repro.cloud.storage", "UntrustedStorage.read", None),
    ("cloud.storage", "repro.cloud.storage", "UntrustedStorage.rename", None),
    ("cloud.storage", "repro.cloud.storage", "UntrustedStorage.delete", None),
    ("sim.charge", "repro.sim.costs", "CostMeter.charge", None),
    ("sim.charge", "repro.sim.costs", "CostMeter.charge_exact", None),
    ("sim.scheduler", "repro.sim.scheduler", "Scheduler.run", None),
    ("fleet.service", "repro.fleet.service", "FleetService.apply_many", None),
    ("fleet.plan", "repro.fleet.planner", "plan_drain", None),
    ("fleet.conflict_graph", "repro.fleet.planner", "build_conflict_graph", None),
    ("fleet.preflight", "repro.fleet.service", "run_preflight", None),
    ("fleet.journal", "repro.fleet.journal", "FleetPlanJournal.write", None),
    ("fleet.journal", "repro.fleet.journal", "FleetPlanIndex.write", None),
)

LAYERS = ("crypto", "sgx", "attestation", "core", "wire", "cloud", "sim", "fleet")

#: Boundaries each workload must fire in its traced block; the traced run
#: fails when one stays silent (a renamed function would otherwise read as
#: a free layer).
EXPECTED_GROUPS: dict[str, frozenset[str]] = {
    "migrate_serial": frozenset({
        "crypto.pk", "crypto.aead", "crypto.cmac", "sgx.ecall", "sgx.seal",
        "attestation.ra", "attestation.la", "attestation.channel",
        "core.migrate", "wire.codec", "cloud.net", "cloud.storage",
        "sim.charge",
    }),
    "enclave_ops": frozenset({
        "crypto.aead", "crypto.cmac", "sgx.ecall", "sgx.seal", "sim.charge",
    }),
    "drain_dense": frozenset(group for group, *_ in BOUNDARIES),
}

#: Charge labels by the virtual-time group they are summed into.  ``pse_*``
#: labels (the proxy hop included) go to ``pse`` and ``lib_*`` to ``lib``;
#: labels not listed (ECALL/OCALL transitions, EGETKEY, EREPORT, AES-GCM,
#: VM copy, ...) go to ``cpu``.
LABEL_GROUPS: dict[str, str] = {
    "quote_generation": "attestation",
    "ias_round_trip": "attestation",
    "dh_keygen": "attestation",
    "dh_shared": "attestation",
    "net_rtt": "net",
    "net_transfer": "net",
    "kdc_round_trip": "net",
}
VIRTUAL_GROUPS = ("pse", "attestation", "net", "lib", "cpu")


def label_group(label: str) -> str:
    if label.startswith("pse_"):
        return "pse"
    if label.startswith("lib_"):
        return "lib"
    return LABEL_GROUPS.get(label, "cpu")


class Tracer:
    """Span recorder over the :data:`BOUNDARIES` wrap points.

    Wrappers record only while :attr:`active` is set, so set-up and the
    correctness checks between timed ops stay out of the ledger.
    """

    def __init__(self) -> None:
        self.active = False
        self.op = -1
        self.names: list[str] = []
        self.groups: list[str] = []
        #: ``[name index, start, end, parent span, op id, size]``
        self.spans: list[list] = []
        self._stack: list[int] = []
        #: Virtual seconds charged per cost label while active.
        self.virtual: dict[str, float] = {}
        self._originals: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ patching
    def install(self) -> None:
        for group, module_name, qualname, size in BOUNDARIES:
            owner = importlib.import_module(module_name)
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            self._patch(owner, attr, f"{module_name}.{qualname}", group, size)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _patch(self, owner, attr: str, name: str, group: str, size) -> None:
        static = inspect.getattr_static(owner, attr)
        descriptor = type(static) if isinstance(static, (classmethod, staticmethod)) else None
        function = static.__func__ if descriptor else static
        name_index = len(self.names)
        self.names.append(name)
        self.groups.append(group)
        charge = group == "sim.charge"
        spans, stack = self.spans, self._stack

        @wraps(function)
        def traced(*args, **kwargs):
            if not self.active:
                return function(*args, **kwargs)
            record = [
                name_index, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                size(args, kwargs) if size else 0,
            ]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if charge:
                label = args[1] if len(args) > 1 else kwargs["label"]
                self.virtual[label] = self.virtual.get(label, 0.0) + result
            return result

        self._originals.append((owner, attr, static))
        setattr(owner, attr, descriptor(traced) if descriptor else traced)

    # ------------------------------------------------------------- ledger
    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] for i, (_, start, end, *_) in enumerate(self.spans)]

    def group_stats(self) -> tuple[dict[str, dict], dict[str, int]]:
        """``group -> {calls, self_s, bytes}`` and calls per boundary name."""
        stats = {group: {"calls": 0, "self_s": 0.0, "bytes": 0} for group in self.groups}
        per_name = [0] * len(self.names)
        for (name_index, *_, size), self_s in zip(self.spans, self.self_times()):
            entry = stats[self.groups[name_index]]
            entry["calls"] += 1
            entry["self_s"] += self_s
            entry["bytes"] += size
            per_name[name_index] += 1
        return stats, dict(zip(self.names, per_name))

    def silent_groups(self, workload: str) -> list[str]:
        fired = {self.groups[span[0]] for span in self.spans}
        return sorted(EXPECTED_GROUPS[workload] - fired)

    def write(self, path: Path) -> None:
        """Dump every span (names, timings, sizes — no argument values)."""
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                {
                    "names": self.names,
                    "groups": self.groups,
                    "fields": ["name", "start", "end", "parent", "op", "size"],
                    "spans": self.spans,
                },
                out,
                separators=(",", ":"),
            )
