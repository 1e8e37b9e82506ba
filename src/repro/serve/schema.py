"""Typed request schema for ``POST /compile``.

Three request forms, dispatched on which key is present (exactly one
of ``table`` / ``benchmark`` / ``spec``):

raw truth table::

    {"table": [0, 1, 3, 2], "n_outputs": 2, "name": "gray2"}

registered workload::

    {"benchmark": "cos", "bits": 10}

full spec (a ``RunSpec`` equivalent, e.g. replayed from a campaign
checkpoint — the search ``architecture`` and full ``config`` travel
inside it)::

    {"spec": {"algorithm": "bs-sa", "table": [...], "n_inputs": 2,
              "n_outputs": 2, "name": "gray2", "config": {...},
              "architecture": "bto-normal-nd", "direct_seed": 0}}

The first two forms also accept ``architecture`` / ``algorithm`` /
``budget`` / ``seed`` knobs (defaults match ``repro compile``).  The
spec form derives the hardware architecture from the spec's search
architecture instead — the same bijection ``compile_api`` uses — so
one fingerprint always names one artifact.

All validation failures raise :class:`RequestError` carrying the HTTP
status the daemon should answer with; nothing here touches the
network.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Any, Dict, Optional

from .. import compile_api
from ..core.compiler import ALGORITHMS, ARCHITECTURES
from ..core.config import AlgorithmConfig
from ..experiments.parallel import RunSpec
from ..workloads import names as workload_names

__all__ = ["CompileRequest", "RequestError", "parse_compile_request"]

_NAME_RE = re.compile(r"^[A-Za-z0-9_.\-]{1,64}$")

_COMMON_KEYS = {"architecture", "algorithm", "budget", "seed"}
_FORM_KEYS = {
    "table": {"table", "n_outputs", "name"} | _COMMON_KEYS,
    "benchmark": {"benchmark", "bits"} | _COMMON_KEYS,
    "spec": {"spec"},
}
_SPEC_KEYS = {
    "algorithm",
    "table",
    "n_inputs",
    "n_outputs",
    "name",
    "config",
    "base_seed",
    "spawn_index",
    "architecture",
    "direct_seed",
}
_SEARCH_ARCHITECTURES = ("normal", "bto-normal", "bto-normal-nd")
_CONFIG_FIELDS = {field.name for field in dataclasses.fields(AlgorithmConfig)}


class RequestError(Exception):
    """A malformed or unserviceable request; ``status`` is the HTTP code."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


@dataclasses.dataclass
class CompileRequest:
    """A validated request, ready for the service queue."""

    spec: RunSpec
    form: str  # "table" | "benchmark" | "spec"

    @property
    def fingerprint(self) -> str:
        return self.spec.fingerprint()

    @property
    def architecture(self) -> str:
        return compile_api.requested_architecture(self.spec)


def _require(document: Dict[str, Any], key: str, kinds, form: str) -> Any:
    value = document.get(key)
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise RequestError(
            f"{form} request: {key!r} must be "
            f"{getattr(kinds, '__name__', kinds)}"
        )
    return value


def _int_knob(
    document: Dict[str, Any], key: str, default: Optional[int]
) -> Optional[int]:
    value = document.get(key, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise RequestError(f"{key!r} must be an integer")
    return value


def _seed_knob(
    document: Dict[str, Any], key: str, default: Optional[int]
) -> Optional[int]:
    # SeedSequence and default_rng refuse negative seeds
    value = _int_knob(document, key, default)
    if value is not None and value < 0:
        raise RequestError(f"{key!r} must be a non-negative integer")
    return value


def _n_outputs(document: Dict[str, Any], form: str) -> int:
    n_outputs = _require(document, "n_outputs", int, form)
    if not 1 <= n_outputs <= compile_api.MAX_OUTPUT_BITS:
        raise RequestError(
            f"{form}: n_outputs must be in [1, {compile_api.MAX_OUTPUT_BITS}]"
        )
    return n_outputs


def _reject_unknown(document: Dict[str, Any], form: str) -> None:
    unknown = sorted(set(document) - _FORM_KEYS[form])
    if unknown:
        raise RequestError(f"{form} request: unknown keys {unknown}")


def _check_name(name: Any) -> Optional[str]:
    if name is None:
        return None
    if not isinstance(name, str) or not _NAME_RE.match(name):
        raise RequestError(
            "name must match [A-Za-z0-9_.-]{1,64}",
        )
    return name


def _table_values(raw: Any, context: str) -> list:
    if not isinstance(raw, list) or not raw:
        raise RequestError(f"{context}: table must be a non-empty array")
    limit = 1 << compile_api.MAX_OUTPUT_BITS
    values = []
    for item in raw:
        if isinstance(item, bool) or not isinstance(item, int):
            raise RequestError(f"{context}: table entries must be integers")
        if not 0 <= item < limit:
            raise RequestError(
                f"{context}: table entries must lie in "
                f"[0, 2**{compile_api.MAX_OUTPUT_BITS})"
            )
        values.append(item)
    return values


def _common_knobs(document: Dict[str, Any]) -> Dict[str, Any]:
    architecture = document.get("architecture", "bto-normal-nd")
    if architecture not in ARCHITECTURES:
        raise RequestError(
            f"unknown architecture {architecture!r}; "
            f"choose from {list(ARCHITECTURES)}"
        )
    algorithm = document.get("algorithm", "bs-sa")
    if algorithm not in ALGORITHMS:
        raise RequestError(
            f"unknown algorithm {algorithm!r}; choose from {list(ALGORITHMS)}"
        )
    budget = document.get("budget", "reduced")
    if not isinstance(budget, str) or budget not in compile_api.BUDGETS:
        raise RequestError(
            f"unknown budget {budget!r}; "
            f"choose from {sorted(compile_api.BUDGETS)}"
        )
    seed = _seed_knob(document, "seed", 0)
    if seed is None:
        raise RequestError("seed must be an integer")
    return {
        "architecture": architecture,
        "algorithm": algorithm,
        "config": compile_api.budget_config(budget, seed),
    }


def _parse_table_form(document: Dict[str, Any]) -> CompileRequest:
    _reject_unknown(document, "table")
    knobs = _common_knobs(document)
    values = _table_values(document["table"], "table request")
    if len(values) > (1 << compile_api.MAX_TABLE_BITS):
        raise RequestError(
            f"table too large: {len(values)} rows "
            f"(limit {1 << compile_api.MAX_TABLE_BITS})",
            status=413,
        )
    n_outputs = _n_outputs(document, "table")
    try:
        target = compile_api.build_target(
            table=values,
            n_outputs=n_outputs,
            name=_check_name(document.get("name")),
        )
        spec = compile_api.build_run_spec(
            target, knobs["architecture"], knobs["algorithm"], knobs["config"]
        )
    except ValueError as exc:
        raise RequestError(str(exc))
    return CompileRequest(spec=spec, form="table")


def _parse_benchmark_form(document: Dict[str, Any]) -> CompileRequest:
    _reject_unknown(document, "benchmark")
    knobs = _common_knobs(document)
    benchmark = document["benchmark"]
    if benchmark not in workload_names():
        raise RequestError(
            f"unknown benchmark {benchmark!r}; "
            f"choose from {workload_names()}",
            status=404,
        )
    bits = _int_knob(document, "bits", 10)
    if bits is None or not (2 <= bits <= compile_api.MAX_TABLE_BITS):
        raise RequestError(
            f"bits must be an integer in [2, {compile_api.MAX_TABLE_BITS}]"
        )
    try:
        target = compile_api.build_target(benchmark, bits=bits)
        spec = compile_api.build_run_spec(
            target, knobs["architecture"], knobs["algorithm"], knobs["config"]
        )
    except ValueError as exc:
        raise RequestError(str(exc))
    return CompileRequest(spec=spec, form="benchmark")


def _parse_spec_form(document: Dict[str, Any]) -> CompileRequest:
    unknown = sorted(set(document) - _FORM_KEYS["spec"])
    if unknown:
        raise RequestError(
            f"spec request: unknown keys {unknown} (the architecture, "
            "config and seeding all travel inside the spec)"
        )
    fields = document["spec"]
    if not isinstance(fields, dict):
        raise RequestError("spec must be an object")
    unknown = sorted(set(fields) - _SPEC_KEYS)
    if unknown:
        raise RequestError(f"spec: unknown keys {unknown}")
    missing = sorted(
        {"algorithm", "table", "n_inputs", "n_outputs", "config"} - set(fields)
    )
    if missing:
        raise RequestError(f"spec: missing keys {missing}")

    algorithm = fields["algorithm"]
    if algorithm not in ALGORITHMS:
        raise RequestError(
            f"unknown algorithm {algorithm!r}; choose from {list(ALGORITHMS)}"
        )
    architecture = fields.get("architecture", "bto-normal-nd")
    if architecture not in _SEARCH_ARCHITECTURES:
        raise RequestError(
            f"spec: unknown search architecture {architecture!r}; "
            f"choose from {list(_SEARCH_ARCHITECTURES)}"
        )
    config_fields = fields["config"]
    if not isinstance(config_fields, dict):
        raise RequestError("spec: config must be an object")
    unknown = sorted(set(config_fields) - _CONFIG_FIELDS)
    if unknown:
        raise RequestError(f"spec: unknown config keys {unknown}")
    try:
        config = AlgorithmConfig(**config_fields)
    except (TypeError, ValueError) as exc:
        raise RequestError(f"spec: invalid config: {exc}")

    values = _table_values(fields["table"], "spec")
    n_inputs = _require(fields, "n_inputs", int, "spec")
    if not (1 <= n_inputs <= compile_api.MAX_TABLE_BITS):
        raise RequestError(
            f"spec: n_inputs must be in [1, {compile_api.MAX_TABLE_BITS}]"
        )
    if len(values) != (1 << n_inputs):
        raise RequestError(
            f"spec: table has {len(values)} rows, "
            f"expected {1 << n_inputs} for n_inputs={n_inputs}"
        )
    n_outputs = _n_outputs(fields, "spec")
    name = _check_name(fields.get("name")) or ""
    base_seed = _seed_knob(fields, "base_seed", None)
    direct_seed = _seed_knob(fields, "direct_seed", None)
    if base_seed is None and direct_seed is None:
        # SeedSequence(None) draws OS entropy — a request that cannot
        # reproduce (or be content-addressed) is a caller bug.
        raise RequestError("spec: give base_seed or direct_seed")
    spawn_index = _int_knob(fields, "spawn_index", 0)
    if spawn_index is None or spawn_index < 0:
        raise RequestError("spec: spawn_index must be a non-negative integer")
    try:
        spec = RunSpec(
            algorithm,
            values,
            n_inputs,
            n_outputs,
            name,
            config,
            base_seed=base_seed,
            spawn_index=spawn_index,
            architecture=architecture,
            direct_seed=direct_seed,
        )
        spec.target_function()  # validates table shape/range
    except ValueError as exc:
        raise RequestError(f"spec: {exc}")
    return CompileRequest(spec=spec, form="spec")


def parse_compile_request(document: Any) -> CompileRequest:
    """Validate a decoded ``POST /compile`` body into a request."""
    if not isinstance(document, dict):
        raise RequestError("request body must be a JSON object")
    forms = [form for form in _FORM_KEYS if form in document]
    if len(forms) != 1:
        raise RequestError(
            "give exactly one of 'table', 'benchmark' or 'spec' "
            f"(got {sorted(forms) or 'none'})"
        )
    parser = {
        "table": _parse_table_form,
        "benchmark": _parse_benchmark_form,
        "spec": _parse_spec_form,
    }[forms[0]]
    return parser(document)
