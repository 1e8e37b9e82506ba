"""Request-schema validation for ``POST /compile``."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.compile_api import budget_config
from repro.serve.schema import (
    _CONFIG_FIELDS,
    _FORM_KEYS,
    _SPEC_KEYS,
    RequestError,
    parse_compile_request,
)

from .conftest import bench_doc


def spec_doc(**overrides):
    """A minimal valid spec-form document (2-bit Gray code)."""
    fields = {
        "algorithm": "bs-sa",
        "table": [0, 1, 3, 2],
        "n_inputs": 2,
        "n_outputs": 2,
        "name": "gray2",
        "config": dataclasses.asdict(budget_config("fast", 7)),
        "architecture": "bto-normal-nd",
        "direct_seed": 7,
    }
    fields.update(overrides)
    for key in [key for key, value in fields.items() if value is None]:
        del fields[key]
    return {"spec": fields}


class TestDispatch:
    def test_rejects_non_object(self):
        for body in (None, 3, "cos", [1, 2]):
            with pytest.raises(RequestError, match="JSON object"):
                parse_compile_request(body)

    def test_requires_exactly_one_form(self):
        with pytest.raises(RequestError, match="exactly one"):
            parse_compile_request({})
        with pytest.raises(RequestError, match="exactly one"):
            parse_compile_request({"benchmark": "cos", "table": [0, 1]})


class TestBenchmarkForm:
    def test_parses_and_fingerprints(self):
        request = parse_compile_request(bench_doc())
        assert request.form == "benchmark"
        assert request.architecture == "bto-normal-nd"
        assert len(request.fingerprint) == 16

    def test_unknown_benchmark_is_404(self):
        with pytest.raises(RequestError) as excinfo:
            parse_compile_request(bench_doc(benchmark="fft"))
        assert excinfo.value.status == 404

    def test_unknown_keys_rejected(self):
        with pytest.raises(RequestError, match="unknown keys"):
            parse_compile_request(bench_doc(timeout=5))

    def test_bits_bounds(self):
        for bits in (1, 17, "ten", True):
            with pytest.raises(RequestError):
                parse_compile_request(bench_doc(bits=bits))

    def test_knob_validation(self):
        with pytest.raises(RequestError, match="unknown architecture"):
            parse_compile_request(bench_doc(architecture="systolic"))
        with pytest.raises(RequestError, match="unknown algorithm"):
            parse_compile_request(bench_doc(algorithm="greedy"))
        with pytest.raises(RequestError, match="unknown budget"):
            parse_compile_request(bench_doc(budget="exhaustive"))
        with pytest.raises(RequestError, match="unknown budget"):
            parse_compile_request(bench_doc(budget=[]))
        with pytest.raises(RequestError, match="seed"):
            parse_compile_request(bench_doc(seed="seven"))
        with pytest.raises(RequestError, match="non-negative"):
            parse_compile_request(bench_doc(seed=-1))

    def test_seed_selects_distinct_artifacts(self):
        first = parse_compile_request(bench_doc(seed=0))
        second = parse_compile_request(bench_doc(seed=1))
        assert first.fingerprint != second.fingerprint


class TestTableForm:
    def test_parses_raw_table(self):
        request = parse_compile_request(
            {"table": [0, 1, 3, 2], "n_outputs": 2, "name": "gray2"}
        )
        assert request.form == "table"
        assert request.spec.target_function().n_inputs == 2

    def test_requires_n_outputs(self):
        with pytest.raises(RequestError, match="n_outputs"):
            parse_compile_request({"table": [0, 1, 3, 2]})
        with pytest.raises(RequestError, match="n_outputs"):
            parse_compile_request({"table": [0, 1, 3, 2], "n_outputs": 10**30})

    def test_table_entry_types(self):
        with pytest.raises(RequestError, match="non-empty array"):
            parse_compile_request({"table": [], "n_outputs": 1})
        with pytest.raises(RequestError, match="integers"):
            parse_compile_request({"table": [0, True], "n_outputs": 1})
        with pytest.raises(RequestError, match="integers"):
            parse_compile_request({"table": [0, 1.5], "n_outputs": 1})

    def test_oversize_table_is_413(self):
        with pytest.raises(RequestError) as excinfo:
            parse_compile_request(
                {"table": [0] * ((1 << 16) + 1), "n_outputs": 1}
            )
        assert excinfo.value.status == 413

    def test_bad_name_rejected(self):
        with pytest.raises(RequestError, match="name"):
            parse_compile_request(
                {"table": [0, 1], "n_outputs": 1, "name": "no spaces!"}
            )

    def test_non_power_of_two_rejected(self):
        with pytest.raises(RequestError, match="power of two"):
            parse_compile_request({"table": [0, 1, 1], "n_outputs": 1})


class TestSpecForm:
    def test_parses_full_spec(self):
        request = parse_compile_request(spec_doc())
        assert request.form == "spec"
        assert request.architecture == "bto-normal-nd"
        assert request.spec.config.seed == 7

    def test_normal_search_arch_means_dalta_hardware(self):
        request = parse_compile_request(
            spec_doc(architecture="normal", algorithm="dalta")
        )
        assert request.architecture == "dalta"

    def test_top_level_architecture_rejected(self):
        # the hardware architecture is derived from the spec's search
        # architecture — a free-floating override would break the
        # fingerprint -> artifact bijection
        doc = spec_doc()
        doc["architecture"] = "dalta"
        with pytest.raises(RequestError, match="unknown keys"):
            parse_compile_request(doc)

    def test_requires_a_seed(self):
        with pytest.raises(RequestError, match="base_seed or direct_seed"):
            parse_compile_request(spec_doc(direct_seed=None))
        with pytest.raises(RequestError, match="direct_seed"):
            parse_compile_request(spec_doc(direct_seed=-1))
        with pytest.raises(RequestError, match="base_seed"):
            parse_compile_request(spec_doc(direct_seed=None, base_seed=-1))

    def test_base_seed_alone_is_enough(self):
        request = parse_compile_request(
            spec_doc(direct_seed=None, base_seed=42, spawn_index=3)
        )
        assert request.spec.base_seed == 42

    def test_huge_spawn_index_derives_its_seed_at_once(self):
        import time

        start = time.perf_counter()
        request = parse_compile_request(
            spec_doc(direct_seed=None, base_seed=3, spawn_index=2**40)
        )
        sequence = request.spec.seed_sequence()
        request.spec.seed_info()
        assert time.perf_counter() - start < 0.5
        assert sequence.spawn_key == (2**40,)

    def test_spawn_index_must_be_non_negative(self):
        with pytest.raises(RequestError, match="spawn_index"):
            parse_compile_request(spec_doc(spawn_index=-1))

    def test_missing_and_unknown_keys(self):
        doc = spec_doc()
        del doc["spec"]["config"]
        with pytest.raises(RequestError, match="missing keys"):
            parse_compile_request(doc)
        with pytest.raises(RequestError, match="unknown keys"):
            parse_compile_request(spec_doc(priority=1))

    def test_config_validation(self):
        with pytest.raises(RequestError, match="config must be an object"):
            parse_compile_request(spec_doc(config="fast"))
        with pytest.raises(RequestError, match="unknown config keys"):
            parse_compile_request(spec_doc(config={"steps": 5}))
        with pytest.raises(RequestError, match="n_outputs"):
            parse_compile_request(spec_doc(n_outputs=10**30))

    def test_table_length_must_match_n_inputs(self):
        with pytest.raises(RequestError, match="expected 8"):
            parse_compile_request(spec_doc(n_inputs=3))

    def test_search_architecture_names(self):
        with pytest.raises(RequestError, match="search architecture"):
            parse_compile_request(spec_doc(architecture="dalta"))

    def test_spec_form_matches_benchmark_form_fingerprint(self):
        # replaying a campaign spec addresses the same artifact as the
        # equivalent benchmark request — one fingerprint, one artifact
        from repro import workloads

        target = workloads.get("cos", n_inputs=6)
        bench = parse_compile_request(bench_doc())
        spec = parse_compile_request(
            spec_doc(
                table=[int(v) for v in target.table],
                n_inputs=6,
                n_outputs=target.n_outputs,
                name=target.name,
            )
        )
        assert spec.fingerprint == bench.fingerprint


# -- fuzz -------------------------------------------------------------
#: integers around every bound the schema checks, plus huge ones
_EDGE_INTS = st.sampled_from(
    [-(10**30), -1, 0, 1, 2, 6, 16, 17, 62, 63, 2**62, 2**63, 10**30]
)
#: real names, so the parser gets past its first membership checks
_REAL_NAMES = st.sampled_from(
    ["cos", "exp", "bs-sa", "dalta", "fast", "reduced", "bto-normal-nd",
     "normal", "gray2"]
)
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), _EDGE_INTS, st.floats(),
    st.text(max_size=8), _REAL_NAMES,
)
_JSON = st.recursive(
    _SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
_TABLES = st.lists(st.one_of(st.integers(0, 3), _EDGE_INTS), min_size=1, max_size=8)
_CONFIGS = st.dictionaries(st.sampled_from(sorted(_CONFIG_FIELDS)), _SCALARS, max_size=4)
_VALUES = st.one_of(_JSON, _TABLES, _CONFIGS)
_TOP_KEYS = sorted(set().union(*_FORM_KEYS.values()))
_DOCUMENTS = st.one_of(
    _JSON,
    st.dictionaries(st.sampled_from(_TOP_KEYS), _VALUES, max_size=5),
    st.dictionaries(
        st.sampled_from(sorted(_SPEC_KEYS)), _VALUES, max_size=10
    ).map(lambda spec: {"spec": spec}),
)


class TestFuzz:
    @settings(max_examples=400, deadline=None)
    @given(_DOCUMENTS)
    def test_only_request_errors_escape(self, document):
        # any input either parses or is refused with a 4xx — never an
        # exception the daemon would turn into a 500 (or no answer)
        try:
            parse_compile_request(document)
        except RequestError as exc:
            assert 400 <= exc.status < 500
