"""Configuration grammar tests: defaults, overrides, errors, round-trip."""

import copy
import pickle
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from qpcontrol.config import SCHEMA, emit_config, parse_config, parse_configs
from qpcontrol.controller import ControlObjective
from qpcontrol.errors import ConfigError
from qpcontrol.harness import ExperimentConfig, RunMode
from qpcontrol.plant import DisturbanceKind, PlantKind, PlantModel, TraceTable
from trace_rows import NEWLINES, NOT_NEWLINES, TRACE_TEXT



class TestDefaults:
    def test_no_file_no_overrides_gives_paper_defaults(self):
        config = parse_config(None)
        assert (config.gains.kp, config.gains.ki, config.gains.kd) == (2.12, 0.10, 0.60)
        assert config.objective.lambda_ == 0.8
        assert (config.qp_range.qp_min, config.qp_range.qp_max) == (0, 51)
        assert config.objective.target_psnr == 37.2
        assert config.n_frames == 300
        assert config.mode is RunMode.CONTROLLED
        assert config.plant.kind is PlantKind.FIRST_ORDER
        assert config.plant.inertia == 0.5

    def test_the_dataclass_fields_hold_every_default(self):
        expected = ExperimentConfig(plant=PlantModel(), objective=ControlObjective())
        assert parse_config(None) == expected

    def test_readme_table_lists_every_key_with_its_default(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        listed = {}
        for line in readme.read_text(encoding="utf-8").splitlines():
            cells = [cell.strip() for cell in line.strip("|").split("|")]
            if not line.startswith("| `") or len(cells) != 3:
                continue
            keys, defaults = (cell.split(" / ") for cell in cells[:2])
            assert len(keys) == len(defaults), line
            for key, default in zip(keys, defaults):
                listed[key.strip("`")] = default.strip("`")
        assert set(listed) == set(SCHEMA)
        emitted = dict(
            line.split(" = ", 1)
            for line in emit_config(parse_config(None)).splitlines()
        )
        for key, default in listed.items():
            parse = SCHEMA[key]
            assert parse(key, default) == parse(key, emitted[key]), key

    def test_empty_file_gives_defaults(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("# nothing but a comment\n\n")
        assert parse_config(path) == parse_config(None)


class TestOverridesAndFiles:
    def test_lambda_override_disables_fluctuation_term(self):
        config = parse_config(None, ["objective.lambda=1.0"])
        assert config.objective.lambda_ == 1.0

    def test_file_values_are_applied(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "objective.target_psnr = 35.0\n"
            "n_frames = 120  # short run\n"
            "plant.kind = zero_order\n"
            "plant.disturbance.kind = sinusoid\n"
            "plant.disturbance.amplitude = 1.0\n"
            "plant.disturbance.period = 30\n"
        )
        config = parse_config(path)
        assert config.objective.target_psnr == 35.0
        assert config.n_frames == 120
        assert config.plant.kind is PlantKind.ZERO_ORDER
        assert config.plant.disturbance.kind is DisturbanceKind.SINUSOID

    def test_overrides_win_over_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_frames = 120\n")
        assert parse_config(path, ["n_frames=7"]).n_frames == 7

    def test_later_overrides_win(self):
        config = parse_config(
            None, ["plant.disturbance.seed=1", "plant.disturbance.seed=2"]
        )
        assert config.plant.disturbance.seed == 2


class TestErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="config file not found"):
            parse_config(tmp_path / "absent.cfg")

    def test_unknown_key_is_rejected_not_ignored(self):
        with pytest.raises(ConfigError, match="unknown key 'gains.kq'") as excinfo:
            parse_config(None, ["gains.kq=1.0"])
        assert "gains.kq" in str(excinfo.value)

    def test_negative_gain_is_an_invariant_violation(self):
        with pytest.raises(ConfigError, match="gains.kp must be finite and >= 0") as excinfo:
            parse_config(None, ["gains.kp=-1"])
        assert "gains" in str(excinfo.value)
        assert "kp" in str(excinfo.value)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("this is not an assignment\n")
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config(path)

    def test_non_numeric_value(self):
        with pytest.raises(ConfigError, match="n_frames: expected an integer"):
            parse_config(None, ["n_frames=many"])

    def test_bad_enum_value(self):
        with pytest.raises(ConfigError, match="expected one of") as excinfo:
            parse_config(None, ["plant.kind=fourth_order"])
        assert "plant.kind" in str(excinfo.value)

    def test_bad_kind_pattern(self):
        with pytest.raises(ConfigError, match="kind_pattern 'sometimes' is unknown"):
            parse_config(None, ["kind_pattern=sometimes"])

    def test_lambda_out_of_range(self):
        with pytest.raises(ConfigError, match=r"objective\.lambda must be in \[0, 1\]"):
            parse_config(None, ["objective.lambda=2.0"])

    def test_trace_driven_requires_path(self):
        with pytest.raises(ConfigError, match="required for a trace_driven plant") as excinfo:
            parse_config(None, ["plant.kind=trace_driven"])
        assert "trace_path" in str(excinfo.value)

    def test_trace_shorter_than_the_run_is_an_invariant_violation(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text(TRACE_TEXT)
        with pytest.raises(ConfigError, match="runs past the trace table") as excinfo:
            parse_config(
                None,
                [
                    "plant.kind=trace_driven",
                    f"plant.trace_path={trace_path}",
                    "n_frames=3",
                ],
            )
        assert "n_frames" in str(excinfo.value)
        assert "plant.trace_path" in str(excinfo.value)

    def test_trace_frames_may_tabulate_different_qp_spans(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text(
            "frame,qp,psnr_db,bits\n0,30,38.0,500000\n0,40,34.0,200000\n"
            "1,20,41.0,900000\n1,30,37.5,480000\n"
        )
        config = parse_config(
            None,
            ["plant.kind=trace_driven", f"plant.trace_path={trace_path}", "n_frames=2"],
        )
        assert sorted(config.plant.trace.rows) == [0, 1]

    def test_non_finite_initial_psnr(self):
        with pytest.raises(ConfigError, match="must be finite, got nan") as excinfo:
            parse_config(None, ["plant.initial_psnr=nan"])
        assert "initial_psnr" in str(excinfo.value)

    def test_trace_file_must_exist(self, tmp_path):
        with pytest.raises(ConfigError, match="plant.trace_path: trace file not found"):
            parse_config(
                None,
                [
                    "plant.kind=trace_driven",
                    f"plant.trace_path={tmp_path / 'missing.csv'}",
                ],
            )


class TestParseConfigs:
    def test_each_point_equals_its_own_parse(self, tmp_path):
        path = tmp_path / "exp.cfg"
        path.write_text("objective.lambda = 0.6\nn_frames = 40\n")
        overrides = ["gains.kp=1.5", "mode=fixed"]
        points = [[], ["mode=controlled"], ["gains.kp=3", "objective.lambda=1"]]
        configs = parse_configs(path, [overrides + point for point in points])
        assert configs == [parse_config(path, overrides + point) for point in points]

    def test_points_share_one_table(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text(TRACE_TEXT)
        trace = ["plant.kind=trace_driven", f"plant.trace_path={trace_path}"]
        first, second = parse_configs(
            None, [trace + ["n_frames=1"], trace + ["n_frames=2", "mode=fixed"]]
        )
        assert first.plant.trace is second.plant.trace

    def test_a_point_error_counts_overrides_and_point_as_one_list(self):
        with pytest.raises(ConfigError, match="unknown key 'nope'") as excinfo:
            parse_configs(None, [["gains.kp=1", "gains.ki=0.2"], ["gains.kp=1", "nope=1"]])
        assert "override[1]" in str(excinfo.value)

    def test_a_hash_in_an_override_value_is_refused(self):
        # As a config line, the value would read as "runs".
        with pytest.raises(ConfigError) as excinfo:
            parse_config(None, ["plant.trace_path=runs#1.csv"])
        assert str(excinfo.value) == "plant.trace_path: a command-line value cannot hold '#'"

    def test_nothing_is_cached_between_calls(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text(TRACE_TEXT)
        overrides = [
            "plant.kind=trace_driven", f"plant.trace_path={trace_path}", "n_frames=2"
        ]
        before = parse_config(None, overrides).plant.trace
        trace_path.write_text(TRACE_TEXT.replace("38.000", "39.000"))
        after = parse_config(None, overrides).plant.trace
        assert before.lookup(0, 30) == (38.0, 500000.0)
        assert after.lookup(0, 30) == (39.0, 500000.0)
        assert before != after


class TestRoundTrip:
    @pytest.mark.parametrize(
        "overrides",
        [
            [],
            ["objective.lambda=1.0", "gains.kd=0.0", "plant.disturbance.seed=77"],
            [
                "plant.kind=zero_order",
                "plant.disturbance.kind=step",
                "plant.disturbance.amplitude=2.5",
                "plant.disturbance.step_frame=40",
                "kind_pattern=intra_every:8",
                "mode=fixed",
                "qp_offset=37.25",
            ],
            ["plant.inertia=0.8", "plant.initial_psnr=41.5", "n_frames=12"],
        ],
    )
    def test_parse_emit_parse_is_identity(self, overrides):
        config = parse_config(None, overrides)
        text = emit_config(config)
        assert parse_config_from_text(text) == config

    def test_round_trip_with_trace(self, tmp_path):
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text(TRACE_TEXT)
        config = parse_config(
            None,
            [
                "plant.kind=trace_driven",
                f"plant.trace_path={trace_path}",
                "n_frames=2",
            ],
        )
        assert parse_config_from_text(emit_config(config)) == config

    @pytest.mark.parametrize(
        "round_trip", [copy.deepcopy, lambda config: pickle.loads(pickle.dumps(config))]
    )
    def test_a_trace_driven_config_pickles_and_deep_copies(self, tmp_path, round_trip):
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text(TRACE_TEXT)
        config = parse_config(
            None,
            ["plant.kind=trace_driven", f"plant.trace_path={trace_path}", "n_frames=2"],
        )
        copied = round_trip(config)
        assert copied == config
        assert copied.plant.trace == config.plant.trace
        for frame in (0, 1):
            for qp in range(30, 41):
                expected = config.plant.trace.lookup(frame, qp)
                assert copied.plant.trace.lookup(frame, qp) == expected

    @pytest.mark.parametrize(
        "trace_path",
        [
            "t/a#b.csv",
            " a.csv",
            "a.csv ",
            "a\nb.csv",
            "a\rb.csv",
            "none",
            None,  # a trace-driven plant needs a path to serialize at all
        ],
    )
    def test_emit_refuses_a_trace_path_that_would_not_parse_back(
        self, trace_file, trace_path
    ):
        trace = TraceTable.load(trace_file)
        plant = PlantModel(
            kind=PlantKind.TRACE_DRIVEN, trace=trace, trace_path=trace_path
        )
        config = ExperimentConfig(plant=plant, objective=ControlObjective(), n_frames=2)
        with pytest.raises(ConfigError, match="plant.trace_path"):
            emit_config(config)

    @pytest.mark.parametrize("char", NOT_NEWLINES)
    def test_a_trace_path_holding_what_is_not_a_line_end_round_trips(
        self, tmp_path, char
    ):
        config = parse_config(None, [f"plant.trace_path=a{char}b.csv"])
        path = tmp_path / "emitted.cfg"
        path.write_text(emit_config(config), encoding="utf-8")
        assert parse_config(path) == config


finite = st.floats(min_value=-1e3, max_value=1e3)
nonnegative = st.floats(min_value=0.0, max_value=1e3)
SYNTHETIC_CONFIG = st.fixed_dictionaries(
    {
        "objective.target_psnr": st.floats(min_value=1e-3, max_value=1e3),
        "objective.lambda": st.floats(min_value=0.0, max_value=1.0),
        "gains.kp": nonnegative,
        "gains.ki": nonnegative,
        "gains.kd": nonnegative,
        "range.qp_min": st.integers(0, 25),
        "range.qp_max": st.integers(26, 63),
        "qp_offset": finite,
        "kind_pattern": st.one_of(
            st.sampled_from(["inter", "intra"]),
            st.integers(1, 99).map(lambda n: f"intra_every:{n}"),
        ),
        "n_frames": st.integers(1, 10_000),
        "mode": st.sampled_from([m.value for m in RunMode]),
        "plant.kind": st.sampled_from(["zero_order", "first_order"]),
        "plant.psnr_intercept": finite,
        "plant.psnr_slope": st.floats(min_value=1e-6, max_value=1e3),
        "plant.inertia": st.floats(min_value=0.0, max_value=0.999),
        "plant.rate_ref_bits": st.floats(min_value=0.0, max_value=1e9),
        "plant.rate_ref_qp": st.integers(-100, 100),
        "plant.initial_psnr": st.one_of(st.just(None), finite),
        "plant.disturbance.kind": st.sampled_from([k.value for k in DisturbanceKind]),
        "plant.disturbance.amplitude": finite,
        "plant.disturbance.period": st.integers(3, 1000),
        "plant.disturbance.step_frame": st.integers(0, 10_000),
        "plant.disturbance.seed": st.integers(0, 2**64 - 1),
    }
)


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("trace") / "trace.csv"
    path.write_text(TRACE_TEXT)
    return path


@given(values=SYNTHETIC_CONFIG, trace_frames=st.one_of(st.none(), st.integers(1, 2)))
def test_emit_parse_round_trip_over_random_configs(trace_file, values, trace_frames):
    if trace_frames is not None:
        values = dict(
            values,
            **{
                "plant.kind": "trace_driven",
                "plant.trace_path": str(trace_file),
                "n_frames": trace_frames,
            },
        )
    overrides = [f"{key}={render(value)}" for key, value in values.items()]
    config = parse_config(None, overrides)
    text = emit_config(config)
    assert parse_config_from_text(text) == config
    assert emit_config(parse_config_from_text(text)) == text


@given(
    values=SYNTHETIC_CONFIG,
    char=st.sampled_from(NOT_NEWLINES),
    bom=st.booleans(),
    data=st.data(),
)
def test_a_config_file_reads_as_its_lf_form_at_any_line_ends(
    tmp_path_factory, values, char, bom, data
):
    # The comment would set an unknown key, and fail, were char a line end.
    lines = [f"# a note{char}no.such.key = 0", ""]
    lines += [f"{key} = {render(value)}" for key, value in values.items()]
    ends = data.draw(st.lists(NEWLINES, min_size=len(lines), max_size=len(lines)))
    mixed = ("\ufeff" if bom else "") + "".join(
        line + end for line, end in zip(lines, ends)
    )
    path = tmp_path_factory.getbasetemp() / "line_ends.cfg"
    path.write_bytes(mixed.encode())
    lf_path = tmp_path_factory.getbasetemp() / "lf.cfg"
    lf_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    overrides = [f"{key}={render(value)}" for key, value in values.items()]
    assert parse_config(path) == parse_config(lf_path) == parse_config(None, overrides)


def render(value):
    if value is None:
        return "none"
    return value if isinstance(value, str) else repr(value)


def parse_config_from_text(text):
    lines = [line for line in text.splitlines() if line.strip()]
    return parse_config(None, lines)


# What a config line may hold that the file rule reads as it is: no '#'
# (a comment) and no \n or \r (a line end).
LINE_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="#\n\r")
PADDING = st.text(st.sampled_from(" \t\v\f\x85\u2028\u3000"), max_size=2)
VALUES = st.one_of(
    st.sampled_from(["none", "nan", "-1", "0", "3", "1e309", "fixed", "intra_every:4"]),
    st.text(LINE_CHARS, max_size=8),
)
ASSIGNMENTS = st.one_of(
    st.text(LINE_CHARS, max_size=24),
    st.tuples(PADDING, st.sampled_from(list(SCHEMA)), PADDING, VALUES, PADDING).map(
        lambda parts: "{}{}{}={}{}".format(*parts)
    ),
)


@given(text=ASSIGNMENTS)
@example(text="#n_frames=5")
@example(text="")
@example(text="kind_pattern=intra#every")
def test_a_command_line_assignment_reads_as_a_config_file_line(tmp_path_factory, text):
    def outcome(*args):
        try:
            return parse_config(*args)
        except ConfigError:
            return ConfigError

    from_command_line = outcome(None, [text])
    if "#" in text or not text.strip():
        # A file would read a comment or a blank line here, and set nothing.
        assert from_command_line is ConfigError
        return
    # The second line, so that a leading BOM in the text is kept.
    path = tmp_path_factory.getbasetemp() / "one_assignment.cfg"
    path.write_text(f"# first line\n{text}\n", encoding="utf-8")
    assert from_command_line == outcome(path)
