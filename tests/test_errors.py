"""Exception hierarchy and error formatting."""

import pickle

import pytest

from repro import errors


def test_hierarchy():
    assert issubclass(errors.ParseError, errors.ReproError)
    assert issubclass(errors.LibertyError, errors.ParseError)
    assert issubclass(errors.ValidationError, errors.NetlistError)
    assert issubclass(errors.SizingError, errors.VgndError)
    for name in ("TimingError", "PowerError", "PlacementError",
                 "RoutingError", "FlowError", "EquivalenceError"):
        assert issubclass(getattr(errors, name), errors.ReproError)


def test_parse_error_location_formatting():
    err = errors.ParseError("bad token", filename="x.lib", line=4, column=7)
    assert str(err) == "x.lib:4:7: bad token"
    assert err.line == 4 and err.column == 7


def test_parse_error_partial_location():
    assert str(errors.ParseError("oops", line=2)) == "2: oops"
    assert str(errors.ParseError("oops", filename="f")) == "f: oops"
    assert str(errors.ParseError("oops")) == "oops"


def test_single_catch_point():
    with pytest.raises(errors.ReproError):
        raise errors.SizingError("nope")


def test_config_error_hierarchy_and_field():
    assert issubclass(errors.ConfigError, errors.FlowError)
    err = errors.ConfigError("timing_margin", "must be non-negative")
    assert err.field == "timing_margin"
    assert str(err) == "invalid timing_margin: must be non-negative"


def test_flow_config_validation_raises_typed_config_error():
    from repro.config import FlowConfig

    cases = [
        ("timing_margin", dict(timing_margin=-0.1)),
        ("timing_margin", dict(timing_margin=float("nan"))),
        ("clock_period_ns", dict(clock_period_ns=0.0)),
        ("utilization", dict(utilization=1.5)),
        # Below the floorplan's own floor.
        ("utilization", dict(utilization=0.05)),
        ("aspect_ratio", dict(aspect_ratio=-1)),
        ("aspect_ratio", dict(aspect_ratio=0)),
        ("aspect_ratio", dict(aspect_ratio="wide")),
        ("aspect_ratio", dict(aspect_ratio=float("inf"))),
        ("placer_iterations", dict(placer_iterations=-3)),
        ("placer_iterations", dict(placer_iterations=2.5)),
        ("assignment_guardband", dict(assignment_guardband=1.5)),
        ("assignment_guardband", dict(assignment_guardband=-0.1)),
        ("bounce_limit_fraction", dict(bounce_limit_fraction=0.9)),
        ("compute_backend", dict(compute_backend="fortran")),
        # Each of these used to be accepted, or to escape as a raw
        # TypeError from a comparison.
        ("placement_seed", dict(placement_seed=[1])),
        ("placement_seed", dict(placement_seed=1.5)),
        ("placement_seed", dict(placement_seed="abc")),
        ("placement_seed", dict(placement_seed={})),
        ("placement_seed", dict(placement_seed=True)),
        ("max_cells_per_switch", dict(max_cells_per_switch=0)),
        ("max_cells_per_switch", dict(max_cells_per_switch=2.5)),
        ("max_rail_length_um", dict(max_rail_length_um=0.0)),
        ("max_rail_length_um", dict(max_rail_length_um=float("inf"))),
        ("max_rail_length_um", dict(max_rail_length_um="long")),
        ("clock_period_ns", dict(clock_period_ns="abc")),
        ("clock_period_ns", dict(clock_period_ns=float("nan"))),
        ("bounce_limit_fraction", dict(bounce_limit_fraction=[0.04])),
        ("simultaneity_exponent", dict(simultaneity_exponent="abc")),
        ("simultaneity_floor", dict(simultaneity_floor={})),
    ]
    for field, kwargs in cases:
        with pytest.raises(errors.ConfigError) as excinfo:
            FlowConfig(**kwargs)
        assert excinfo.value.field == field
        assert field in str(excinfo.value)
    # The edges of every range are accepted.
    FlowConfig(utilization=0.1, placer_iterations=0,
               assignment_guardband=0.0, timing_margin=0.0)
    FlowConfig(placement_seed=-7, max_cells_per_switch=1,
               simultaneity_exponent=0.0, simultaneity_floor=1.0)
    # Still catchable as the historical FlowError.
    with pytest.raises(errors.FlowError):
        FlowConfig(timing_margin=-1)


def test_mc_config_validation_raises_typed_config_error():
    from repro.variation.montecarlo import McConfig

    for field, kwargs in {
        "samples": dict(samples=0),
        "sigma_global_v": dict(sigma_global_v=-0.1),
        "sigma_local_v": dict(sigma_local_v=-0.1),
    }.items():
        with pytest.raises(errors.ConfigError) as excinfo:
            McConfig(**kwargs)
        assert excinfo.value.field == field


def test_api_request_validation_raises_typed_config_error():
    from repro.api.requests import AnalyzeRequest, SweepRequest

    with pytest.raises(errors.ConfigError) as excinfo:
        AnalyzeRequest(variant="mvt")
    assert excinfo.value.field == "variant"
    with pytest.raises(errors.ConfigError) as excinfo:
        SweepRequest(techniques=())
    assert excinfo.value.field == "techniques"


def test_service_error_carries_status():
    err = errors.ServiceError("nope", status=404)
    assert err.status == 404
    assert issubclass(errors.ServiceError, errors.ReproError)
    assert issubclass(errors.SchemaError, errors.ReproError)


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def test_every_repro_error_pickles_with_its_attributes():
    """Errors cross process boundaries (pool and shard workers), so
    each must unpickle as itself, message and attributes intact."""
    import repro.api  # noqa: F401  (defines ShardError)

    special = {
        errors.ConfigError: dict(field="samples", message="must be > 0"),
        errors.ServiceError: dict(message="queue full", status=429,
                                  retry_after=1.5),
    }
    classes = {cls for cls in (errors.ReproError,
                               *_all_subclasses(errors.ReproError))
               if cls.__module__.startswith("repro.")}
    assert errors.ConfigError in classes and len(classes) > 15
    for cls in classes:
        if issubclass(cls, errors.ParseError):
            error = cls("bad token", filename="x.lib", line=4, column=7)
        elif cls in special:
            error = cls(**special[cls])
        else:
            error = cls("boom")
        clone = pickle.loads(pickle.dumps(error))
        assert type(clone) is cls
        assert str(clone) == str(error)
        assert vars(clone) == vars(error), cls.__name__
    config = pickle.loads(pickle.dumps(
        errors.ConfigError("samples", "must be > 0")))
    assert config.field == "samples"
    parse = pickle.loads(pickle.dumps(errors.ParseError("x", line=4)))
    assert parse.line == 4
    service = pickle.loads(pickle.dumps(
        errors.ServiceError("full", status=429, retry_after=1.5)))
    assert (service.status, service.retry_after) == (429, 1.5)


def _reject(item, library):
    raise errors.ConfigError("samples", f"rejected item {item}")


def test_config_error_in_a_pool_worker_arrives_as_config_error(library):
    from repro.runner import ExperimentRunner

    with pytest.raises(errors.ConfigError) as excinfo:
        ExperimentRunner(jobs=2, library=library).map(_reject, [1, 2])
    assert excinfo.value.field == "samples"
    assert str(excinfo.value) == "invalid samples: rejected item 1"
