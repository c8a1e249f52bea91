from pathlib import Path

import pytest

from fetchahead.app_ir import parse_app
from fetchahead.cli import run_pipeline
from fetchahead.runtime import NetModel, Trace, TraceStep

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="session")
def weather_text() -> str:
    return (FIXTURES / "weather.papp").read_text()


@pytest.fixture()
def weather_app(weather_text):
    return parse_app(weather_text)


@pytest.fixture()
def weather_trace():
    """The worked scenario: launch, pick a city, hit the button."""
    return Trace((
        TraceStep("onCreate", 0, {}),
        TraceStep("onItemSelected", 2000, {"citySelection": "Gothenburg"}),
        TraceStep("onClick", 2000, {"cityIdText": "842"}),
    ))


@pytest.fixture()
def weather_net():
    return NetModel()


@pytest.fixture()
def weather_pipeline(weather_app, weather_trace, weather_net):
    """The `Pipeline` of the worked scenario."""
    return run_pipeline(weather_app, weather_trace, weather_net)
