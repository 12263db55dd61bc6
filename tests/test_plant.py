"""Skin-node plant: stepping, sensor quantization, configs."""


import numpy as np
import pytest

from coldsim import (PlantParams, SkinPlant, ValidationError, load_plant_config,
                     read_sensor, save_plant_config, step)
from coldsim.plant import PlantState


def make_state(temp, seed=0):
    return PlantState(temp, 0.0, np.random.default_rng(seed))


def test_equilibrium_fixed_point():
    params = PlantParams(t_init=24.0)
    state = make_state(24.0)
    new = step(state, params, dt=0.001)
    assert new.t_skin == 24.0


def test_valve_rate_and_six_second_drop():
    # closed form for a constant-rate channel: dT = rate * t
    rate = -2.252 * 0.49 + 1.0535
    assert rate == pytest.approx(-0.04998, abs=1e-9)
    params = PlantParams(relax_coeff=0.0)
    plant = SkinPlant(params)
    plant.run_span(duty_valve=0.49, valve_on=True, dt=0.001, n_steps=6000)
    assert plant.t_skin - 33.0 == pytest.approx(rate * 6.0, abs=1e-9)
    assert plant.t_skin - 33.0 == pytest.approx(-0.2999, abs=2e-4)


def test_led_rate_affine_map():
    params = PlantParams(relax_coeff=0.0)
    state = make_state(33.0)
    new = step(state, params, duty_led=0.902, led_on=True, dt=0.001)
    assert (new.t_skin - 33.0) / 0.001 == pytest.approx(0.5000044, abs=1e-9)


def test_step_validation():
    params = PlantParams()
    with pytest.raises(ValidationError):
        step(make_state(33.0), params, dt=0.02)
    with pytest.raises(ValidationError):
        step(make_state(33.0), params, dt=0.0)
    with pytest.raises(ValidationError):
        step(make_state(33.0), params, duty_valve=1.5, valve_on=True)


@pytest.mark.parametrize("temp,expected", [
    (24.000, 24.000),
    (32.910, 32.900),   # 0.010 below the next multiple, 0.015 above
    (30.0125, 30.025),  # exact tie rounds away from zero
])
def test_sensor_examples(temp, expected):
    assert read_sensor(make_state(temp), 0.025).value == expected


def test_sensor_quantization_property():
    rng = np.random.default_rng(5)
    for _ in range(500):
        temp = float(rng.uniform(-50, 50))
        reading = read_sensor(make_state(temp), 0.025)
        assert abs(reading.value - temp) <= 0.0125 + 1e-12
        ticks = reading.value / 0.025
        assert abs(ticks - round(ticks)) < 1e-9


def test_sensor_negative_tie_rounds_away():
    assert read_sensor(make_state(-30.0125), 0.025).value == -30.025


def test_deterministic_with_equal_seeds():
    params = PlantParams(noise_sigma=0.05)
    a = SkinPlant(params, seed=42)
    b = SkinPlant(params, seed=42)
    ta = a.run_span(duty_valve=0.55, valve_on=True, dt=0.001, n_steps=2000)
    tb = b.run_span(duty_valve=0.55, valve_on=True, dt=0.001, n_steps=2000)
    assert np.array_equal(ta, tb)


def test_relaxation_monotone_convergence():
    rng = np.random.default_rng(11)
    for _ in range(50):
        t0 = float(rng.uniform(10, 45))
        params = PlantParams(relax_coeff=float(rng.uniform(0.001, 5.0)),
                             t_init=t0)
        plant = SkinPlant(params)
        last_gap = abs(plant.t_skin - 24.0)
        for _ in range(200):
            plant.step(dt=0.01)
            gap = abs(plant.t_skin - 24.0)
            assert gap <= last_gap + 1e-15
            last_gap = gap


def test_step_refinement_endpoint():
    """Halving dt moves the 15 s endpoint by far less than 1e-4 degC."""
    for duty_valve, duty_led in ((0.49, 0.0), (0.601, 0.902), (0.55, 0.5)):
        ends = []
        for dt in (0.001, 0.0005):
            plant = SkinPlant(PlantParams())
            n = int(round(15.0 / dt))
            plant.run_span(duty_valve=duty_valve, duty_led=duty_led,
                           valve_on=True, led_on=duty_led > 0, dt=dt, n_steps=n)
            ends.append(plant.t_skin)
        assert abs(ends[0] - ends[1]) < 1e-4


def test_run_span_matches_scalar_loop():
    params = PlantParams()  # relaxation on, noise off
    fast = SkinPlant(params)
    slow = SkinPlant(params)
    temps = fast.run_span(duty_valve=0.55, duty_led=0.3, valve_on=True,
                          led_on=True, dt=0.005, n_steps=400)
    for _ in range(400):
        slow.step(duty_valve=0.55, duty_led=0.3, valve_on=True, led_on=True,
                  dt=0.005)
    assert temps[-1] == pytest.approx(slow.t_skin, abs=1e-9)
    assert fast.time == pytest.approx(slow.time, abs=1e-12)


def test_interaction_bias_only_when_both_on():
    params = PlantParams(relax_coeff=0.0, interaction_bias=0.013)
    single = step(make_state(33.0), params, duty_led=0.5, led_on=True)
    both = step(make_state(33.0), params, duty_valve=0.55, duty_led=0.5,
                valve_on=True, led_on=True)
    led_only_rate = (single.t_skin - 33.0) / 0.001
    both_rate = (both.t_skin - 33.0) / 0.001
    valve_rate = -2.252 * 0.55 + 1.0535
    assert both_rate - (led_only_rate + valve_rate) == pytest.approx(0.013, abs=1e-9)


def test_params_validation():
    with pytest.raises(ValidationError):
        PlantParams(valve_gain=1.0)
    with pytest.raises(ValidationError):
        PlantParams(led_gain=-1.0)
    with pytest.raises(ValidationError):
        PlantParams(noise_sigma=-0.1)
    for t_init in ("33", float("nan")):
        with pytest.raises(ValidationError):
            PlantParams(t_init=t_init)


def test_config_round_trip(tmp_path):
    params = PlantParams(valve_gain=-2.0, noise_sigma=0.01)
    path = tmp_path / "plant.json"
    save_plant_config(params, path)
    loaded = load_plant_config(path)
    assert loaded == params
    text = path.read_text()
    for key in ("air_pressure_mpa", "cold_air_ratio", "cold_air_temp_c",
                "ambient_c"):
        assert key in text


def test_trace_csv_schema(tmp_path):
    from coldsim.plant import Trace
    n = 3
    trace = Trace(np.arange(n) * 0.01, np.full(n, 33.0), np.zeros(n),
                  np.zeros(n), np.zeros(n, dtype=bool), np.zeros(n, dtype=bool))
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "time_s,temp_c,duty_valve,duty_led,valve_on,led_on"
    assert len(lines) == 1 + n
