"""Unit tests for unit helpers."""

import pytest

from repro import units


class TestUnits:
    def test_time_conversions(self):
        assert units.ns(1) == pytest.approx(1e-9)
        assert units.us(2.5) == pytest.approx(2.5e-6)
        assert units.ms(3) == pytest.approx(3e-3)
        assert units.to_us(1e-6) == pytest.approx(1.0)
        assert units.to_ms(1e-3) == pytest.approx(1.0)

    def test_bandwidth_conversions(self):
        assert units.gbps(100) == pytest.approx(12.5e9)
        assert units.to_gbps(12.5e9) == pytest.approx(100.0)
        assert units.gibps(1) == pytest.approx(1024**3)

    def test_gbps_roundtrip(self):
        assert units.to_gbps(units.gbps(42.0)) == pytest.approx(42.0)

    def test_cycles(self):
        assert units.cycles(250, 250e6) == pytest.approx(1e-6)
        with pytest.raises(ValueError):
            units.cycles(1, 0)

    def test_pretty_size(self):
        assert units.pretty_size(512) == "512B"
        assert units.pretty_size(1024) == "1KiB"
        assert units.pretty_size(3 * 1024**2) == "3MiB"
        assert units.pretty_size(2 * 1024**3) == "2GiB"
        with pytest.raises(ValueError):
            units.pretty_size(-1)

    def test_size_constants(self):
        assert units.KIB == 1024
        assert units.MIB == 1024**2
        assert units.GIB == 1024**3
