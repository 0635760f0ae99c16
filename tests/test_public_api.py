"""The package's public API surface stays importable and coherent."""

import repro


def test_version():
    assert repro.__version__ == "1.0.0"


def test_all_exports_resolve():
    for name in repro.__all__:
        assert hasattr(repro, name), f"repro.{name} missing"


def test_mechanisms_exported():
    assert repro.VpassTuner is not None
    assert repro.ReadDisturbRecovery is not None
    assert repro.FlashChannelModel is not None


def test_analysis_lazy_exports():
    from repro import analysis

    assert callable(analysis.vth_shift_experiment)
    assert callable(analysis.rdr_experiment)
    try:
        analysis.does_not_exist
    except AttributeError:
        pass
    else:  # pragma: no cover
        raise AssertionError("unknown attribute should raise AttributeError")
