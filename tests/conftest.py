"""Shared fixtures.

Session-scoped fixtures cache the expensive artifacts (generated sessions,
preprocessed epochs) so individual tests stay fast.  Everything here is
seeded; reruns must produce identical data.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from eegsong import (
    GeneratorConfig,
    PreprocessConfig,
    generate_session,
    run_pipeline,
)

# Bounded example counts: the suite runs end-to-end pipelines elsewhere, so
# property tests stay cheap. No deadline — CI boxes vary too much.
settings.register_profile(
    "suite",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
settings.load_profile("suite")

# Desk-scale config: 4 songs x 20 s keeps generation under a second while
# still exercising every timeline transition (lead silence, inter-song
# silences, trail silence).
TINY = GeneratorConfig(
    n_subjects=2,
    n_songs=4,
    song_seconds=20,
    inter_song_silence_seconds=10,
    lead_silence_seconds=20,
    trail_silence_seconds=10,
    sample_rate_hz=250,
    n_channels=8,
    n_bad_channels=1,
    class_separation=1.0,
    seed=123,
)

# 16 channels, two 60 s songs: 12 ten-second epochs, 3.84 MB of float64
# epoch data per subject.
MEMORY_GENERATOR = {
    "n_songs": 2,
    "song_seconds": 60,
    "inter_song_silence_seconds": 10,
    "lead_silence_seconds": 20,
    "trail_silence_seconds": 10,
    "n_channels": 16,
    "n_bad_channels": 1,
}

# 32 channels, six 60 s songs between 240 s silences: an 890 s session whose
# float64 copy (57.0 MB) outweighs the float32 one and the batch of 36
# ten-second epochs (23.0 MB) together, so a second whole-session copy shows,
# and whose rows are long enough (1.78 MB of float64 each) for a few more
# row-sized scratch arrays than generate's to show too.
LONG_SESSION_GENERATOR = dict(
    MEMORY_GENERATOR,
    n_subjects=1,
    n_songs=6,
    song_seconds=60,
    lead_silence_seconds=240,
    trail_silence_seconds=240,
    n_channels=32,
)


@pytest.fixture(scope="session")
def tiny_config():
    return TINY


@pytest.fixture(scope="session")
def tiny_session(tiny_config):
    return generate_session(tiny_config, subject_id=1)


@pytest.fixture(scope="session")
def tiny_session_2(tiny_config):
    return generate_session(tiny_config, subject_id=2)


@pytest.fixture(scope="session")
def tiny_pipeline(tiny_session):
    return run_pipeline(tiny_session, PreprocessConfig())


@pytest.fixture(scope="session")
def tiny_epochs(tiny_pipeline):
    return tuple(tiny_pipeline.epochs)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
