"""Tests for repro.probing.warts: the binary archive format."""

import io

import pytest

from repro.probing.results import (
    PingResult,
    RRPingResult,
    RRUdpResult,
    TracerouteResult,
    TsPingResult,
)
from repro.probing.warts import (
    MAGIC,
    WartsError,
    WartsReader,
    WartsStore,
    WartsWriter,
)

SAMPLES = [
    PingResult(vp_name="mlab-nyc", dst=123, sent=3, replies=1,
               reply_ident=17, reply_time=1.5),
    PingResult(vp_name="mlab-nyc", dst=124, sent=3, replies=0),
    RRPingResult(vp_name="mlab-nyc", dst=456, responded=True,
                 rr_hops=[1, 2, 456, 9], reply_has_rr=True),
    RRPingResult(vp_name="mlab-lax", dst=457, responded=False,
                 ttl_exceeded=True, error_source=99,
                 quoted_rr_hops=[1, 2]),
    RRUdpResult(vp_name="mlab-lax", dst=789, got_unreachable=True,
                quoted_rr_hops=[1, 2], quoted_slots=9, error_source=789),
    RRUdpResult(vp_name="mlab-lax", dst=790, got_unreachable=False),
    TracerouteResult(vp_name="planetlab-den", dst=321,
                     hops=[5, None, 321], reached=True),
    TracerouteResult(vp_name="planetlab-den", dst=322,
                     hops=[None] * 6, reached=False),
    TsPingResult(vp_name="mlab-nyc", dst=555, responded=True, flag=3,
                 entries=[[10, 1000], [20, None]], overflow=2,
                 reply_has_ts=True),
]


def roundtrip(results):
    buffer = io.BytesIO()
    WartsWriter(buffer).write_all(results)
    buffer.seek(0)
    return list(WartsReader(buffer))


class TestRoundtrip:
    def test_all_types(self):
        again = roundtrip(SAMPLES)
        assert again == SAMPLES

    def test_empty_archive(self):
        assert roundtrip([]) == []

    def test_float_times_preserved_to_microseconds(self):
        result = PingResult(vp_name="v", dst=1, sent=1, replies=1,
                            reply_ident=0, reply_time=12.345678)
        again = roundtrip([result])[0]
        assert again.reply_time == pytest.approx(12.345678, abs=1e-6)

    def test_full_rr_header_roundtrip(self):
        hops = list(range(1, 10))
        result = RRPingResult(vp_name="v", dst=5, responded=True,
                              rr_hops=hops, reply_has_rr=True)
        assert roundtrip([result])[0].rr_hops == hops

    def test_unicode_vp_names(self):
        result = PingResult(vp_name="zürich-0", dst=1, sent=1, replies=0)
        assert roundtrip([result])[0].vp_name == "zürich-0"


class TestFraming:
    def test_magic_written(self):
        buffer = io.BytesIO()
        WartsWriter(buffer)
        assert buffer.getvalue()[:4] == MAGIC

    def test_bad_magic_rejected(self):
        with pytest.raises(WartsError):
            WartsReader(io.BytesIO(b"XXXX\x01"))

    def test_bad_version_rejected(self):
        with pytest.raises(WartsError):
            WartsReader(io.BytesIO(MAGIC + b"\x63"))

    def test_truncated_record_rejected(self):
        buffer = io.BytesIO()
        WartsWriter(buffer).write(SAMPLES[0])
        data = buffer.getvalue()[:-3]
        with pytest.raises(WartsError):
            list(WartsReader(io.BytesIO(data)))

    def test_unknown_record_type_rejected(self):
        frame = bytes([99]) + b"junk"
        data = MAGIC + bytes([1]) + len(frame).to_bytes(4, "big") + frame
        with pytest.raises(WartsError):
            list(WartsReader(io.BytesIO(data)))

    def test_records_written_counter(self):
        buffer = io.BytesIO()
        writer = WartsWriter(buffer)
        writer.write_all(SAMPLES)
        assert writer.records_written == len(SAMPLES)


class TestStore:
    def test_path_roundtrip(self, tmp_path):
        store = WartsStore(tmp_path / "results.warts")
        assert store.write(SAMPLES) == len(SAMPLES)
        assert store.read() == SAMPLES
        assert list(store) == SAMPLES

    def test_missing_file_reads_empty(self, tmp_path):
        assert WartsStore(tmp_path / "absent.warts").read() == []

    def test_failed_write_keeps_previous_archive(self, tmp_path):
        store = WartsStore(tmp_path / "results.warts")
        store.write(SAMPLES)

        def failing():
            yield SAMPLES[0]
            raise RuntimeError("probe source died")

        with pytest.raises(RuntimeError):
            store.write(failing())
        assert store.read() == SAMPLES
        assert [p.name for p in tmp_path.iterdir()] == ["results.warts"]

    def test_survey_results_roundtrip(self, tiny_scenario, tmp_path):
        vp = tiny_scenario.working_vps[0]
        results = [
            tiny_scenario.prober.ping_rr(vp, dest.addr)
            for dest in list(tiny_scenario.hitlist)[:25]
        ]
        store = WartsStore(tmp_path / "live.warts")
        store.write(results)
        assert store.read() == results
