"""Property-based tests (hypothesis) on core data structures.

These pin down invariants rather than examples: wire formats
round-trip for *any* valid value, the LPM trie agrees with brute
force on random RIBs, the token bucket never exceeds its configured
rate, the RR option's pointer arithmetic holds under any stamp
sequence, union-find partitions are equivalence classes, and a
truncated or one-byte-changed artifact reads back as written or not
at all.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.aliases import UnionFind
from repro.analysis.cdf import Cdf
from repro.analysis.ip2as import PrefixTrie
from repro.core.survey import (
    SurveyFormatError,
    load_survey,
    run_rr_survey,
    save_survey,
)
from repro.net.addr import MAX_ADDR, Prefix, int_to_addr, addr_to_int, prefix_of
from repro.net.checksum import internet_checksum
from repro.net.icmp import IcmpEcho, IcmpError, ICMP_ECHO_REQUEST
from repro.net.options import (
    RR_MAX_SLOTS,
    OptionDecodeError,
    RecordRouteOption,
    decode_options,
    encode_options,
)
from repro.net.packet import IPv4Packet
from repro.net.udp import UdpDatagram
from repro.probing.artifacts import (
    ArtifactError,
    read_json_artifact,
    write_json_artifact,
)
from repro.scenarios.presets import get_preset
from repro.service.streams import TenantStream, load_stream
from repro.sim.rate_limiter import TokenBucket

addresses = st.integers(min_value=0, max_value=MAX_ADDR)


class TestAddressProperties:
    @given(addresses)
    def test_dotted_quad_roundtrip(self, value):
        assert addr_to_int(int_to_addr(value)) == value

    @given(addresses, st.integers(min_value=0, max_value=32))
    def test_prefix_of_idempotent(self, value, length):
        once = prefix_of(value, length)
        assert prefix_of(once, length) == once

    @given(addresses, st.integers(min_value=0, max_value=32))
    def test_address_within_its_own_prefix(self, value, length):
        prefix = Prefix.containing(value, length)
        assert value in prefix
        assert prefix.base <= value <= prefix.last


class TestChecksumProperties:
    @given(st.binary(max_size=128).filter(lambda b: len(b) % 2 == 0))
    def test_checksum_of_message_plus_checksum_verifies(self, data):
        # Appending the checksum makes the datagram verify (sum to 0).
        checksum = internet_checksum(data)
        assert internet_checksum(data + checksum.to_bytes(2, "big")) == 0

    @given(st.binary(min_size=2, max_size=64))
    def test_checksum_within_16_bits(self, data):
        assert 0 <= internet_checksum(data) <= 0xFFFF


class TestRecordRouteProperties:
    @given(
        st.integers(min_value=1, max_value=RR_MAX_SLOTS),
        st.lists(addresses, max_size=20),
    )
    def test_stamp_sequence_invariants(self, slots, stamps):
        rr = RecordRouteOption(slots=slots)
        accepted = 0
        for addr in stamps:
            if rr.stamp(addr):
                accepted += 1
        assert accepted == min(slots, len(stamps))
        assert rr.recorded == stamps[:accepted]
        assert rr.remaining == slots - accepted
        assert rr.pointer == 4 + 4 * accepted

    @given(
        st.integers(min_value=1, max_value=RR_MAX_SLOTS),
        st.lists(addresses, max_size=RR_MAX_SLOTS),
    )
    def test_wire_roundtrip(self, slots, recorded):
        recorded = recorded[:slots]
        rr = RecordRouteOption(slots=slots, recorded=recorded)
        assert RecordRouteOption.from_bytes(rr.to_bytes()) == rr

    @given(
        st.integers(min_value=1, max_value=RR_MAX_SLOTS),
        st.lists(addresses, max_size=RR_MAX_SLOTS),
    )
    def test_options_area_roundtrip(self, slots, recorded):
        rr = RecordRouteOption(slots=slots, recorded=recorded[:slots])
        assert decode_options(encode_options([rr])) == [rr]


class TestPacketProperties:
    @settings(max_examples=60)
    @given(
        src=addresses,
        dst=addresses,
        ttl=st.integers(min_value=0, max_value=255),
        ident=st.integers(min_value=0, max_value=0xFFFF),
        payload=st.binary(max_size=64),
        slots=st.integers(min_value=1, max_value=RR_MAX_SLOTS),
        stamps=st.lists(addresses, max_size=RR_MAX_SLOTS),
    )
    def test_packet_roundtrip(
        self, src, dst, ttl, ident, payload, slots, stamps
    ):
        pkt = IPv4Packet(
            src=src,
            dst=dst,
            ttl=ttl,
            ident=ident,
            options=[
                RecordRouteOption(slots=slots, recorded=stamps[:slots])
            ],
            payload=payload,
        )
        assert IPv4Packet.from_bytes(pkt.to_bytes()) == pkt


class TestIcmpProperties:
    @given(
        ident=st.integers(min_value=0, max_value=0xFFFF),
        seq=st.integers(min_value=0, max_value=0xFFFF),
        data=st.binary(max_size=64),
    )
    def test_echo_roundtrip(self, ident, seq, data):
        echo = IcmpEcho(ICMP_ECHO_REQUEST, ident, seq, data)
        assert IcmpEcho.from_bytes(echo.to_bytes()) == echo

    @given(
        src=addresses,
        dst=addresses,
        stamps=st.lists(addresses, min_size=0, max_size=9),
    )
    def test_quote_preserves_rr_contents(self, src, dst, stamps):
        pkt = IPv4Packet(
            src=src,
            dst=dst,
            options=[RecordRouteOption(slots=9, recorded=stamps)],
            payload=b"\x00" * 8,
        )
        error = IcmpError.time_exceeded(pkt)
        quoted = IcmpError.from_bytes(error.to_bytes()).quoted_packet()
        assert quoted is not None
        assert quoted.record_route.recorded == stamps


class TestUdpProperties:
    @given(
        st.integers(min_value=0, max_value=0xFFFF),
        st.integers(min_value=0, max_value=0xFFFF),
        st.binary(max_size=64),
    )
    def test_udp_roundtrip(self, sport, dport, payload):
        datagram = UdpDatagram(sport, dport, payload)
        assert UdpDatagram.from_bytes(datagram.to_bytes()) == datagram


class TestTrieProperties:
    @settings(max_examples=40)
    @given(
        st.lists(
            st.tuples(
                addresses, st.integers(min_value=0, max_value=32), st.integers(1, 50)
            ),
            min_size=1,
            max_size=25,
        ),
        st.lists(addresses, min_size=1, max_size=20),
    )
    def test_trie_matches_linear_lpm(self, entries, queries):
        trie = PrefixTrie()
        table = {}
        for base, length, value in entries:
            prefix = Prefix.containing(base, length)
            trie.insert(prefix, value)
            table[prefix] = value  # later insert wins, as in the trie
        for addr in queries:
            best = None
            best_len = -1
            for prefix, value in table.items():
                if addr in prefix and prefix.length > best_len:
                    best, best_len = value, prefix.length
            assert trie.lookup(addr) == best


class TestCdfProperties:
    @given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1))
    def test_cdf_monotone_and_normalised(self, values):
        cdf = Cdf(values)
        xs = sorted(set(values))
        ys = [cdf.at(x) for x in xs]
        assert ys == sorted(ys)
        assert ys[-1] == 1.0
        assert cdf.at(min(values) - 1) == 0.0

    @given(
        st.lists(st.integers(min_value=0, max_value=50), min_size=1),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_quantile_inverse_of_at(self, values, q):
        cdf = Cdf(values)
        v = cdf.quantile(q)
        assert v in values
        assert cdf.at(v) >= q


class TestTokenBucketProperties:
    @settings(max_examples=40)
    @given(
        rate=st.floats(min_value=1.0, max_value=200.0),
        burst=st.floats(min_value=1.0, max_value=20.0),
        gaps=st.lists(
            st.floats(min_value=0.0, max_value=0.5), min_size=1, max_size=200
        ),
    )
    def test_never_exceeds_rate_plus_burst(self, rate, burst, gaps):
        bucket = TokenBucket(rate=rate, burst=burst)
        now = 0.0
        allowed = 0
        for gap in gaps:
            now += gap
            if bucket.allow(now):
                allowed += 1
        assert allowed <= math.floor(rate * now + burst) + 1


class TestUnionFindProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 30), st.integers(0, 30)), max_size=60
        )
    )
    def test_groups_form_partition(self, pairs):
        union = UnionFind()
        for a, b in pairs:
            union.union(a, b)
        groups = union.groups()
        seen = set()
        for group in groups:
            assert len(group) > 1
            assert not (group & seen)
            seen |= group
        for a, b in pairs:
            assert union.find(a) == union.find(b)


class TestOptionsFuzz:
    """The option decoders are a trust boundary: hostile bytes from
    the dataplane must produce :class:`OptionDecodeError` (which the
    reply-validation pipeline converts to a quarantine record) and
    never any other exception; valid encodings must round-trip
    byte-exactly."""

    @given(st.binary(max_size=64))
    def test_rr_from_bytes_raises_only_decode_error(self, data):
        try:
            option = RecordRouteOption.from_bytes(data)
        except OptionDecodeError:
            return
        # Anything that decodes must satisfy the structural invariants
        # (unused slot bytes are not semantic, so byte-exact re-encode
        # is only promised for canonical encodings).
        assert 1 <= option.slots <= RR_MAX_SLOTS
        assert len(option.recorded) <= option.slots
        assert option.pointer == 4 + 4 * len(option.recorded)

    @given(st.binary(max_size=80))
    def test_decode_options_raises_only_decode_error(self, data):
        try:
            decode_options(bytes(data))
        except OptionDecodeError:
            pass

    @given(
        st.integers(min_value=1, max_value=RR_MAX_SLOTS),
        st.lists(addresses, max_size=RR_MAX_SLOTS),
    )
    def test_valid_encoding_roundtrips_byte_exactly(
        self, slots, recorded
    ):
        recorded = recorded[:slots]
        option = RecordRouteOption(slots=slots, recorded=recorded)
        wire = option.to_bytes()
        decoded = RecordRouteOption.from_bytes(wire)
        assert decoded.slots == slots
        assert list(decoded.recorded) == list(recorded)
        assert decoded.to_bytes() == wire

    @given(
        st.integers(min_value=1, max_value=RR_MAX_SLOTS),
        st.lists(addresses, max_size=RR_MAX_SLOTS),
        st.data(),
    )
    def test_truncations_of_valid_wire_always_rejected(
        self, slots, recorded, data
    ):
        wire = RecordRouteOption(
            slots=slots, recorded=recorded[:slots]
        ).to_bytes()
        cut = data.draw(st.integers(min_value=0, max_value=len(wire) - 1))
        try:
            RecordRouteOption.from_bytes(wire[:cut])
        except OptionDecodeError:
            return
        raise AssertionError(
            f"truncated wire ({cut}/{len(wire)} bytes) decoded"
        )

    @given(
        st.integers(min_value=1, max_value=RR_MAX_SLOTS),
        st.lists(addresses, max_size=RR_MAX_SLOTS),
        st.data(),
    )
    def test_single_byte_mutations_never_crash(
        self, slots, recorded, data
    ):
        wire = bytearray(
            RecordRouteOption(
                slots=slots, recorded=recorded[:slots]
            ).to_bytes()
        )
        index = data.draw(
            st.integers(min_value=0, max_value=len(wire) - 1)
        )
        wire[index] ^= data.draw(st.integers(min_value=1, max_value=255))
        try:
            option = RecordRouteOption.from_bytes(bytes(wire))
        except OptionDecodeError:
            return
        # A mutation that still decodes (e.g. in the unused slot area
        # or a stamp byte) must still satisfy the invariants.
        assert 1 <= option.slots <= RR_MAX_SLOTS
        assert option.pointer == 4 + 4 * len(option.recorded)

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=RR_MAX_SLOTS),
                st.lists(addresses, max_size=RR_MAX_SLOTS),
            ),
            max_size=2,
        )
    )
    def test_options_area_roundtrip(self, specs):
        options = [
            RecordRouteOption(slots=slots, recorded=recorded[:slots])
            for slots, recorded in specs
        ]
        try:
            area = encode_options(options)
        except ValueError:
            return  # > 40 bytes: the encoder's documented refusal
        decoded = decode_options(area)
        assert [opt.to_bytes() for opt in decoded] == [
            opt.to_bytes() for opt in options
        ]


# -- Artifact framings -----------------------------------------------------

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**64), max_value=2**64)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=5), children, max_size=3),
    max_leaves=10,
)
# Top-level keys the framings reserve are left out: ``sha256`` carries
# the digest and ``record`` tags a sealed-JSONL trailer.
json_records = st.dictionaries(
    st.text(max_size=6).filter(lambda key: key not in ("sha256", "record")),
    json_values,
    max_size=4,
)


def _corrupt(data, blob: bytes) -> bytes:
    """``blob`` truncated, or with one byte changed (often in the
    ``"sha256"`` key, where a change once made a file load unverified)."""
    if data.draw(st.booleans(), label="truncate"):
        return blob[: data.draw(st.integers(0, len(blob) - 1), label="cut")]
    key = blob.find(b'"sha256"')
    if key >= 0 and data.draw(st.booleans(), label="in_key"):
        # Another key name, still valid JSON.
        index = data.draw(st.integers(key + 1, key + 6), label="index")
        value = data.draw(st.sampled_from(b"XYZxyz0189"), label="value")
    else:
        index = data.draw(st.integers(0, len(blob) - 1), label="index")
        value = data.draw(st.integers(0, 255), label="value")
    if value == blob[index]:
        value ^= 0x01
    return blob[:index] + bytes([value]) + blob[index + 1:]


def _reads_back_or_rejects(read, path, expected) -> None:
    """``read(path)`` returns exactly ``expected`` or raises the
    framing error naming ``path``; anything else fails."""
    try:
        got = read(path)
    except ArtifactError as exc:
        assert str(path) in str(exc)
        return
    assert got == expected


class TestArtifactFraming:
    """Both artifact framings under truncation and one-byte changes:
    a damaged file reads back as the data written or not at all."""

    @settings(max_examples=80, deadline=None)
    @given(json_records, st.sampled_from(["a.json", "a.json.gz"]), st.data())
    def test_json_document_survives_or_rejects(
        self, tmp_path_factory, record, name, data
    ):
        path = tmp_path_factory.getbasetemp() / name
        write_json_artifact(path, record)
        assert read_json_artifact(path) == record
        path.write_bytes(_corrupt(data, path.read_bytes()))
        _reads_back_or_rejects(read_json_artifact, path, record)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(json_records, max_size=3), st.data())
    def test_sealed_jsonl_survives_or_rejects(
        self, tmp_path_factory, records, data
    ):
        path = tmp_path_factory.getbasetemp() / "fuzz" / "s.jsonl"
        path.unlink(missing_ok=True)
        stream = TenantStream.open(path, "fuzz", "s")
        for record in records:
            stream.append(record)
        stream.finalize()
        assert load_stream(path)[0] == records
        path.write_bytes(_corrupt(data, path.read_bytes()))
        _reads_back_or_rejects(
            lambda p: load_stream(p)[0], path, records
        )

    def test_checksum_key_change_rejects_survey(self, tmp_path):
        scenario = get_preset("tiny", seed=7)
        survey = run_rr_survey(
            scenario,
            dests=list(scenario.hitlist)[:20],
            vps=list(scenario.vps)[:3],
        )
        path = tmp_path / "s.json"
        save_survey(survey, path)
        blob = bytearray(path.read_bytes())
        key = blob.index(b'"sha256"')
        blob[key + 4] = ord("X")  # "sha256" -> "shaX56"
        path.write_bytes(bytes(blob))
        with pytest.raises(SurveyFormatError) as err:
            load_survey(path)
        assert str(path) in str(err.value)
        # A second change to the data itself must not load either.
        addr = blob.index(b'"addr":', blob.index(b'"dests"')) + len('"addr":')
        blob[addr] = ord("9") if blob[addr] != ord("9") else ord("8")
        path.write_bytes(bytes(blob))
        with pytest.raises(SurveyFormatError):
            load_survey(path)
