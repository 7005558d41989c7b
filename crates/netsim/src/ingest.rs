//! Wire-level replay ingestion: MRT-style update traces fed through the
//! real BGP codec.
//!
//! The paper's pitch is testing the *deployed* artifact — the byte format
//! routers actually emit — yet exploration inputs are born as in-memory
//! structs everywhere else in this codebase. This module closes that gap:
//!
//! * [`WireTrace`] is an MRT-style update-trace container — framed,
//!   timestamped, peer-tagged **raw BGP message bytes** — with a compact
//!   binary serialization ([`WireTrace::to_bytes`] /
//!   [`WireTrace::from_bytes`]) and a synthetic generator
//!   ([`synthesize_wire_trace`], since no CAIDA/RouteViews data ships
//!   offline);
//! * [`WireReplayDriver`] adapts a trace to the
//!   `FnMut(&mut Simulator, usize) -> bool` epoch-driver contract of
//!   `LiveOrchestrator::run`: each epoch it decodes the next stretch of
//!   frames **strictly through [`dice_bgp::wire::decode`]**, verifies the
//!   encode→decode→encode byte identity of every message, and injects the
//!   decoded messages into the [`Simulator`] — so every explored input has
//!   round-tripped the real RFC 4271 byte format;
//! * malformed frames never panic: every failure becomes a structured
//!   [`IngestError`] recorded in [`IngestStats::events`] (and counted), and
//!   replay continues with the next frame;
//! * decode throughput is metered ([`ThroughputMeter`]) and surfaces as
//!   updates/s decoded through [`IngestStats`] — which a control plane can
//!   sample mid-run via the [`SharedIngestStats`] handle.

use std::fmt;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dice_bgp::error::BgpError;
use dice_bgp::message::{BgpMessage, UpdateMessage};
use dice_bgp::wire;
use dice_obs::Histogram;

use crate::metrics::ThroughputMeter;
use crate::sim::Simulator;
use crate::topology::NodeId;
use crate::trace::{generate_trace, TraceGenConfig};

/// Magic bytes opening a serialized [`WireTrace`].
const WIRE_TRACE_MAGIC: [u8; 8] = *b"DICEWIRE";
/// Serialization format version written by [`WireTrace::to_bytes`].
const WIRE_TRACE_VERSION: u16 = 2;

/// One framed trace entry: a raw BGP message as captured on the wire,
/// stamped with when it arrived and which peer of which node sent it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRecord {
    /// Milliseconds since the start of the trace.
    pub at_ms: u64,
    /// The node that received the message.
    pub node: NodeId,
    /// The address of the peer that sent it (resolved against the node's
    /// neighbor table at injection time, exactly like [`Simulator::inject`]).
    pub peer: Ipv4Addr,
    /// The raw message bytes, exactly as they appeared on the wire.
    pub bytes: Vec<u8>,
}

/// An MRT-style update-trace container: framed, timestamped, peer-tagged
/// raw BGP message bytes, in chronological order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WireTrace {
    /// The framed records, in trace order.
    pub records: Vec<WireRecord>,
}

impl WireTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of framed records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns true when the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Timestamp of the last record, in milliseconds (0 when empty).
    pub fn duration_ms(&self) -> u64 {
        self.records.last().map(|r| r.at_ms).unwrap_or(0)
    }

    /// Appends an already-framed raw message.
    pub fn push_raw(&mut self, at_ms: u64, node: NodeId, peer: Ipv4Addr, bytes: Vec<u8>) {
        self.records.push(WireRecord {
            at_ms,
            node,
            peer,
            bytes,
        });
    }

    /// Encodes a message through the real codec ([`wire::encode`]) and
    /// appends the resulting frame.
    pub fn push_message(&mut self, at_ms: u64, node: NodeId, peer: Ipv4Addr, msg: &BgpMessage) {
        self.push_raw(at_ms, node, peer, wire::encode(msg).to_vec());
    }

    /// Convenience for the dominant case: frames one UPDATE.
    pub fn push_update(
        &mut self,
        at_ms: u64,
        node: NodeId,
        peer: Ipv4Addr,
        update: &UpdateMessage,
    ) {
        self.push_message(at_ms, node, peer, &BgpMessage::Update(update.clone()));
    }

    /// Serializes the trace: magic, version, record count, then each
    /// record as `at_ms:u64 | node:u32 | peer:u32 | len:u32 | bytes`, all
    /// big-endian. Version 1 framed `len` as a `u16`, which wrapped the
    /// length of a frame over 65,535 bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let payload: usize = self.records.iter().map(|r| 20 + r.bytes.len()).sum();
        let mut out = Vec::with_capacity(14 + payload);
        out.extend_from_slice(&WIRE_TRACE_MAGIC);
        out.extend_from_slice(&WIRE_TRACE_VERSION.to_be_bytes());
        out.extend_from_slice(&(self.records.len() as u32).to_be_bytes());
        for r in &self.records {
            out.extend_from_slice(&r.at_ms.to_be_bytes());
            out.extend_from_slice(&(r.node.0 as u32).to_be_bytes());
            out.extend_from_slice(&u32::from(r.peer).to_be_bytes());
            let len = u32::try_from(r.bytes.len()).expect("a frame is shorter than 4 GiB");
            out.extend_from_slice(&len.to_be_bytes());
            out.extend_from_slice(&r.bytes);
        }
        out
    }

    /// Parses a serialized trace. Framing problems (bad magic, unsupported
    /// version, truncated records) are reported as structured
    /// [`IngestError`]s; message *contents*, a frame's length included, are
    /// not validated here — that is the replay driver's job, per frame.
    pub fn from_bytes(buf: &[u8]) -> Result<WireTrace, IngestError> {
        let take = |offset: &mut usize, n: usize| -> Result<usize, IngestError> {
            if buf.len() < *offset + n {
                return Err(IngestError::TruncatedTrace {
                    offset: *offset,
                    needed: n,
                    available: buf.len() - *offset,
                });
            }
            let at = *offset;
            *offset += n;
            Ok(at)
        };
        let mut offset = 0usize;
        let at = take(&mut offset, 8)?;
        if buf[at..at + 8] != WIRE_TRACE_MAGIC {
            return Err(IngestError::BadMagic);
        }
        let at = take(&mut offset, 2)?;
        let version = u16::from_be_bytes([buf[at], buf[at + 1]]);
        if version != WIRE_TRACE_VERSION {
            return Err(IngestError::UnsupportedVersion(version));
        }
        let at = take(&mut offset, 4)?;
        let count = u32::from_be_bytes(buf[at..at + 4].try_into().expect("4 bytes")) as usize;
        let mut records = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let at = take(&mut offset, 20)?;
            let at_ms = u64::from_be_bytes(buf[at..at + 8].try_into().expect("8 bytes"));
            let node = u32::from_be_bytes(buf[at + 8..at + 12].try_into().expect("4 bytes"));
            let peer = u32::from_be_bytes(buf[at + 12..at + 16].try_into().expect("4 bytes"));
            let len =
                u32::from_be_bytes(buf[at + 16..at + 20].try_into().expect("4 bytes")) as usize;
            let at = take(&mut offset, len)?;
            records.push(WireRecord {
                at_ms,
                node: NodeId(node as usize),
                peer: Ipv4Addr::from(peer),
                bytes: buf[at..at + len].to_vec(),
            });
        }
        Ok(WireTrace { records })
    }
}

/// Generates a synthetic wire trace: the synthetic RouteViews-like trace
/// of [`generate_trace`] (table dump at `t=0`, then timestamped
/// incremental updates), every message encoded through the real codec and
/// framed as received by `node` from the peer at `peer_addr` (whose AS is
/// `neighbor_as`).
pub fn synthesize_wire_trace(
    config: &TraceGenConfig,
    node: NodeId,
    neighbor_as: u32,
    peer_addr: Ipv4Addr,
) -> WireTrace {
    let trace = generate_trace(config, neighbor_as, peer_addr);
    let mut out = WireTrace::new();
    for update in &trace.table {
        out.push_update(0, node, peer_addr, update);
    }
    for event in &trace.updates {
        out.push_update(event.at_ms, node, peer_addr, &event.update);
    }
    out
}

/// A structured ingestion failure — surfaced as a trace event (recorded
/// and counted in [`IngestStats`]), never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The serialized trace does not start with the `DICEWIRE` magic.
    BadMagic,
    /// The serialized trace declares a format version this build cannot
    /// read.
    UnsupportedVersion(u16),
    /// The serialized trace ends mid-header or mid-frame.
    TruncatedTrace {
        /// Byte offset at which the shortfall was discovered.
        offset: usize,
        /// Bytes the parser needed at that offset.
        needed: usize,
        /// Bytes actually remaining.
        available: usize,
    },
    /// A frame's bytes failed [`wire::decode`] — truncated message, bad
    /// marker, unknown attribute flags, malformed lengths, ...
    Decode {
        /// Index of the offending record.
        record: usize,
        /// The codec's verdict.
        error: BgpError,
    },
    /// A frame holds more bytes than the one message it frames.
    TrailingBytes {
        /// Index of the offending record.
        record: usize,
        /// Bytes left over after the decoded message.
        extra: usize,
    },
    /// The frame decoded, but re-encoding the message did not reproduce
    /// the frame byte-for-byte — the capture is not in canonical form.
    ReencodeMismatch {
        /// Index of the offending record.
        record: usize,
    },
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IngestError::BadMagic => write!(f, "bad trace magic"),
            IngestError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            IngestError::TruncatedTrace {
                offset,
                needed,
                available,
            } => write!(
                f,
                "truncated trace at offset {offset}: need {needed} bytes, have {available}"
            ),
            IngestError::Decode { record, error } => {
                write!(f, "record {record}: decode failed: {error}")
            }
            IngestError::TrailingBytes { record, extra } => {
                write!(f, "record {record}: {extra} trailing byte(s) after message")
            }
            IngestError::ReencodeMismatch { record } => {
                write!(f, "record {record}: re-encoded bytes differ from frame")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// Counters and events accumulated by a [`WireReplayDriver`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IngestStats {
    /// Frames pulled from the trace.
    pub frames: u64,
    /// Messages that decoded and passed the byte-identity check.
    pub decoded: u64,
    /// Decoded UPDATE messages injected into the simulator.
    pub injected_updates: u64,
    /// Frames rejected by [`wire::decode`] (or with trailing bytes).
    pub decode_errors: u64,
    /// Frames whose re-encoding differed from the captured bytes.
    pub reencode_mismatches: u64,
    /// Raw bytes consumed from the trace.
    pub bytes_consumed: u64,
    /// Decode throughput: updates/s through the wire codec.
    pub meter: ThroughputMeter,
    /// Distribution of per-epoch frame-decode time (nanoseconds): one
    /// sample per `drive` call, covering the codec loop only.
    pub decode_time: Histogram,
    /// Every structured failure, in frame order.
    pub events: Vec<IngestError>,
}

impl IngestStats {
    /// Updates decoded per second of codec time (0 before any work).
    pub fn updates_per_second(&self) -> f64 {
        self.meter.updates_per_second()
    }
}

/// A clone-cheap, thread-shareable handle on one driver's [`IngestStats`]
/// — what a control plane samples mid-run while the driver keeps
/// ingesting.
#[derive(Debug, Clone, Default)]
pub struct SharedIngestStats {
    inner: Arc<Mutex<IngestStats>>,
}

impl SharedIngestStats {
    /// A point-in-time copy of the stats, [`IngestStats::events`]
    /// included.
    pub fn snapshot(&self) -> IngestStats {
        self.read(IngestStats::clone)
    }

    /// Runs `f` on the stats under the lock: a reader that needs only the
    /// counters takes them without copying the event list, which grows
    /// for the whole run.
    pub fn read<R>(&self, f: impl FnOnce(&IngestStats) -> R) -> R {
        f(&self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner()))
    }

    fn with<R>(&self, f: impl FnOnce(&mut IngestStats) -> R) -> R {
        let mut guard = self
            .inner
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        f(&mut guard)
    }
}

/// How a [`WireReplayDriver`] slices its trace into driver epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EpochSplit {
    /// Deliver everything on the first epoch.
    AllAtOnce,
    /// Deliver at most this many frames per epoch.
    ByCount(usize),
    /// Deliver frames whose timestamp falls inside successive windows of
    /// this many milliseconds.
    ByTime(u64),
}

/// Replays a [`WireTrace`] into a [`Simulator`], one epoch at a time,
/// decoding every frame through [`wire::decode`].
///
/// [`WireReplayDriver::drive`] matches the driver contract of
/// `LiveOrchestrator::run` — pass `|sim, epoch| driver.drive(sim, epoch)`
/// — so a live exploration run can be fed *entirely* from wire bytes: no
/// in-memory `UpdateMessage` ever enters the simulator without having
/// round-tripped the real byte format (each frame is checked
/// encode→decode→encode byte-identical; non-canonical frames are counted,
/// recorded and skipped rather than injected).
#[derive(Debug)]
pub struct WireReplayDriver {
    records: Vec<WireRecord>,
    cursor: usize,
    split: EpochSplit,
    window_end_ms: u64,
    stats: SharedIngestStats,
    /// Where each decoded frame is re-encoded for the byte-identity check.
    reencoded: Vec<u8>,
}

impl WireReplayDriver {
    /// Creates a driver that delivers the whole trace on its first epoch.
    pub fn new(trace: WireTrace) -> Self {
        WireReplayDriver {
            records: trace.records,
            cursor: 0,
            split: EpochSplit::AllAtOnce,
            window_end_ms: 0,
            stats: SharedIngestStats::default(),
            reencoded: Vec::new(),
        }
    }

    /// Delivers at most `n` frames per epoch (clamped to at least 1).
    pub fn with_frames_per_epoch(mut self, n: usize) -> Self {
        self.split = EpochSplit::ByCount(n.max(1));
        self
    }

    /// Delivers, each epoch, the frames whose timestamps fall in the next
    /// `ms`-millisecond window (clamped to at least 1 ms) — replaying the
    /// trace on its own timeline, one window per driver epoch.
    pub fn with_epoch_ms(mut self, ms: u64) -> Self {
        self.split = EpochSplit::ByTime(ms.max(1));
        self
    }

    /// The shared counters handle; clone it into a control plane to sample
    /// ingest progress mid-run.
    pub fn stats(&self) -> SharedIngestStats {
        self.stats.clone()
    }

    /// Frames not yet delivered.
    pub fn remaining(&self) -> usize {
        self.records.len() - self.cursor
    }

    /// Delivers the next epoch's frames: decode each through the real
    /// codec, verify byte identity, inject into the simulator. Returns
    /// whether more frames remain — the `LiveOrchestrator` driver
    /// contract. Failures are recorded in [`IngestStats::events`]; the
    /// frame is skipped and replay continues.
    pub fn drive(&mut self, sim: &mut Simulator, _epoch: usize) -> bool {
        let mut span = dice_obs::span("netsim", "ingest.drive");
        let end = match self.split {
            EpochSplit::AllAtOnce => self.records.len(),
            EpochSplit::ByCount(n) => self.records.len().min(self.cursor + n),
            EpochSplit::ByTime(ms) => {
                self.window_end_ms += ms;
                let deadline = self.window_end_ms;
                let mut end = self.cursor;
                while end < self.records.len() && self.records[end].at_ms < deadline {
                    end += 1;
                }
                end
            }
        };

        let started = Instant::now();
        let mut batch = IngestStats::default();
        let mut injections: Vec<(NodeId, Ipv4Addr, BgpMessage)> = Vec::new();
        for index in self.cursor..end {
            let record = &self.records[index];
            batch.frames += 1;
            batch.bytes_consumed += record.bytes.len() as u64;
            match wire::decode(&record.bytes) {
                Err(error) => {
                    batch.decode_errors += 1;
                    batch.events.push(IngestError::Decode {
                        record: index,
                        error,
                    });
                }
                Ok((msg, used)) if used != record.bytes.len() => {
                    batch.decode_errors += 1;
                    batch.events.push(IngestError::TrailingBytes {
                        record: index,
                        extra: record.bytes.len() - used,
                    });
                    let _ = msg;
                }
                Ok((msg, _)) => {
                    wire::encode_into(&msg, &mut self.reencoded);
                    if self.reencoded[..] != record.bytes[..] {
                        batch.reencode_mismatches += 1;
                        batch
                            .events
                            .push(IngestError::ReencodeMismatch { record: index });
                        continue;
                    }
                    batch.decoded += 1;
                    if matches!(msg, BgpMessage::Update(_)) {
                        batch.injected_updates += 1;
                    }
                    injections.push((record.node, record.peer, msg));
                }
            }
        }
        let decode_elapsed = started.elapsed();
        batch.meter.record(batch.decoded, decode_elapsed);
        batch.decode_time.record_duration(decode_elapsed);
        span.set_detail(batch.frames);
        self.cursor = end;

        for (node, peer, msg) in injections {
            sim.inject(node, peer, msg);
        }
        self.stats.with(|stats| {
            stats.frames += batch.frames;
            stats.decoded += batch.decoded;
            stats.injected_updates += batch.injected_updates;
            stats.decode_errors += batch.decode_errors;
            stats.reencode_mismatches += batch.reencode_mismatches;
            stats.bytes_consumed += batch.bytes_consumed;
            stats.meter.merge(&batch.meter);
            stats.decode_time.merge(&batch.decode_time);
            stats.events.extend(batch.events);
        });
        self.cursor < self.records.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{addr, asn, figure2_topology, CustomerFilterMode};
    use dice_bgp::attributes::RouteAttrs;
    use dice_bgp::prefix::Ipv4Prefix;
    use dice_bgp::AsPath;

    fn announcement(prefix: &str, path: &[u32], next_hop: Ipv4Addr) -> BgpMessage {
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence(path.iter().copied());
        attrs.next_hop = next_hop;
        BgpMessage::Update(UpdateMessage::announce(
            vec![prefix.parse().expect("valid")],
            &attrs,
        ))
    }

    fn sample_trace(provider: NodeId) -> WireTrace {
        let mut trace = WireTrace::new();
        trace.push_message(
            0,
            provider,
            addr::INTERNET,
            &announcement(
                "208.65.152.0/22",
                &[asn::INTERNET, 3356, asn::VICTIM],
                addr::INTERNET,
            ),
        );
        trace.push_message(
            1000,
            provider,
            addr::CUSTOMER,
            &announcement(
                "41.1.0.0/16",
                &[asn::CUSTOMER, asn::CUSTOMER],
                addr::CUSTOMER,
            ),
        );
        trace
    }

    #[test]
    fn serialization_roundtrips_byte_identically() {
        let trace = sample_trace(NodeId(1));
        let bytes = trace.to_bytes();
        let parsed = WireTrace::from_bytes(&bytes).expect("parses");
        assert_eq!(parsed, trace);
        assert_eq!(parsed.to_bytes(), bytes);
        assert_eq!(trace.len(), 2);
        assert!(!trace.is_empty());
        assert_eq!(trace.duration_ms(), 1000);
        let empty = WireTrace::new();
        assert_eq!(
            WireTrace::from_bytes(&empty.to_bytes()).expect("parses"),
            empty
        );
    }

    #[test]
    fn framing_errors_are_structured() {
        let trace = sample_trace(NodeId(1));
        let bytes = trace.to_bytes();

        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'X';
        assert_eq!(
            WireTrace::from_bytes(&bad_magic),
            Err(IngestError::BadMagic)
        );

        let mut bad_version = bytes.clone();
        bad_version[9] = 99;
        assert_eq!(
            WireTrace::from_bytes(&bad_version),
            Err(IngestError::UnsupportedVersion(99))
        );

        let truncated = &bytes[..bytes.len() - 3];
        assert!(matches!(
            WireTrace::from_bytes(truncated),
            Err(IngestError::TruncatedTrace { .. })
        ));

        // A declared frame length beyond what the buffer holds is a
        // truncated trace, whatever the length.
        let mut oversized = bytes.clone();
        oversized[30..34].copy_from_slice(&[0xff; 4]);
        assert!(matches!(
            WireTrace::from_bytes(&oversized),
            Err(IngestError::TruncatedTrace {
                offset: 34,
                needed: 0xffff_ffff,
                ..
            })
        ));
        assert!(IngestError::BadMagic.to_string().contains("magic"));
    }

    #[test]
    fn replay_decodes_through_the_codec_and_matches_in_memory_delivery() {
        let topo = figure2_topology(CustomerFilterMode::Erroneous);
        let provider = topo.node_by_name("Provider").expect("node");

        // Wire path: raw bytes through decode.
        let mut wire_sim = Simulator::new(&topo);
        let mut driver = WireReplayDriver::new(sample_trace(provider)).with_frames_per_epoch(1);
        let stats = driver.stats();
        assert!(driver.drive(&mut wire_sim, 0), "one frame left");
        wire_sim.run_to_quiescence(100);
        assert!(!driver.drive(&mut wire_sim, 1), "trace exhausted");
        wire_sim.run_to_quiescence(100);
        assert_eq!(driver.remaining(), 0);

        // In-memory path: the same messages as structs.
        let mut mem_sim = Simulator::new(&topo);
        mem_sim.inject(
            provider,
            addr::INTERNET,
            announcement(
                "208.65.152.0/22",
                &[asn::INTERNET, 3356, asn::VICTIM],
                addr::INTERNET,
            ),
        );
        mem_sim.run_to_quiescence(100);
        mem_sim.inject(
            provider,
            addr::CUSTOMER,
            announcement(
                "41.1.0.0/16",
                &[asn::CUSTOMER, asn::CUSTOMER],
                addr::CUSTOMER,
            ),
        );
        mem_sim.run_to_quiescence(100);

        assert_eq!(
            format!("{:?}", wire_sim.observed_log()),
            format!("{:?}", mem_sim.observed_log()),
            "wire replay must reproduce the in-memory delivery log"
        );
        let s = stats.snapshot();
        assert_eq!(s.frames, 2);
        assert_eq!(s.decoded, 2);
        assert_eq!(s.injected_updates, 2);
        assert_eq!(s.decode_errors, 0);
        assert_eq!(s.reencode_mismatches, 0);
        assert!(s.bytes_consumed > 0);
        assert!(s.events.is_empty());
    }

    #[test]
    fn malformed_frames_become_events_not_panics() {
        let topo = figure2_topology(CustomerFilterMode::Correct);
        let provider = topo.node_by_name("Provider").expect("node");
        let mut trace = sample_trace(provider);
        // Corrupt the second frame's marker.
        trace.records[1].bytes[3] = 0;
        // A frame with trailing garbage after a valid message.
        let mut padded = wire::encode(&announcement(
            "41.2.0.0/16",
            &[asn::CUSTOMER, asn::CUSTOMER],
            addr::CUSTOMER,
        ))
        .to_vec();
        padded.push(0xAB);
        trace.push_raw(2000, provider, addr::CUSTOMER, padded);

        let mut sim = Simulator::new(&topo);
        let mut driver = WireReplayDriver::new(trace);
        assert!(!driver.drive(&mut sim, 0));
        sim.run_to_quiescence(100);

        let s = driver.stats().snapshot();
        assert_eq!(s.frames, 3);
        assert_eq!(s.decoded, 1, "only the intact frame is injected");
        assert_eq!(s.decode_errors, 2);
        assert_eq!(s.events.len(), 2);
        assert!(matches!(
            s.events[0],
            IngestError::Decode {
                record: 1,
                error: BgpError::BadMarker
            }
        ));
        assert!(matches!(
            s.events[1],
            IngestError::TrailingBytes {
                record: 2,
                extra: 1
            }
        ));
        assert!(s.events[1].to_string().contains("trailing"));
    }

    #[test]
    fn a_repeated_attribute_is_one_decode_error_on_replay() {
        let topo = figure2_topology(CustomerFilterMode::Correct);
        let provider = topo.node_by_name("Provider").expect("node");
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence([asn::CUSTOMER]);
        attrs.next_hop = addr::CUSTOMER;
        attrs.med = Some(5);
        let update = UpdateMessage::announce(vec!["41.1.0.0/16".parse().expect("valid")], &attrs);
        let mut frame = wire::encode(&BgpMessage::Update(update)).to_vec();
        // MED is the block's last attribute: write it a second time, and
        // grow the block and message lengths to match.
        let block_end =
            wire::HEADER_LEN + 4 + usize::from(u16::from_be_bytes([frame[21], frame[22]]));
        let med: Vec<u8> = frame[block_end - 7..block_end].to_vec();
        frame.splice(block_end..block_end, med);
        let grow = |frame: &mut Vec<u8>, at: usize| {
            let len = u16::from_be_bytes([frame[at], frame[at + 1]]) + 7;
            frame[at..at + 2].copy_from_slice(&len.to_be_bytes());
        };
        grow(&mut frame, 16);
        grow(&mut frame, 21);
        let mut trace = WireTrace::new();
        trace.push_raw(0, provider, addr::CUSTOMER, frame);

        let mut sim = Simulator::new(&topo);
        let mut driver = WireReplayDriver::new(trace);
        assert!(!driver.drive(&mut sim, 0));
        let s = driver.stats().snapshot();
        assert_eq!((s.frames, s.decoded, s.decode_errors), (1, 0, 1));
        assert_eq!(
            s.events,
            [IngestError::Decode {
                record: 0,
                error: BgpError::Update(
                    dice_bgp::error::UpdateErrorSubcode::MalformedAttributeList
                ),
            }]
        );
    }

    #[test]
    fn replayed_routes_share_the_attributes_of_the_update_they_arrived_with() {
        let topo = figure2_topology(CustomerFilterMode::Erroneous);
        let provider = topo.node_by_name("Provider").expect("node");
        let customer = topo.node_by_name("Customer").expect("node");
        let mut sim = Simulator::new(&topo);
        let mut driver = WireReplayDriver::new(sample_trace(provider));
        assert!(!driver.drive(&mut sim, 0));
        sim.run_to_quiescence(100);

        // The Internet's announcement: the Provider's Loc-RIB route and the
        // UPDATE in its observed log hold one attribute set; so do the
        // Customer's route and the UPDATE the Provider exported to it.
        let prefix: Ipv4Prefix = "208.65.152.0/22".parse().expect("valid");
        for node in [provider, customer] {
            let route = sim
                .router(node)
                .rib()
                .best_route(&prefix)
                .expect("installed");
            let observed = sim
                .observed_log()
                .iter()
                .filter(|o| o.node() == node)
                .map(crate::ObservedInput::to_update)
                .find(|u| u.nlri.contains(&prefix))
                .expect("observed");
            let attrs = observed.attrs.as_ref().expect("an announcement");
            assert!(std::sync::Arc::ptr_eq(&route.attrs, attrs), "node {node:?}");
        }
    }

    #[test]
    fn an_oversized_frame_fails_alone_on_replay() {
        let topo = figure2_topology(CustomerFilterMode::Correct);
        let provider = topo.node_by_name("Provider").expect("node");
        // A 1,200-prefix UPDATE encodes, but longer than a BGP message may
        // be; it sits between the two frames of the sample trace.
        let prefixes = (0..1200u32)
            .map(|i| Ipv4Prefix::new((60 << 24) | (i << 8), 24).expect("a /24"))
            .collect();
        let mut attrs = RouteAttrs::default();
        attrs.as_path = AsPath::from_sequence([asn::CUSTOMER]);
        attrs.next_hop = addr::CUSTOMER;
        let oversized = UpdateMessage::announce(prefixes, &attrs);
        let mut trace = sample_trace(provider);
        let last = trace.records.pop().expect("two frames");
        trace.push_update(500, provider, addr::CUSTOMER, &oversized);
        trace.records.push(last);
        assert_eq!(trace.records[1].bytes.len(), 4843);

        let parsed = WireTrace::from_bytes(&trace.to_bytes()).expect("the trace parses");
        assert_eq!(parsed, trace);

        let mut sim = Simulator::new(&topo);
        let mut driver = WireReplayDriver::new(parsed);
        assert!(!driver.drive(&mut sim, 0));
        sim.run_to_quiescence(100);
        let s = driver.stats().snapshot();
        assert_eq!(s.frames, 3);
        assert_eq!(s.decode_errors, 1);
        assert_eq!(s.injected_updates, 2, "the other two frames are delivered");
        assert_eq!(
            s.events,
            [IngestError::Decode {
                record: 1,
                error: BgpError::BadLength(4843),
            }]
        );
        assert!(sim
            .router(provider)
            .rib()
            .best_route(&"41.1.0.0/16".parse().expect("valid"))
            .is_some());
    }

    #[test]
    fn a_frame_over_65535_bytes_keeps_its_length() {
        let topo = figure2_topology(CustomerFilterMode::Correct);
        let provider = topo.node_by_name("Provider").expect("node");
        let mut trace = WireTrace::new();
        trace.push_raw(0, provider, addr::CUSTOMER, vec![0xff; 70_000]);
        let keepalive = BgpMessage::Keepalive(dice_bgp::message::KeepaliveMessage);
        trace.push_message(1, provider, addr::CUSTOMER, &keepalive);

        let parsed = WireTrace::from_bytes(&trace.to_bytes()).expect("the trace parses");
        let lengths: Vec<usize> = parsed.records.iter().map(|r| r.bytes.len()).collect();
        assert_eq!(lengths, [70_000, 19]);
        assert_eq!(parsed, trace);

        let mut sim = Simulator::new(&topo);
        let mut driver = WireReplayDriver::new(parsed);
        assert!(!driver.drive(&mut sim, 0));
        let s = driver.stats().snapshot();
        assert_eq!(s.frames, 2);
        assert_eq!(s.decode_errors, 1);
        assert_eq!(s.decoded, 1, "the keepalive decodes");
        assert!(matches!(
            s.events[..],
            [IngestError::Decode { record: 0, .. }]
        ));
    }

    #[test]
    fn time_sliced_replay_follows_the_trace_timeline() {
        let topo = figure2_topology(CustomerFilterMode::Correct);
        let provider = topo.node_by_name("Provider").expect("node");
        let mut sim = Simulator::new(&topo);
        let mut driver = WireReplayDriver::new(sample_trace(provider)).with_epoch_ms(600);
        // Window [0, 600): only the t=0 frame.
        assert!(driver.drive(&mut sim, 0));
        assert_eq!(driver.remaining(), 1);
        // Window [600, 1200): the t=1000 frame.
        assert!(!driver.drive(&mut sim, 1));
        assert_eq!(driver.remaining(), 0);
        assert_eq!(driver.stats().snapshot().frames, 2);
    }

    #[test]
    fn synthesized_traces_replay_cleanly_and_meter_throughput() {
        let config = TraceGenConfig {
            prefix_count: 40,
            update_count: 20,
            ..Default::default()
        };
        let topo = figure2_topology(CustomerFilterMode::Correct);
        let provider = topo.node_by_name("Provider").expect("node");
        let trace = synthesize_wire_trace(&config, provider, asn::INTERNET, addr::INTERNET);
        assert_eq!(trace.len(), 60);
        // Deterministic for a seed, and every frame is canonical codec
        // output.
        assert_eq!(
            trace,
            synthesize_wire_trace(&config, provider, asn::INTERNET, addr::INTERNET)
        );

        let mut sim = Simulator::new(&topo);
        let mut driver = WireReplayDriver::new(trace);
        assert!(!driver.drive(&mut sim, 0));
        sim.run_to_quiescence(1000);
        let s = driver.stats().snapshot();
        assert_eq!(s.frames, 60);
        assert_eq!(s.decoded, 60);
        assert_eq!(s.decode_errors, 0);
        assert_eq!(s.reencode_mismatches, 0);
        assert!(
            s.updates_per_second() > 0.0,
            "the folded-in throughput meter reports decode rate"
        );
        assert!(sim.router(provider).rib().prefix_count() > 0);
    }
}
