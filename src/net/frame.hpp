/// \file frame.hpp
/// \brief Length-prefixed, checksummed binary frame protocol for
///        distributed ddsim serving.
///
/// Every message between the router and a `ddsim_serve --listen` worker is
/// one *frame*: a wire envelope (wire/wire.hpp) with magic kFrameMagic,
/// version kWireVersion and the FrameType as its kind. On top of the
/// envelope's checks a frame has two rules of its own: the type is a known
/// FrameType and the payload is at most kMaxFramePayload bytes.
/// Decoding is defensive end to end: a bad magic, unsupported version,
/// unknown type, oversized length or checksum mismatch throws FrameError
/// before any payload structure is interpreted, and payload decoding is
/// bounds-checked (wire::WireReader; its WireError surfaces as FrameError),
/// so a corrupted or malicious frame can cost a connection, never memory
/// safety.
///
/// Frame payloads (codecs below):
///  * Submit      router -> worker: one job — QASM source, StrategyConfig,
///                seed, priority, deadline, plus an optional checkpoint
///                blob the worker resumes from (re-routed jobs).
///  * Result      worker -> router: terminal outcome — status, packed
///                classical bits, flat stats, optional partial progress.
///  * Checkpoint  worker -> router: latest checkpoint blob of a running
///                job (best-effort stream; enables resume-on-reroute).
///  * StatsQuery / StatsReport: per-shard serve::ServiceStats, binary,
///                its primary fields only (serve::visitFields order).
///  * Hello       worker -> router on accept (protocol handshake).
///  * Goodbye     either direction: clean shutdown of the conversation.
///  * Error       worker -> router: the previous frame could not be
///                honoured (decode error, admission failure).

#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/service.hpp"
#include "sim/stats.hpp"

namespace ddsim::net {

/// Structured frame-layer failure: bad magic, unsupported version, unknown
/// type, oversized or inconsistent length, checksum mismatch, or a payload
/// that does not decode. Connections surface it and close cleanly.
class FrameError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kFrameMagic = 0x46534444U;  // "DDSF"
inline constexpr std::uint16_t kWireVersion = 6;
/// Payload ceiling: a submission is QASM text + config (KiB), a result is
/// packed bits + stats (KiB), a checkpoint blob is two flat DDs (MiB for
/// big states). Anything above this is a corrupted length field.
inline constexpr std::uint32_t kMaxFramePayload = 256U * 1024U * 1024U;

enum class FrameType : std::uint8_t {
  Hello = 1,
  Submit = 2,
  Result = 3,
  Checkpoint = 4,
  StatsQuery = 5,
  StatsReport = 6,
  Goodbye = 7,
  Error = 8,
};

[[nodiscard]] std::string frameTypeName(FrameType t);

struct Frame {
  FrameType type = FrameType::Error;
  std::vector<std::uint8_t> payload;
};

/// Serialize a frame (header + payload, checksum computed).
[[nodiscard]] std::vector<std::uint8_t> encodeFrame(const Frame& frame);

/// Check a frame's envelope header (\p header holds wire::kHeaderSize
/// bytes) and the frame rules, and return the payload length, so a reader
/// knows how many bytes to receive before decodeFrame verifies them.
/// Throws FrameError on bad magic/version/type, a nonzero reserved byte or
/// an oversized length.
[[nodiscard]] std::size_t decodeFrameHeader(const std::uint8_t* header);

/// Decode one complete frame from a contiguous buffer (header + payload,
/// exactly; wire::open). Throws FrameError on any inconsistency.
[[nodiscard]] Frame decodeFrame(const std::uint8_t* data, std::size_t size);
[[nodiscard]] Frame decodeFrame(const std::vector<std::uint8_t>& bytes);

// --------------------------------------------------------- payload codecs

/// Handshake sent by the worker immediately after accepting a connection.
struct HelloPayload {
  std::uint16_t wireVersion = kWireVersion;
  std::string software = "ddsim_serve";
};

/// Wire status of a finished job: serve::JobStatus plus Rejected, which
/// only exists on the wire (the worker's admission queue was full or
/// draining — the router treats it as transiently re-routable).
inline constexpr std::uint8_t kWireStatusRejected = 255;

[[nodiscard]] std::uint8_t wireStatus(serve::JobStatus s) noexcept;
[[nodiscard]] std::string wireStatusName(std::uint8_t s);

struct SubmitPayload {
  /// Router-assigned id, echoed on every Result/Checkpoint frame.
  std::uint64_t jobId = 0;
  std::string label;
  /// Full OpenQASM source text — submissions are self-contained; workers
  /// never need the router's filesystem.
  std::string qasm;
  sim::StrategyConfig config;
  std::uint64_t seed = 0;
  serve::JobPriority priority = serve::JobPriority::Normal;
  double deadlineSeconds = 0.0;
  bool detectRepetitions = false;
  /// Non-empty: a serialized sim::Checkpoint the worker should resume
  /// from (a re-routed job continuing where the dead shard left off).
  std::vector<std::uint8_t> checkpoint;
};

struct ResultPayload {
  std::uint64_t jobId = 0;
  /// wireStatus(JobStatus) or kWireStatusRejected.
  std::uint8_t status = kWireStatusRejected;
  std::vector<bool> classicalBits;
  sim::SimulationStats stats;
  bool hasPartial = false;
  sim::PartialResult partial;
  std::string error;
  double queueSeconds = 0.0;
  double runSeconds = 0.0;
  bool fromCache = false;
  bool coalesced = false;
  std::uint64_t attempts = 1;
  bool resumed = false;
};

struct CheckpointPayload {
  std::uint64_t jobId = 0;
  std::vector<std::uint8_t> blob;
};

struct GoodbyePayload {
  std::string reason;
};

struct ErrorPayload {
  std::string message;
};

[[nodiscard]] std::vector<std::uint8_t> encodeHello(const HelloPayload& p);
[[nodiscard]] HelloPayload decodeHello(const std::vector<std::uint8_t>& b);

[[nodiscard]] std::vector<std::uint8_t> encodeSubmit(const SubmitPayload& p);
[[nodiscard]] SubmitPayload decodeSubmit(const std::vector<std::uint8_t>& b);

[[nodiscard]] std::vector<std::uint8_t> encodeResult(const ResultPayload& p);
[[nodiscard]] ResultPayload decodeResult(const std::vector<std::uint8_t>& b);

[[nodiscard]] std::vector<std::uint8_t> encodeCheckpoint(
    const CheckpointPayload& p);
[[nodiscard]] CheckpointPayload decodeCheckpoint(
    const std::vector<std::uint8_t>& b);

[[nodiscard]] std::vector<std::uint8_t> encodeGoodbye(const GoodbyePayload& p);
[[nodiscard]] GoodbyePayload decodeGoodbye(const std::vector<std::uint8_t>& b);

[[nodiscard]] std::vector<std::uint8_t> encodeError(const ErrorPayload& p);
[[nodiscard]] ErrorPayload decodeError(const std::vector<std::uint8_t>& b);

/// Binary codec for a per-shard serve::ServiceStats snapshot — every
/// primary field of serve::visitFields, the bucketed histograms included —
/// so the router can merge shards without parsing JSON. The derived
/// figures do not travel: decoding recomputes them (ServiceStats::derive).
[[nodiscard]] std::vector<std::uint8_t> encodeServiceStats(
    const serve::ServiceStats& s);
[[nodiscard]] serve::ServiceStats decodeServiceStats(
    const std::vector<std::uint8_t>& b);

}  // namespace ddsim::net
