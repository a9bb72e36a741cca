#include "net/frame.hpp"

#include <type_traits>

#include "sim/checkpoint.hpp"  // sim::statsFields
#include "wire/wire.hpp"

namespace ddsim::net {

namespace {

using wire::WireReader;
using wire::WireWriter;

/// The frame rules on top of the envelope: a known type and a payload
/// within the ceiling.
FrameType checkFrame(std::uint8_t kind, std::uint64_t length) {
  if (kind < static_cast<std::uint8_t>(FrameType::Hello) ||
      kind > static_cast<std::uint8_t>(FrameType::Error)) {
    throw wire::WireError("unknown type " + std::to_string(kind));
  }
  if (length > kMaxFramePayload) {
    throw wire::WireError("payload length " + std::to_string(length) +
                          " exceeds the frame ceiling (corrupted length "
                          "field)");
  }
  return static_cast<FrameType>(kind);
}

/// A one-byte enum; decoding rejects values above \p last.
template <class IO, class E>
void enumField(IO& io, E& e, std::remove_const_t<E> last, const char* name) {
  if constexpr (IO::kWrites) {
    io.u8(static_cast<std::uint8_t>(e));
  } else {
    const std::uint8_t v = io.u8();
    if (v > static_cast<std::uint8_t>(last)) {
      throw wire::WireError(std::string("unknown ") + name + " " +
                            std::to_string(v));
    }
    e = static_cast<E>(v);
  }
}

/// A u32 element count, then each element through \p each.
template <class IO, class Vec, class F>
void listField(IO& io, Vec& v, F each) {
  if constexpr (IO::kWrites) {
    io.u32(static_cast<std::uint32_t>(v.size()));
  } else {
    const std::uint32_t n = io.u32();
    if (n > io.remaining()) {  // every element takes at least one byte
      throw wire::WireError("list length exceeds payload");
    }
    v.resize(n);
  }
  for (auto& x : v) {
    each(x);
  }
}

/// The flat stats, u32-length-prefixed so a reader can skip them whole.
template <class IO, class S>
void statsBlock(IO& io, S& s) {
  if constexpr (IO::kWrites) {
    WireWriter flat;
    sim::statsFields(flat, s);
    io.bytes(flat.out);
  } else {
    WireReader flat(io.raw(io.u32()));
    sim::statsFields(flat, s);
    flat.expectEnd();
  }
}

/// A histogram's primary fields; count and quantiles are derived.
template <class IO, class H>
void histogramFields(IO& io, H& h) {
  io.f64(h.sum);
  io.f64(h.max);
  listField(io, h.buckets, [&](auto& b) {
    io.f64(b.first);
    io.u64(b.second);
  });
}

template <class IO, class C>
void configFields(IO& io, C& c) {
  enumField(io, c.schedule, sim::Schedule::Adaptive, "schedule");
  io.u64(c.k);
  io.u64(c.maxSize);
  io.f64(c.adaptiveRatio);
  io.flag(c.reuseRepeatedBlocks);
  io.flag(c.collectTrace);
  io.f64(c.timeLimitSeconds);
  io.f64(c.approximateFidelity);
  io.u64(c.approximateThreshold);
  io.u64(c.nodeBudget);
  io.u64(c.byteBudget);
  io.f64(c.softBudgetFraction);
  io.u64(c.degradeCooldownOps);
  io.u64(c.checkpointIntervalOps);
}

// One field list per payload: fields(WireWriter&, const P&) encodes,
// fields(WireReader&, P&) decodes.
template <class IO, class T>
using Ref = std::conditional_t<IO::kWrites, const T, T>&;

template <class IO>
void fields(IO& io, Ref<IO, HelloPayload> p) {
  io.u16(p.wireVersion);
  io.string(p.software);
}

template <class IO>
void fields(IO& io, Ref<IO, SubmitPayload> p) {
  io.u64(p.jobId);
  io.string(p.label);
  io.string(p.qasm);
  configFields(io, p.config);
  io.u64(p.seed);
  enumField(io, p.priority, serve::JobPriority::Low, "priority");
  io.f64(p.deadlineSeconds);
  io.flag(p.detectRepetitions);
  io.bytes(p.checkpoint);
}

template <class IO>
void fields(IO& io, Ref<IO, ResultPayload> p) {
  io.u64(p.jobId);
  io.u8(p.status);
  if constexpr (!IO::kWrites) {
    if (p.status != kWireStatusRejected &&
        p.status > static_cast<std::uint8_t>(serve::JobStatus::Failed)) {
      throw wire::WireError("unknown status " + std::to_string(p.status));
    }
  }
  io.bits(p.classicalBits);
  statsBlock(io, p.stats);
  io.flag(p.hasPartial);
  if (p.hasPartial) {
    io.u64(p.partial.opsCompleted);
    io.u64(p.partial.peakLiveNodes);
    io.f64(p.partial.elapsedSeconds);
    statsBlock(io, p.partial.stats);
  }
  io.string(p.error);
  io.f64(p.queueSeconds);
  io.f64(p.runSeconds);
  io.flag(p.fromCache);
  io.flag(p.coalesced);
  io.u64(p.attempts);
  io.flag(p.resumed);
}

template <class IO>
void fields(IO& io, Ref<IO, CheckpointPayload> p) {
  io.u64(p.jobId);
  io.bytes(p.blob);
}

template <class IO>
void fields(IO& io, Ref<IO, GoodbyePayload> p) {
  io.string(p.reason);
}

template <class IO>
void fields(IO& io, Ref<IO, ErrorPayload> p) {
  io.string(p.message);
}

/// Every primary field of serve::visitFields in table order; the derived
/// ones are recomputed on decode.
template <class IO>
void fields(IO& io, Ref<IO, serve::ServiceStats> s) {
  serve::visitFields(
      [&](const char*, const char*, serve::MergeRule rule, auto& f) {
        using T = std::remove_cvref_t<decltype(f)>;
        if (rule == serve::MergeRule::Derived) {
          return;
        }
        if constexpr (std::is_same_v<T, double>) {
          io.f64(f);
        } else if constexpr (std::is_same_v<T, obs::HistogramSnapshot>) {
          histogramFields(io, f);
        } else if constexpr (std::is_same_v<T, std::vector<std::uint64_t>>) {
          listField(io, f, [&](auto& jobs) { io.u64(jobs); });
        } else {
          io.u64(f);
        }
      },
      s);
  if constexpr (!IO::kWrites) {
    s.derive();
  }
}

/// Decode a whole payload through its field list. Bounds-check failures
/// surface as protocol errors, so callers handle one exception type per
/// layer.
template <class P>
P decodePayload(const char* what, const std::vector<std::uint8_t>& b) {
  try {
    WireReader r(b);
    P p;
    fields(r, p);
    r.expectEnd();
    return p;
  } catch (const wire::WireError& e) {
    throw FrameError(std::string(what) + ": " + e.what());
  }
}

template <class P>
std::vector<std::uint8_t> encodePayload(const P& p) {
  WireWriter w;
  fields(w, p);
  return std::move(w.out);
}

}  // namespace

std::string frameTypeName(FrameType t) {
  switch (t) {
    case FrameType::Hello: return "hello";
    case FrameType::Submit: return "submit";
    case FrameType::Result: return "result";
    case FrameType::Checkpoint: return "checkpoint";
    case FrameType::StatsQuery: return "stats-query";
    case FrameType::StatsReport: return "stats-report";
    case FrameType::Goodbye: return "goodbye";
    case FrameType::Error: return "error";
  }
  return "?";
}

std::uint8_t wireStatus(serve::JobStatus s) noexcept {
  return static_cast<std::uint8_t>(s);
}

std::string wireStatusName(std::uint8_t s) {
  if (s == kWireStatusRejected) {
    return "rejected";
  }
  if (s <= static_cast<std::uint8_t>(serve::JobStatus::Failed)) {
    return serve::statusName(static_cast<serve::JobStatus>(s));
  }
  return "?";
}

std::vector<std::uint8_t> encodeFrame(const Frame& frame) {
  if (frame.payload.size() > kMaxFramePayload) {
    throw FrameError("encodeFrame: payload of " +
                     std::to_string(frame.payload.size()) +
                     " bytes exceeds the frame ceiling");
  }
  return wire::seal(kFrameMagic, kWireVersion,
                    static_cast<std::uint8_t>(frame.type), frame.payload);
}

std::size_t decodeFrameHeader(const std::uint8_t* header) {
  try {
    const wire::Header h = wire::readHeader({header, wire::kHeaderSize},
                                            kFrameMagic, kWireVersion);
    checkFrame(h.kind, h.length);
    return h.length;
  } catch (const wire::WireError& e) {
    throw FrameError(std::string("frame: ") + e.what());
  }
}

Frame decodeFrame(const std::uint8_t* data, std::size_t size) {
  try {
    const wire::Opened opened =
        wire::open({data, size}, kFrameMagic, kWireVersion);
    Frame f;
    f.type = checkFrame(opened.kind, opened.payload.size());
    f.payload.assign(opened.payload.begin(), opened.payload.end());
    return f;
  } catch (const wire::WireError& e) {
    throw FrameError(std::string("frame: ") + e.what());
  }
}

Frame decodeFrame(const std::vector<std::uint8_t>& bytes) {
  return decodeFrame(bytes.data(), bytes.size());
}

// --------------------------------------------------------- payload codecs

std::vector<std::uint8_t> encodeHello(const HelloPayload& p) {
  return encodePayload(p);
}
HelloPayload decodeHello(const std::vector<std::uint8_t>& b) {
  return decodePayload<HelloPayload>("decodeHello", b);
}

std::vector<std::uint8_t> encodeSubmit(const SubmitPayload& p) {
  return encodePayload(p);
}
SubmitPayload decodeSubmit(const std::vector<std::uint8_t>& b) {
  return decodePayload<SubmitPayload>("decodeSubmit", b);
}

std::vector<std::uint8_t> encodeResult(const ResultPayload& p) {
  return encodePayload(p);
}
ResultPayload decodeResult(const std::vector<std::uint8_t>& b) {
  return decodePayload<ResultPayload>("decodeResult", b);
}

std::vector<std::uint8_t> encodeCheckpoint(const CheckpointPayload& p) {
  return encodePayload(p);
}
CheckpointPayload decodeCheckpoint(const std::vector<std::uint8_t>& b) {
  return decodePayload<CheckpointPayload>("decodeCheckpoint", b);
}

std::vector<std::uint8_t> encodeGoodbye(const GoodbyePayload& p) {
  return encodePayload(p);
}
GoodbyePayload decodeGoodbye(const std::vector<std::uint8_t>& b) {
  return decodePayload<GoodbyePayload>("decodeGoodbye", b);
}

std::vector<std::uint8_t> encodeError(const ErrorPayload& p) {
  return encodePayload(p);
}
ErrorPayload decodeError(const std::vector<std::uint8_t>& b) {
  return decodePayload<ErrorPayload>("decodeError", b);
}

std::vector<std::uint8_t> encodeServiceStats(const serve::ServiceStats& s) {
  return encodePayload(s);
}
serve::ServiceStats decodeServiceStats(const std::vector<std::uint8_t>& b) {
  return decodePayload<serve::ServiceStats>("decodeServiceStats", b);
}

}  // namespace ddsim::net
