/// Tests for the distributed-serving wire layer: the length-prefixed
/// checksummed frame protocol (including the full corruption matrix —
/// truncation, bit flips, bad magic — which must always surface as a clean
/// FrameError, never undefined behaviour), the loopback TCP transport and
/// the WorkerServer conversation. The byte codec underneath is tested in
/// test_wire.cpp.
/// Thread-interleaving tests are written to pass under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "serve/service.hpp"
#include "wire/wire.hpp"

namespace ddsim {
namespace {

constexpr const char* kBellQasm = R"(OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
)";

// ----------------------------------------------------------- frame layer

TEST(Frame, HeaderGoldenBytes) {
  const net::Frame frame{net::FrameType::Hello, {0x01, 0x02}};
  const std::vector<std::uint8_t> bytes = net::encodeFrame(frame);
  ASSERT_EQ(bytes.size(), wire::kHeaderSize + 2);
  // magic "DDSF" little-endian, version 6, type Hello, reserved 0,
  // u64 length 2 — all byte positions pinned so the format cannot silently
  // drift.
  const std::vector<std::uint8_t> header = {
      0x44, 0x44, 0x53, 0x46,  // "DDSF"
      0x06, 0x00,              // version
      0x01,                    // FrameType::Hello
      0x00,                    // reserved
      0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // payload length
  };
  EXPECT_EQ(std::vector<std::uint8_t>(bytes.begin(), bytes.begin() + 16),
            header);

  const net::Frame back = net::decodeFrame(bytes);
  EXPECT_EQ(back.type, net::FrameType::Hello);
  EXPECT_EQ(back.payload, frame.payload);
}

TEST(Frame, CorruptionMatrixThrowsNeverUB) {
  const net::Frame frame{net::FrameType::Submit,
                         {0xDE, 0xAD, 0xBE, 0xEF, 0x42}};
  const std::vector<std::uint8_t> good = net::encodeFrame(frame);
  ASSERT_NO_THROW((void)net::decodeFrame(good));

  // Truncation at every single length below the full frame.
  for (std::size_t len = 0; len < good.size(); ++len) {
    EXPECT_THROW((void)net::decodeFrame(good.data(), len), net::FrameError)
        << "truncated to " << len;
  }
  // Trailing garbage (length field inconsistent with the buffer).
  {
    std::vector<std::uint8_t> longer = good;
    longer.push_back(0x00);
    EXPECT_THROW((void)net::decodeFrame(longer), net::FrameError);
  }
  // A bit flip in EVERY byte must be caught: header fields by their
  // validators, payload bytes by the checksum.
  for (std::size_t i = 0; i < good.size(); ++i) {
    std::vector<std::uint8_t> bad = good;
    bad[i] ^= 0x01;
    EXPECT_THROW((void)net::decodeFrame(bad), net::FrameError)
        << "bit flip at byte " << i;
  }
  // Unknown frame types on both sides of the valid range, in envelopes
  // that are otherwise intact.
  for (const std::uint8_t type : {0x00, 0x09, 0xFF}) {
    const std::vector<std::uint8_t> bad =
        wire::seal(net::kFrameMagic, net::kWireVersion, type, frame.payload);
    EXPECT_THROW((void)net::decodeFrame(bad), net::FrameError);
    EXPECT_THROW((void)net::decodeFrameHeader(bad.data()), net::FrameError);
  }
  // Oversized declared length.
  {
    std::vector<std::uint8_t> bad = good;
    const std::uint64_t huge = net::kMaxFramePayload + 1;
    std::memcpy(&bad[8], &huge, sizeof huge);
    EXPECT_THROW((void)net::decodeFrameHeader(bad.data()), net::FrameError);
  }
}

TEST(Frame, PreviousVersionFrameIsRejected) {
  // Well-formed frames — checksum included — claiming the older layouts:
  // version 1 still carried the pipeline fields, version 2 the kernel
  // thread count, version 3 the derived stats figures, version 4 the
  // 20-byte header and a shipped queue-latency maximum, and version 5 the
  // soft budget fraction, degradation cooldown and approximation
  // threshold in the Submit config.
  const std::vector<std::uint8_t> payload = {0xDE, 0xAD, 0xBE, 0xEF};
  for (const std::uint16_t version : {1, 2, 3, 4, 5}) {
    const std::vector<std::uint8_t> old = wire::seal(
        net::kFrameMagic, version,
        static_cast<std::uint8_t>(net::FrameType::Submit), payload);
    const std::string expected =
        "unsupported version " + std::to_string(version);
    try {
      (void)net::decodeFrame(old);
      FAIL() << "version-" << version << " frame was accepted";
    } catch (const net::FrameError& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
  }
}

TEST(Frame, PayloadRoundTrips) {
  {
    net::HelloPayload p;
    const auto back = net::decodeHello(net::encodeHello(p));
    EXPECT_EQ(back.wireVersion, net::kWireVersion);
    EXPECT_EQ(back.software, "ddsim_serve");
  }
  {
    net::SubmitPayload p;
    p.jobId = 77;
    p.label = "bell";
    p.qasm = kBellQasm;
    p.config.schedule = sim::Schedule::KOperations;
    p.config.k = 4;
    p.config.checkpointIntervalOps = 128;
    p.config.nodeBudget = 1000;
    p.config.adaptiveRatio = 0.75;
    p.seed = 12345;
    p.priority = serve::JobPriority::High;
    p.deadlineSeconds = 2.5;
    p.detectRepetitions = true;
    p.checkpoint = {9, 8, 7};
    const auto back = net::decodeSubmit(net::encodeSubmit(p));
    EXPECT_EQ(back.jobId, 77U);
    EXPECT_EQ(back.label, "bell");
    EXPECT_EQ(back.qasm, kBellQasm);
    EXPECT_EQ(back.config.schedule, sim::Schedule::KOperations);
    EXPECT_EQ(back.config.k, 4U);
    EXPECT_EQ(back.config.checkpointIntervalOps, 128U);
    EXPECT_EQ(back.config.nodeBudget, 1000U);
    EXPECT_EQ(back.config.adaptiveRatio, 0.75);
    EXPECT_EQ(back.seed, 12345U);
    EXPECT_EQ(back.priority, serve::JobPriority::High);
    EXPECT_EQ(back.deadlineSeconds, 2.5);
    EXPECT_TRUE(back.detectRepetitions);
    EXPECT_EQ(back.checkpoint, (std::vector<std::uint8_t>{9, 8, 7}));
    // The config hash must survive the wire bit-exactly — routing and
    // result-cache identity depend on it.
    EXPECT_EQ(back.config.contentHash(), p.config.contentHash());
  }
  {
    net::ResultPayload p;
    p.jobId = 99;
    p.status = net::wireStatus(serve::JobStatus::Completed);
    p.classicalBits = {true, false, true};
    p.stats.appliedGates = 42;
    p.stats.peakStateNodes = 17;
    p.hasPartial = true;
    p.partial.opsCompleted = 7;
    p.partial.peakLiveNodes = 5;
    p.partial.elapsedSeconds = 0.25;
    p.error = "nope";
    p.queueSeconds = 0.5;
    p.runSeconds = 1.5;
    p.fromCache = true;
    p.coalesced = true;
    p.attempts = 3;
    p.resumed = true;
    const auto back = net::decodeResult(net::encodeResult(p));
    EXPECT_EQ(back.jobId, 99U);
    EXPECT_EQ(back.status, net::wireStatus(serve::JobStatus::Completed));
    EXPECT_EQ(back.classicalBits, (std::vector<bool>{true, false, true}));
    EXPECT_EQ(back.stats.appliedGates, 42U);
    EXPECT_EQ(back.stats.peakStateNodes, 17U);
    ASSERT_TRUE(back.hasPartial);
    EXPECT_EQ(back.partial.opsCompleted, 7U);
    EXPECT_EQ(back.partial.peakLiveNodes, 5U);
    EXPECT_EQ(back.partial.elapsedSeconds, 0.25);
    EXPECT_EQ(back.error, "nope");
    EXPECT_EQ(back.queueSeconds, 0.5);
    EXPECT_EQ(back.runSeconds, 1.5);
    EXPECT_TRUE(back.fromCache);
    EXPECT_TRUE(back.coalesced);
    EXPECT_EQ(back.attempts, 3U);
    EXPECT_TRUE(back.resumed);
  }
  {
    const auto back = net::decodeCheckpoint(
        net::encodeCheckpoint({123, {0xAA, 0xBB}}));
    EXPECT_EQ(back.jobId, 123U);
    EXPECT_EQ(back.blob, (std::vector<std::uint8_t>{0xAA, 0xBB}));
  }
  {
    EXPECT_EQ(net::decodeGoodbye(net::encodeGoodbye({"bye"})).reason, "bye");
    EXPECT_EQ(net::decodeError(net::encodeError({"oops"})).message, "oops");
  }
}

TEST(Frame, TruncatedPayloadsThrowCleanly) {
  net::SubmitPayload p;
  p.qasm = kBellQasm;
  const std::vector<std::uint8_t> full = net::encodeSubmit(p);
  for (std::size_t len = 0; len < full.size(); len += 7) {
    const std::vector<std::uint8_t> cut(full.begin(),
                                        full.begin() +
                                            static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW((void)net::decodeSubmit(cut), net::FrameError)
        << "submit truncated to " << len;
  }
}

TEST(Frame, ServiceStatsSurviveTheWireBitExactly) {
  // Produce a real stats snapshot (histograms included) by running jobs.
  serve::ServiceConfig config;
  config.workers = 1;
  serve::SimulationService service(config);
  for (int i = 0; i < 3; ++i) {
    ir::Circuit c(2, 2);
    c.h(0);
    c.cx(0, 1);
    c.measureAll();
    serve::JobSpec spec;
    spec.circuit = std::make_shared<const ir::Circuit>(std::move(c));
    spec.seed = static_cast<std::uint64_t>(i);  // distinct cache identities
    auto handle = service.trySubmit(std::move(spec));
    ASSERT_TRUE(handle.has_value());
    handle->wait();
  }
  service.shutdown(/*drain=*/true);
  const serve::ServiceStats stats = service.stats();
  const serve::ServiceStats back =
      net::decodeServiceStats(net::encodeServiceStats(stats));
  // toJson covers every exported field including histogram buckets, so a
  // string compare pins the whole structure (doubles travel as IEEE-754
  // bit patterns — bit-exact, not approximate).
  EXPECT_EQ(back.toJson(), stats.toJson());
}

// ------------------------------------------------------------- transport

TEST(Socket, FrameRoundTripOverLoopback) {
  net::TcpListener listener = net::TcpListener::listen(0);
  const std::uint16_t port = listener.port();
  ASSERT_NE(port, 0);

  std::thread server([&] {
    auto conn = listener.accept(5.0);
    ASSERT_TRUE(conn.has_value());
    auto frame = net::readFrame(*conn);
    ASSERT_TRUE(frame.has_value());
    net::writeFrame(*conn, *frame);  // echo
    // Peer closes; expect a clean EOF, not an error.
    EXPECT_FALSE(net::readFrame(*conn).has_value());
  });

  net::TcpConnection client = net::TcpConnection::connect("127.0.0.1", port);
  client.setDeadlines(5.0, 5.0);
  const net::Frame sent{net::FrameType::Checkpoint, {1, 2, 3, 4}};
  net::writeFrame(client, sent);
  const auto echoed = net::readFrame(client);
  ASSERT_TRUE(echoed.has_value());
  EXPECT_EQ(echoed->type, sent.type);
  EXPECT_EQ(echoed->payload, sent.payload);
  client.close();
  server.join();
}

TEST(Socket, MidFrameEofIsATransportError) {
  net::TcpListener listener = net::TcpListener::listen(0);
  std::thread server([&] {
    auto conn = listener.accept(5.0);
    ASSERT_TRUE(conn.has_value());
    // Send only half a frame, then slam the connection shut.
    const std::vector<std::uint8_t> full =
        net::encodeFrame({net::FrameType::Goodbye, {9, 9, 9, 9, 9, 9}});
    conn->sendAll(full.data(), full.size() - 3);
    conn->close();
  });
  net::TcpConnection client =
      net::TcpConnection::connect("127.0.0.1", listener.port());
  client.setDeadlines(5.0, 5.0);
  EXPECT_THROW((void)net::readFrame(client), net::SocketError);
  server.join();
}

TEST(Socket, GarbageBytesAreAFrameError) {
  net::TcpListener listener = net::TcpListener::listen(0);
  std::thread server([&] {
    auto conn = listener.accept(5.0);
    ASSERT_TRUE(conn.has_value());
    std::vector<std::uint8_t> junk(64, 0x5A);  // wrong magic
    conn->sendAll(junk.data(), junk.size());
    conn->close();
  });
  net::TcpConnection client =
      net::TcpConnection::connect("127.0.0.1", listener.port());
  client.setDeadlines(5.0, 5.0);
  EXPECT_THROW((void)net::readFrame(client), net::FrameError);
  server.join();
}

TEST(Socket, ConnectToClosedPortFails) {
  // Bind-then-close yields a port that is very likely unbound.
  std::uint16_t port = 0;
  {
    net::TcpListener probe = net::TcpListener::listen(0);
    port = probe.port();
  }
  EXPECT_THROW(net::TcpConnection::connect("127.0.0.1", port, 1.0),
               net::SocketError);
}

// ----------------------------------------------------------- WorkerServer

net::SubmitPayload bellSubmit(std::uint64_t jobId, std::uint64_t seed) {
  net::SubmitPayload p;
  p.jobId = jobId;
  p.label = "bell";
  p.qasm = kBellQasm;
  p.seed = seed;
  return p;
}

/// Read frames until the first Result (skipping Hello/Checkpoint).
net::ResultPayload awaitResult(net::TcpConnection& conn) {
  for (;;) {
    auto frame = net::readFrame(conn);
    if (!frame) {
      throw std::runtime_error("connection closed before a Result arrived");
    }
    if (frame->type == net::FrameType::Result) {
      return net::decodeResult(frame->payload);
    }
  }
}

TEST(WorkerServer, ServesFramedSubmissions) {
  serve::ServiceConfig config;
  config.workers = 1;
  net::WorkerServer server(std::move(config), 0);

  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  conn.setDeadlines(30.0, 30.0);
  // Handshake.
  auto hello = net::readFrame(conn);
  ASSERT_TRUE(hello.has_value());
  ASSERT_EQ(hello->type, net::FrameType::Hello);
  EXPECT_EQ(net::decodeHello(hello->payload).wireVersion, net::kWireVersion);

  net::writeFrame(conn, {net::FrameType::Submit,
                         net::encodeSubmit(bellSubmit(1, 7))});
  const net::ResultPayload r = awaitResult(conn);
  EXPECT_EQ(r.jobId, 1U);
  EXPECT_EQ(r.status, net::wireStatus(serve::JobStatus::Completed));
  ASSERT_EQ(r.classicalBits.size(), 2U);
  EXPECT_EQ(r.classicalBits[0], r.classicalBits[1]);  // Bell correlation

  // Same cache identity again: answered from the result cache.
  net::writeFrame(conn, {net::FrameType::Submit,
                         net::encodeSubmit(bellSubmit(2, 7))});
  const net::ResultPayload cached = awaitResult(conn);
  EXPECT_EQ(cached.jobId, 2U);
  EXPECT_TRUE(cached.fromCache);
  EXPECT_EQ(cached.classicalBits, r.classicalBits);

  // Stats over the wire.
  net::writeFrame(conn, {net::FrameType::StatsQuery, {}});
  for (;;) {
    auto frame = net::readFrame(conn);
    ASSERT_TRUE(frame.has_value());
    if (frame->type == net::FrameType::StatsReport) {
      const serve::ServiceStats stats =
          net::decodeServiceStats(frame->payload);
      EXPECT_EQ(stats.simulationsRun, 1U);
      EXPECT_EQ(stats.cached, 1U);
      break;
    }
  }

  // Clean goodbye: the worker answers with its own and closes.
  net::writeFrame(conn, {net::FrameType::Goodbye, net::encodeGoodbye({"done"})});
  bool sawGoodbye = false;
  for (;;) {
    auto frame = net::readFrame(conn);
    if (!frame) {
      break;
    }
    sawGoodbye |= frame->type == net::FrameType::Goodbye;
  }
  EXPECT_TRUE(sawGoodbye);
  server.requestStop();
}

TEST(WorkerServer, UnparseableQasmFailsTerminally) {
  serve::ServiceConfig config;
  config.workers = 1;
  net::WorkerServer server(std::move(config), 0);
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  conn.setDeadlines(30.0, 30.0);
  net::SubmitPayload p;
  p.jobId = 5;
  p.qasm = "this is not qasm";
  net::writeFrame(conn, {net::FrameType::Submit, net::encodeSubmit(p)});
  const net::ResultPayload r = awaitResult(conn);
  EXPECT_EQ(r.jobId, 5U);
  // Failed (terminal), NOT Rejected — the router must not re-route a job
  // that fails deterministically.
  EXPECT_EQ(r.status, net::wireStatus(serve::JobStatus::Failed));
  EXPECT_FALSE(r.error.empty());
  server.requestStop();
}

TEST(WorkerServer, CorruptFrameGetsErrorReply) {
  serve::ServiceConfig config;
  config.workers = 1;
  net::WorkerServer server(std::move(config), 0);
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  conn.setDeadlines(30.0, 30.0);
  auto hello = net::readFrame(conn);
  ASSERT_TRUE(hello.has_value());

  std::vector<std::uint8_t> bad =
      net::encodeFrame({net::FrameType::Submit, {1, 2, 3}});
  bad.back() ^= 0xFF;  // checksum mismatch
  conn.sendAll(bad.data(), bad.size());
  bool sawError = false;
  for (;;) {
    std::optional<net::Frame> frame;
    try {
      frame = net::readFrame(conn);
    } catch (const net::SocketError&) {
      break;  // worker hung up after reporting
    }
    if (!frame) {
      break;
    }
    sawError |= frame->type == net::FrameType::Error;
  }
  EXPECT_TRUE(sawError);
  server.requestStop();
}

TEST(WorkerServer, DrainStreamsPendingResultsBeforeGoodbye) {
  serve::ServiceConfig config;
  config.workers = 1;
  net::WorkerServer server(std::move(config), 0);
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  conn.setDeadlines(30.0, 30.0);
  for (std::uint64_t id = 1; id <= 3; ++id) {
    net::writeFrame(conn, {net::FrameType::Submit,
                           net::encodeSubmit(bellSubmit(id, id))});
  }
  // Wait until all three submissions are admitted, then drain: every
  // in-flight job must still stream its Result before the Goodbye.
  while (server.stats().submitted < 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread stopper([&] { server.requestStop(); });
  std::size_t results = 0;
  bool sawGoodbye = false;
  for (;;) {
    std::optional<net::Frame> frame;
    try {
      frame = net::readFrame(conn);
    } catch (const std::exception&) {
      break;
    }
    if (!frame) {
      break;
    }
    if (frame->type == net::FrameType::Result) {
      const auto r = net::decodeResult(frame->payload);
      if (r.status != net::kWireStatusRejected) {
        ++results;
      }
    }
    sawGoodbye |= frame->type == net::FrameType::Goodbye;
  }
  stopper.join();
  // Every admitted job resolved before the goodbye; a drain loses nothing.
  EXPECT_EQ(results, 3U);
  EXPECT_TRUE(sawGoodbye);
}


/// A numeric field of /proc/self/status ("Threads", "VmSize" in KiB).
std::size_t procStatus(const std::string& field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(field + ":", 0) == 0) {
      return std::stoull(line.substr(field.size() + 1));
    }
  }
  return 0;
}

TEST(WorkerServer, LongConnectionStateStaysBoundedByJobsInFlight) {
  // A router keeps one connection open for its whole run. Per-job state on
  // that connection (the waiter thread and the job handle) must be released
  // as jobs finish, not when the connection closes: an un-joined thread
  // pins its stack, so address space would grow by a stack per job.
  serve::ServiceConfig config;
  config.workers = 1;
  net::WorkerServer server(std::move(config), 0);
  net::TcpConnection conn =
      net::TcpConnection::connect("127.0.0.1", server.port());
  conn.setDeadlines(30.0, 30.0);

  constexpr std::uint64_t kWarmup = 20;
  constexpr std::uint64_t kJobs = 240;
  std::size_t threadsAtWarmup = 0;
  std::size_t vmKibAtWarmup = 0;
  std::size_t maxThreads = 0;
  for (std::uint64_t id = 1; id <= kJobs; ++id) {
    // Distinct seeds: every job is a fresh simulation, not a cache answer.
    net::writeFrame(conn, {net::FrameType::Submit,
                           net::encodeSubmit(bellSubmit(id, id))});
    const net::ResultPayload r = awaitResult(conn);
    ASSERT_EQ(r.jobId, id);
    ASSERT_EQ(r.status, net::wireStatus(serve::JobStatus::Completed));
    if (id == kWarmup) {
      threadsAtWarmup = procStatus("Threads");
      vmKibAtWarmup = procStatus("VmSize");
    }
    maxThreads = std::max(maxThreads, procStatus("Threads"));
  }
  const std::size_t vmKib = procStatus("VmSize");
  ASSERT_GT(threadsAtWarmup, 0U);
  // At most the waiter of the job just answered is still winding down.
  EXPECT_LE(maxThreads, threadsAtWarmup + 2);
  // Each leaked waiter would pin a whole thread stack (8 MiB by default);
  // allow a quarter of that per job for allocator growth (sanitizer
  // quarantines included) and still catch the leak.
  const std::size_t growthKib =
      vmKib > vmKibAtWarmup ? vmKib - vmKibAtWarmup : 0;
  EXPECT_LT(growthKib, (kJobs - kWarmup) * 2048);

  net::writeFrame(conn, {net::FrameType::Goodbye, net::encodeGoodbye({"done"})});
  server.requestStop();
}

}  // namespace
}  // namespace ddsim
