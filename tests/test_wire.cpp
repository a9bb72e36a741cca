/// Tests for the shared byte codec and envelope (wire/wire.hpp) and the
/// three binary formats sealed in it — the checkpoint blob, the
/// spill-journal record and the net frame:
///  * the little-endian primitives and their bounds-checked reader;
///  * golden bytes and digests that pin each format, so a refactor of the
///    codec cannot change a byte that existing checkpoints, `--cache-dir`
///    journals or peers depend on;
///  * one corruption matrix on the envelope, every truncation and every
///    single-bit flip, with one row per format on top: the same damage is
///    rejected in the format's own way, and so is a payload byte past the
///    last field (resealed, so length and checksum match).

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "dd/migration.hpp"
#include "net/frame.hpp"
#include "serve/persistence.hpp"
#include "sim/checkpoint.hpp"
#include "sim/simulator.hpp"
#include "wire/wire.hpp"

namespace ddsim {
namespace {

using Bytes = std::vector<std::uint8_t>;

// ------------------------------------------------------- wire primitives

TEST(Wire, LittleEndianGoldenBytes) {
  std::vector<std::uint8_t> out;
  wire::putU16(out, 0x1234);
  wire::putU32(out, 0xAABBCCDDU);
  wire::putU64(out, 0x1122334455667788ULL);
  const std::vector<std::uint8_t> expected = {
      0x34, 0x12,                                      // u16 LSB first
      0xDD, 0xCC, 0xBB, 0xAA,                          // u32
      0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,  // u64
  };
  EXPECT_EQ(out, expected);
}

TEST(Wire, RoundTripAllPrimitives) {
  std::vector<std::uint8_t> out;
  wire::putU8(out, 200);
  wire::putU16(out, 65535);
  wire::putU32(out, 4000000000U);
  wire::putU64(out, std::numeric_limits<std::uint64_t>::max());
  wire::putI32(out, -12345);
  wire::putF64(out, -0.12345678901234567);
  wire::putString(out, "hello \xE2\x9C\x93 world");
  wire::putBytes(out, {1, 2, 3});
  wire::putBits(out, {true, false, true, true, false, true, false, true,
                      true});  // 9 bits: crosses a byte boundary

  wire::WireReader r(out.data(), out.size());
  EXPECT_EQ(r.u8(), 200);
  EXPECT_EQ(r.u16(), 65535);
  EXPECT_EQ(r.u32(), 4000000000U);
  EXPECT_EQ(r.u64(), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(r.i32(), -12345);
  EXPECT_EQ(r.f64(), -0.12345678901234567);
  EXPECT_EQ(r.string(), "hello \xE2\x9C\x93 world");
  EXPECT_EQ(r.bytes(), (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(r.bits(), (std::vector<bool>{true, false, true, true, false,
                                         true, false, true, true}));
  EXPECT_EQ(r.remaining(), 0U);
}

TEST(Wire, TruncatedReadsThrowCleanly) {
  std::vector<std::uint8_t> out;
  wire::putU64(out, 42);
  {
    wire::WireReader r(out.data(), 7);  // one byte short
    EXPECT_THROW((void)r.u64(), wire::WireError);
  }
  // A string whose declared length exceeds the buffer must not read past
  // the end.
  std::vector<std::uint8_t> lying;
  wire::putU32(lying, 1000);
  lying.push_back('x');
  wire::WireReader r(lying.data(), lying.size());
  EXPECT_THROW((void)r.string(), wire::WireError);
}

TEST(Wire, ExpectEndRejectsUnreadBytes) {
  std::vector<std::uint8_t> out;
  wire::putU32(out, 7);
  out.push_back(0);  // one byte past the last field
  wire::WireReader r(out.data(), out.size());
  EXPECT_EQ(r.u32(), 7U);
  EXPECT_THROW(r.expectEnd(), wire::WireError);
  (void)r.u8();
  EXPECT_NO_THROW(r.expectEnd());
}

TEST(Wire, BitCountOverflowIsRejected) {
  // A bit vector claiming ~2^63 entries must not overflow the byte-count
  // arithmetic into a small allocation.
  std::vector<std::uint8_t> lying;
  wire::putU64(lying, std::numeric_limits<std::uint64_t>::max() - 6);
  lying.push_back(0xFF);
  wire::WireReader r(lying.data(), lying.size());
  EXPECT_THROW((void)r.bits(), wire::WireError);
}

// ---------------------------------------------------------- fixed inputs

constexpr const char* kBellQasm = R"(OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
creg c[2];
h q[0];
cx q[0],q[1];
measure q[0] -> c[0];
measure q[1] -> c[1];
)";

std::uint64_t digest(const Bytes& b) { return wire::fnv1a(b.data(), b.size()); }

sim::SimulationStats goldenStats() {
  sim::SimulationStats s;
  s.wallSeconds = 0.5;
  s.appliedGates = 7;
  s.mxvCount = 3;
  s.mxmCount = 2;
  s.peakStateNodes = 5;
  s.peakMatrixNodes = 9;
  s.finalStateNodes = 4;
  s.approxFidelity = 0.875;
  s.checkpointsTaken = 1;
  return s;
}

/// Short RNG state, a one-qubit state and a pending one-qubit accumulator.
sim::Checkpoint goldenCheckpoint() {
  sim::Checkpoint ck;
  ck.circuitHash = 0x0123456789ABCDEFULL;
  ck.strategyHash = 0xFEDCBA9876543210ULL;
  ck.seed = 7;
  ck.nextOpIndex = 5;
  ck.rngState = "12 34 56";
  ck.classicalBits = {true, false, true};
  ck.state.numQubits = 1;
  dd::FlatNode<2> v;
  v.children[0] = dd::FlatEdge{dd::kFlatTerminal, dd::ComplexValue{1.0, 0.0}};
  v.children[1] =
      dd::FlatEdge{dd::kFlatTerminal, dd::ComplexValue{0.5, -0.25}};
  ck.state.nodes.push_back(v);
  ck.state.root = dd::FlatEdge{0, dd::ComplexValue{0.75, 0.0}};
  ck.accPending = true;
  ck.acc.numQubits = 1;
  dd::FlatNode<4> m;
  m.children[0] = dd::FlatEdge{dd::kFlatTerminal, dd::ComplexValue{1.0, 0.0}};
  m.children[3] =
      dd::FlatEdge{dd::kFlatTerminal, dd::ComplexValue{-1.0, 0.0}};
  ck.acc.nodes.push_back(m);
  ck.acc.root = dd::FlatEdge{0, dd::ComplexValue{1.0, 0.0}};
  ck.accCount = 2;
  ck.accGates = 3;
  ck.sequentialCooldown = 1;
  ck.stats = goldenStats();
  return ck;
}

net::SubmitPayload goldenSubmit() {
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
  return p;
}

net::ResultPayload goldenResult() {
  net::ResultPayload p;
  p.jobId = 99;
  p.status = net::wireStatus(serve::JobStatus::Completed);
  p.classicalBits = {true, false, true, true, false, false, true, false, true};
  p.stats = goldenStats();
  p.hasPartial = true;
  p.partial.opsCompleted = 7;
  p.partial.peakLiveNodes = 5;
  p.partial.elapsedSeconds = 0.25;
  p.partial.stats.appliedGates = 6;
  p.error = "nope";
  p.queueSeconds = 0.5;
  p.runSeconds = 1.5;
  p.coalesced = true;
  p.attempts = 3;
  p.resumed = true;
  return p;
}

serve::ServiceStats goldenServiceStats() {
  serve::ServiceStats s;
  s.workers = 2;
  s.elapsedSeconds = 1.25;
  s.submitted = 10;
  s.completed = 8;
  s.cached = 2;
  s.execHistogram.sum = 0.75;
  s.execHistogram.max = 0.25;
  s.execHistogram.buckets = {{0.125, 6}, {0.25, 2}};
  s.cache.hits = 2;
  s.cache.entries = 8;
  s.spill.appended = 8;
  s.retriesScheduled = 1;
  s.backoffSecondsTotal = 0.5;
  s.perWorkerJobs = {5, 3};
  return s;
}

serve::CacheKey goldenKey() {
  return {0x1111222233334444ULL, 0x5555666677778888ULL, 42};
}

serve::CachedOutcome goldenOutcome() {
  return {{true, false, true, true, false, false, true, false, true},
          goldenStats()};
}

/// Fresh spill directory under the gtest temp dir, named after the running
/// test too: ctest runs each test as its own process, so tests that share a
/// \p name must not share the directory.
std::string freshDir(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string test = std::string(info->test_suite_name()) + "." + info->name();
  std::ranges::replace(test, '/', '_');
  const std::string dir = ::testing::TempDir() + "ddsim_wire_" + test + "_" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

void writeFile(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

Bytes readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// The journal record CacheSpill::append writes for (key, outcome).
Bytes spillRecord(const serve::CacheKey& key,
                  const serve::CachedOutcome& outcome) {
  const std::string dir = freshDir("record");
  serve::CacheSpill(dir).append(key, outcome);
  return readFile(dir + "/cache.log");
}

/// \p sealed (any envelope) with \p pad zero bytes appended to its payload,
/// sealed again as \p version: the one pad-and-fix-up rule of every format,
/// and a checksum-valid envelope claiming another version.
Bytes reseal(const Bytes& sealed, std::size_t pad, std::uint16_t version) {
  const std::uint32_t magic = wire::peekU32(sealed.data());
  const wire::Opened opened =
      wire::open(sealed, magic, wire::peekU16(sealed.data() + 4));
  Bytes payload(opened.payload.begin(), opened.payload.end());
  payload.resize(payload.size() + pad, 0);
  return wire::seal(magic, version, opened.kind, payload);
}

/// The version \p sealed claims.
std::uint16_t versionOf(const Bytes& sealed) {
  return wire::peekU16(sealed.data() + 4);
}

// --------------------------------------------------------------- goldens
//
// The spill record is pinned byte for byte; the larger encodings by size
// and FNV-1a digest. The sealed formats were re-captured when they moved
// into the one envelope (checkpoint version 3, spill magic "LPSR" version
// 3); the StatsReport payload when its queue-latency maximum became a
// derived figure. Frame version 6 re-captured the Submit payload (three
// StrategyConfig fields became constants) and the StatsReport payload
// (the cache-bypass counter went).

TEST(WireGolden, SpillRecordBytes) {
  // Layout: the envelope header (magic "LPSR", version 3, kind 0, u64
  // payload length 170, u64 checksum), then the payload: key triple, u64
  // bit count + packed bits, then the 17 flat SimulationStats fields.
  const Bytes kGolden = {
      0x4C, 0x50, 0x53, 0x52, 0x03, 0x00, 0x00, 0x00, 0xAA, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x9F, 0xB0, 0xA7, 0xEF, 0x85, 0x7B, 0xE5, 0x68,
      0x44, 0x44, 0x33, 0x33, 0x22, 0x22, 0x11, 0x11, 0x88, 0x88, 0x77, 0x77,
      0x66, 0x66, 0x55, 0x55, 0x2A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x4D, 0x01, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0xEC, 0x3F, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00,
  };
  EXPECT_EQ(spillRecord(goldenKey(), goldenOutcome()), kGolden);

  // A journal holding the pinned bytes still loads.
  const std::string dir = freshDir("golden_journal");
  writeFile(dir + "/cache.log", kGolden);
  serve::CacheSpill spill(dir);
  std::vector<std::pair<serve::CacheKey, serve::CachedOutcome>> loaded;
  EXPECT_EQ(spill.load([&](const serve::CacheKey& k, serve::CachedOutcome o) {
              loaded.emplace_back(k, std::move(o));
            }),
            1U);
  ASSERT_EQ(loaded.size(), 1U);
  EXPECT_EQ(loaded[0].first, goldenKey());
  EXPECT_EQ(loaded[0].second.classicalBits, goldenOutcome().classicalBits);
  EXPECT_EQ(loaded[0].second.stats.appliedGates, 7U);
  EXPECT_EQ(loaded[0].second.stats.checkpointsTaken, 1U);
}

TEST(WireGolden, PreviousLayoutSpillRecordIsSkippedAndCounted) {
  // Records as the previous layouts wrote them, their checksums intact:
  // magic "LPSD", payload of the key, the bits and 22 stats fields (the
  // pipeline counters included); magic "LPS2" with the 17 stats fields of
  // today, both behind a versionless 16-byte header; and today's magic
  // claiming version 2. The loader skips each as one corrupt region and
  // still loads the record after it.
  const Bytes kLpsdRecord = {
      0x4C, 0x50, 0x53, 0x44, 0xD2, 0x00, 0x00, 0x00, 0xEE, 0x1F, 0xA9, 0x21,
      0x65, 0x8B, 0x5E, 0xF4, 0x44, 0x44, 0x33, 0x33, 0x22, 0x22, 0x11, 0x11,
      0x88, 0x88, 0x77, 0x77, 0x66, 0x66, 0x55, 0x55, 0x2A, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x4D, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F, 0x07, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0xEC, 0x3F, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xD0, 0x3F,
  };
  const Bytes kLps2Record = {
      0x4C, 0x50, 0x53, 0x32, 0xAA, 0x00, 0x00, 0x00, 0x0F, 0x7C, 0x85, 0x39,
      0x4A, 0xA1, 0xF7, 0xCE, 0x44, 0x44, 0x33, 0x33, 0x22, 0x22, 0x11, 0x11,
      0x88, 0x88, 0x77, 0x77, 0x66, 0x66, 0x55, 0x55, 0x2A, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x4D, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xE0, 0x3F, 0x07, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0xEC, 0x3F, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  const Bytes current = spillRecord(goldenKey(), goldenOutcome());
  const Bytes previousVersion = reseal(
      current, 0, static_cast<std::uint16_t>(versionOf(current) - 1));
  const serve::CacheKey key{1, 2, 3};
  const Bytes intact = spillRecord(key, goldenOutcome());
  for (const Bytes* old : {&kLpsdRecord, &kLps2Record, &previousVersion}) {
    Bytes journal = *old;
    journal.insert(journal.end(), intact.begin(), intact.end());
    const std::string dir = freshDir("old_journal");
    writeFile(dir + "/cache.log", journal);
    serve::CacheSpill spill(dir);
    std::vector<serve::CacheKey> keys;
    EXPECT_EQ(spill.load([&](const serve::CacheKey& k, serve::CachedOutcome) {
                keys.push_back(k);
              }),
              1U);
    EXPECT_EQ(keys, std::vector<serve::CacheKey>{key});
    EXPECT_EQ(spill.counters().corruptSkipped, 1U);
    EXPECT_EQ(spill.counters().loaded, 1U);
  }
}

TEST(WireGolden, CheckpointSizeAndDigest) {
  const Bytes bytes = goldenCheckpoint().serialize();
  EXPECT_EQ(bytes.size(), 438U);
  EXPECT_EQ(digest(bytes), 0xC3DB368B673A2DEBULL);
  const sim::Checkpoint back = sim::Checkpoint::deserialize(bytes);
  EXPECT_EQ(back.rngState, "12 34 56");
  EXPECT_EQ(back.state, goldenCheckpoint().state);
  ASSERT_TRUE(back.accPending);
  EXPECT_EQ(back.acc, goldenCheckpoint().acc);
  EXPECT_EQ(back.serialize(), bytes);
}

TEST(WireGolden, SubmitPayloadSizeAndDigest) {
  const Bytes bytes = net::encodeSubmit(goldenSubmit());
  EXPECT_EQ(bytes.size(), 236U);
  EXPECT_EQ(digest(bytes), 0x04F5FB7887646CDFULL);
  EXPECT_EQ(net::encodeSubmit(net::decodeSubmit(bytes)), bytes);
}

TEST(WireGolden, ResultPayloadSizeAndDigest) {
  const Bytes bytes = net::encodeResult(goldenResult());
  EXPECT_EQ(bytes.size(), 359U);
  EXPECT_EQ(digest(bytes), 0xDEB02BA4368AEE48ULL);
  EXPECT_EQ(net::encodeResult(net::decodeResult(bytes)), bytes);
}

TEST(WireGolden, ServiceStatsSizeAndDigest) {
  const Bytes bytes = net::encodeServiceStats(goldenServiceStats());
  EXPECT_EQ(bytes.size(), 384U);
  EXPECT_EQ(digest(bytes), 0xCE7363BC7854D39EULL);
  EXPECT_EQ(net::encodeServiceStats(net::decodeServiceStats(bytes)), bytes);
}

// ------------------------------------------------------ corruption matrix

/// True when decoding \p bytes throws the format's own error type; any
/// other exception escapes and fails the test.
template <class Error, class Decode>
std::function<bool(const Bytes&)> throwsOwnError(Decode decode) {
  return [decode](const Bytes& bytes) {
    try {
      (void)decode(bytes);
      return false;
    } catch (const Error&) {
      return true;
    }
  };
}

struct Format {
  std::string name;
  Bytes good;
  std::function<bool(const Bytes&)> rejects;
};

/// Every truncation and every single-bit flip of \p f.good, header fields
/// included, is rejected. \p shortest is the first cut length tried.
void expectEveryCutAndFlipRejected(const Format& f, std::size_t shortest) {
  ASSERT_FALSE(f.rejects(f.good)) << f.name << ": intact bytes rejected";
  for (std::size_t len = shortest; len < f.good.size(); ++len) {
    const Bytes cut(f.good.begin(),
                    f.good.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_TRUE(f.rejects(cut)) << f.name << " truncated to " << len;
  }
  for (std::size_t i = 0; i < f.good.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes bad = f.good;
      bad[i] ^= static_cast<std::uint8_t>(1U << bit);
      EXPECT_TRUE(f.rejects(bad))
          << f.name << ": bit " << bit << " of byte " << i << " flipped";
    }
  }
}

TEST(WireCorruption, EveryCutAndBitFlipIsRejectedInAllThreeFormats) {
  // The envelope itself, once: every cut and flip fails wire::open.
  const Bytes payload = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07};
  const std::uint32_t magic = 0x12345678U;
  const Bytes envelope = wire::seal(magic, 9, 3, payload);
  expectEveryCutAndFlipRejected(
      {"envelope", envelope,
       throwsOwnError<wire::WireError>(
           [&](const Bytes& b) { return wire::open(b, magic, 9); })},
      0);
  // Resealing with zero padding reproduces the intact bytes, so the pad
  // rule rewrites exactly the fields the envelope checks.
  ASSERT_EQ(reseal(envelope, 0, 9), envelope);

  // One row per format: the same damage to a real blob surfaces as the
  // format's own error, and so does one payload byte past the last field,
  // resealed to match — what an encoder with a longer layout writes.
  std::vector<Format> formats;
  formats.push_back({"checkpoint blob", goldenCheckpoint().serialize(),
                     throwsOwnError<sim::CheckpointError>([](const Bytes& b) {
                       return sim::Checkpoint::deserialize(b);
                     })});
  // The frame row decodes the Submit payload too, so bytes past its last
  // field are seen.
  formats.push_back(
      {"frame",
       net::encodeFrame(
           {net::FrameType::Submit, net::encodeSubmit(goldenSubmit())}),
       throwsOwnError<net::FrameError>([](const Bytes& b) {
         return net::decodeSubmit(net::decodeFrame(b).payload);
       })});
  // A spill record is rejected when a journal holding it, followed by an
  // intact record, loads only the intact record and counts the damage.
  const serve::CacheKey intactKey{1, 2, 3};
  const Bytes intact = spillRecord(intactKey, goldenOutcome());
  const std::string dir = freshDir("matrix");
  formats.push_back(
      {"spill record", spillRecord(goldenKey(), goldenOutcome()),
       [&](const Bytes& damaged) {
         Bytes journal = damaged;
         journal.insert(journal.end(), intact.begin(), intact.end());
         writeFile(dir + "/cache.log", journal);
         serve::CacheSpill spill(dir);
         std::vector<serve::CacheKey> keys;
         spill.load([&](const serve::CacheKey& k, serve::CachedOutcome) {
           keys.push_back(k);
         });
         return keys == std::vector<serve::CacheKey>{intactKey} &&
                spill.counters().corruptSkipped >= 1;
       }});

  for (const Format& f : formats) {
    // A spill record cut to nothing leaves no damage to count, so the
    // spill sweep starts at one byte.
    expectEveryCutAndFlipRejected(f, f.name == "spill record" ? 1 : 0);
    EXPECT_TRUE(f.rejects(reseal(f.good, 1, versionOf(f.good))))
        << f.name << ": a trailing payload byte was accepted";
  }
}

}  // namespace
}  // namespace ddsim
