#include "serve/persistence.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "obs/trace.hpp"
#include "sim/checkpoint.hpp"
#include "wire/wire.hpp"

namespace ddsim::serve {

namespace {

/// Records of an older layout — the versionless "LPSD" and "LPS2" records,
/// or this magic with another version — are skipped and counted as
/// corrupt, never decoded with shifted fields.
constexpr std::uint32_t kRecordMagic = 0x5253504cU;  // "LPSR" on disk (LE)
constexpr std::uint16_t kRecordVersion = 3;

/// Record payload: the cache-key triple, the classical bits, then the flat
/// stats shared with the checkpoint blob.
template <class IO, class Key, class Outcome>
void recordFields(IO& io, Key& key, Outcome& outcome) {
  io.u64(key.circuitHash);
  io.u64(key.configHash);
  io.u64(key.seed);
  io.bits(outcome.classicalBits);
  sim::statsFields(io, outcome.stats);
}

std::vector<std::uint8_t> encodeRecord(const CacheKey& key,
                                       const CachedOutcome& outcome) {
  wire::WireWriter payload;
  recordFields(payload, key, outcome);
  return wire::seal(kRecordMagic, kRecordVersion, 0, payload.out);
}

/// Decode the record at the front of \p rest, the file's bytes from a
/// record magic on. Returns its size in the file; throws wire::WireError
/// when the record is damaged or of another layout.
std::size_t decodeRecord(std::span<const std::uint8_t> rest, CacheKey& key,
                         CachedOutcome& outcome) {
  const wire::Header h = wire::readHeader(rest, kRecordMagic, kRecordVersion);
  // A torn tail (the common SIGKILL artifact) or a corrupted length:
  // bound the declared length by the bytes left before slicing.
  if (h.length > rest.size() - wire::kHeaderSize) {
    throw wire::WireError("record length exceeds the file");
  }
  const std::size_t size = wire::kHeaderSize + h.length;
  const wire::Opened record =
      wire::open(rest.first(size), kRecordMagic, kRecordVersion);
  if (record.kind != 0) {
    throw wire::WireError("unknown record kind");
  }
  wire::WireReader r(record.payload);
  recordFields(r, key, outcome);
  r.expectEnd();
  return size;
}

bool fsyncFile(std::FILE* f) {
  return std::fflush(f) == 0 && ::fsync(::fileno(f)) == 0;
}

}  // namespace

CacheSpill::CacheSpill(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec && !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("CacheSpill: cannot create cache directory '" +
                             dir_ + "': " + ec.message());
  }
}

CacheSpill::~CacheSpill() {
  const std::lock_guard<std::mutex> lock(mutex_);
  closeLogLocked();
}

std::string CacheSpill::snapshotPath() const { return dir_ + "/cache.snapshot"; }
std::string CacheSpill::logPath() const { return dir_ + "/cache.log"; }

void CacheSpill::closeLogLocked() {
  if (log_ != nullptr) {
    std::fclose(log_);
    log_ = nullptr;
  }
}

std::size_t CacheSpill::load(
    const std::function<void(const CacheKey&, CachedOutcome)>& sink) {
  const std::lock_guard<std::mutex> lock(mutex_);
  // Snapshot first, then the journal: journal records are newer (or, in
  // the snapshot-then-truncate crash window, duplicates — idempotent).
  std::size_t restored = loadFile(snapshotPath(), sink);
  restored += loadFile(logPath(), sink);
  return restored;
}

std::size_t CacheSpill::loadFile(
    const std::string& path,
    const std::function<void(const CacheKey&, CachedOutcome)>& sink) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return 0;  // absent file = empty spill, a normal cold start
  }
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
  std::size_t restored = 0;
  std::size_t off = 0;
  bool inCorruptRun = false;  // count one skip per damaged region, not per byte
  const auto markCorrupt = [&] {
    if (!inCorruptRun) {
      ++corruptSkipped_;
      inCorruptRun = true;
      obs::traceInstant("serve.spill.corrupt-record", obs::cat::kServe, off);
    }
  };
  while (off + wire::kHeaderSize <= bytes.size()) {
    if (wire::peekU32(bytes.data() + off) != kRecordMagic) {
      // Resync: scan forward for the next record magic.
      markCorrupt();
      ++off;
      continue;
    }
    try {
      CacheKey key;
      CachedOutcome outcome;
      const std::size_t size = decodeRecord(
          std::span<const std::uint8_t>(bytes).subspan(off), key, outcome);
      sink(key, std::move(outcome));
      ++restored;
      ++loaded_;
      inCorruptRun = false;
      off += size;
    } catch (const std::exception&) {
      // Step past the magic and rescan: if only the header was damaged,
      // the next record's magic is still findable.
      markCorrupt();
      off += 4;
    }
  }
  if (off < bytes.size()) {
    markCorrupt();  // trailing fragment shorter than a record header
  }
  return restored;
}

void CacheSpill::append(const CacheKey& key, const CachedOutcome& outcome) {
  const std::vector<std::uint8_t> record = encodeRecord(key, outcome);
  const std::lock_guard<std::mutex> lock(mutex_);
  if (log_ == nullptr) {
    log_ = std::fopen(logPath().c_str(), "ab");
    if (log_ == nullptr) {
      return;  // persistence is best-effort; the in-memory cache still works
    }
  }
  if (std::fwrite(record.data(), 1, record.size(), log_) == record.size()) {
    // One flush per record keeps the journal crash-consistent up to the
    // last completed job without paying an fsync on the worker's path; a
    // torn in-flight record is skipped (and counted) by the loader.
    std::fflush(log_);
    ++appended_;
  }
}

bool CacheSpill::snapshot(
    const std::vector<std::pair<CacheKey, CachedOutcome>>& entries) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const std::string tmp = snapshotPath() + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) {
    return false;
  }
  bool ok = true;
  for (const auto& [key, outcome] : entries) {
    const std::vector<std::uint8_t> record = encodeRecord(key, outcome);
    if (std::fwrite(record.data(), 1, record.size(), out) != record.size()) {
      ok = false;
      break;
    }
  }
  // fsync before rename: the rename must never publish a file whose bytes
  // are still in flight, or a crash could atomically install a torn
  // snapshot.
  ok = fsyncFile(out) && ok;
  std::fclose(out);
  if (!ok || std::rename(tmp.c_str(), snapshotPath().c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  // Snapshot is durable — the journal's records are all contained in it,
  // so truncate. A crash before this point replays them from both files;
  // replay is idempotent, so no sequencing is needed.
  closeLogLocked();
  if (std::FILE* trunc = std::fopen(logPath().c_str(), "wb")) {
    std::fclose(trunc);
  }
  ++snapshots_;
  return true;
}

SpillCounters CacheSpill::counters() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  SpillCounters c;
  c.appended = appended_;
  c.loaded = loaded_;
  c.corruptSkipped = corruptSkipped_;
  c.snapshots = snapshots_;
  return c;
}

}  // namespace ddsim::serve
