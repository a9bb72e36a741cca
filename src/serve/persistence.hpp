/// \file persistence.hpp
/// \brief Crash-consistent persistence for the serve-layer result cache.
///
/// A restarted `ddsim_serve --cache-dir <dir>` should answer previously
/// completed jobs without re-simulating them. The spill keeps two files in
/// the cache directory:
///
///  * `cache.snapshot` — a full dump of the cache, replaced atomically
///    (write to `cache.snapshot.tmp`, fsync, rename). Written at graceful
///    shutdown; never partially visible.
///  * `cache.log` — an append-only journal, one checksummed record per
///    completed job, flushed on every append. Survives a SIGKILL mid-run
///    up to the last flushed record.
///
/// Both files hold the same record format: one wire envelope
/// (wire/wire.hpp) whose payload is the cache key triple, the classical
/// bits and the flat SimulationStats field list shared with the checkpoint
/// blob (sim::statsFields). Loading is corruption-tolerant by
/// design: a record whose header, length or checksum does not line up is
/// *skipped and counted* — the loader rescans for the next record magic —
/// and never fails the restart. A torn final record (the common crash
/// artifact of an append-only log) therefore costs one cache entry, not
/// the whole spill.
///
/// Snapshot-then-truncate: after a successful snapshot rename the log is
/// truncated. The crash window between the two operations leaves records
/// present in both files; replaying them is idempotent (same key, same
/// deterministic outcome), so recovery needs no sequencing metadata.

#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "serve/result_cache.hpp"

namespace ddsim::serve {

/// Monotonic spill counters (snapshot via CacheSpill::counters()).
struct SpillCounters {
  std::uint64_t appended = 0;       ///< records written to the log
  std::uint64_t loaded = 0;         ///< records restored at load()
  std::uint64_t corruptSkipped = 0; ///< records rejected (and survived) at load()
  std::uint64_t snapshots = 0;      ///< atomic snapshot rewrites completed
};

class CacheSpill {
 public:
  /// Bind to \p dir (created, with parents, if missing). Throws
  /// std::runtime_error when the directory cannot be created.
  explicit CacheSpill(std::string dir);
  ~CacheSpill();

  CacheSpill(const CacheSpill&) = delete;
  CacheSpill& operator=(const CacheSpill&) = delete;

  /// Replay the snapshot, then the log, invoking \p sink per decoded
  /// record (later records for the same key simply overwrite — replay is
  /// idempotent). Corrupted records are skipped and counted, never fatal;
  /// missing files mean an empty spill. Returns the number of records
  /// restored.
  std::size_t load(
      const std::function<void(const CacheKey&, CachedOutcome)>& sink);

  /// Append one record to the journal and flush it to the OS. Thread-safe.
  void append(const CacheKey& key, const CachedOutcome& outcome);

  /// Atomically replace the snapshot with \p entries (tmp + fsync +
  /// rename), then truncate the journal. Thread-safe; returns false when
  /// any filesystem step failed (the previous snapshot stays intact).
  bool snapshot(
      const std::vector<std::pair<CacheKey, CachedOutcome>>& entries);

  [[nodiscard]] SpillCounters counters() const;
  [[nodiscard]] const std::string& directory() const noexcept { return dir_; }

 private:
  [[nodiscard]] std::string snapshotPath() const;
  [[nodiscard]] std::string logPath() const;
  /// Decode every salvageable record of one file (absent file = 0 records).
  std::size_t loadFile(
      const std::string& path,
      const std::function<void(const CacheKey&, CachedOutcome)>& sink);
  void closeLogLocked();

  std::string dir_;
  mutable std::mutex mutex_;
  /// Journal handle, opened lazily on first append and kept open so every
  /// completed job costs one write + flush, not an open/close pair.
  std::FILE* log_ = nullptr;

  std::uint64_t appended_ = 0;
  std::uint64_t loaded_ = 0;
  std::uint64_t corruptSkipped_ = 0;
  std::uint64_t snapshots_ = 0;
};

}  // namespace ddsim::serve
