#pragma once

/// \file journal.hpp
/// Checkpoint/resume for sweeps: a JSON-lines journal of completed
/// cells. The writer appends the lines of each finished task — one
/// cell, or the cells of one batch chunk, which all finish together
/// when the chunk's evaluate_batch returns — as one block with one
/// flush, so a run killed at any moment (SIGINT or SIGKILL) loses only
/// the tasks it had not finished. A kill in the middle of a block's
/// write can leave a prefix of the block; resume re-evaluates any chunk
/// with a pending cell, so that prefix is harmless. The loader replays
/// the journal and run_sweep skips the cells it holds. Because per-point
/// seeds are fixed at expansion time and every numeric field round-trips
/// exactly (17-significant-digit doubles, decimal-string u64 seeds,
/// nan/inf spelled out), a resumed sweep's merged result is bit-identical
/// to an uninterrupted run. Format reference: docs/ROBUSTNESS.md.
///
/// Line 1 is a header identifying the sweep shape:
///
///   {"journal":"hmcs-sweep","version":1,"id":"fig6","points":8,
///    "backends":["analytic","des"]}
///
/// then one object per terminal cell:
///
///   {"cell":5,"seed":"1965...","status":"ok","attempts":1,"error":"",
///    "result":{"mean_latency_us":31.4,...}}
///
/// A truncated final line (kill mid-write) is ignored on load and cut
/// off before a resumed run appends; appending to a resumed journal is
/// valid (later records win, headers must agree).

#include <cstdint>
#include <fstream>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "hmcs/runner/backend.hpp"

namespace hmcs::runner {

/// A loaded journal: the sweep shape from the header(s) plus every
/// complete cell record, last occurrence winning.
struct SweepJournal {
  std::string id;
  std::size_t points = 0;
  std::vector<std::string> backend_names;
  /// Indexed by flat cell (point-major, points * backends entries);
  /// empty optionals are cells the journaled run never finished.
  std::vector<std::optional<PointResult>> cells;
  /// Seed recorded per journaled cell (guards against resuming under a
  /// different spec); meaningful where cells[i] is set.
  std::vector<std::uint64_t> seeds;

  std::size_t completed() const;
};

/// Parses a journal file. Throws hmcs::ConfigError on unreadable paths,
/// a missing/foreign header, disagreeing headers, or a header whose
/// points x backends overflows; tolerates (and drops) one truncated
/// trailing line. The cell table is sized from the header, so a journal
/// of unknown origin is better loaded through the overload below.
SweepJournal load_sweep_journal(const std::string& path);

/// Thread-safe appending journal writer. Constructing it starts a new
/// file (open_output_file) or appends per `append`; the header is
/// written immediately when the file is fresh, so even a run killed
/// before its first finished cell leaves a resumable journal.
class JournalWriter {
 public:
  struct Shape {
    std::string id;
    std::size_t points = 0;
    std::vector<std::string> backend_names;
  };

  /// One terminal cell: its flat index, its point's first-attempt seed
  /// and its result.
  struct Record {
    std::size_t cell = 0;
    std::uint64_t seed = 0;
    const PointResult* result = nullptr;
  };

  /// Throws hmcs::ConfigError when the file cannot be opened.
  JournalWriter(const std::string& path, const Shape& shape, bool append);

  /// Appends the records of one finished task — one cell, or the
  /// pending cells of one batch chunk — as one block: the lines are
  /// formatted before the lock is taken, then written with one flush
  /// under it. Safe to call from concurrent workers.
  void record(std::span<const Record> records);
  /// One finished cell as a one-record block.
  void record(std::size_t cell, std::uint64_t seed, const PointResult& result);

  const std::string& path() const { return path_; }

 private:
  std::string path_;
  std::ofstream out_;
  std::mutex mutex_;
};

/// load_sweep_journal for resuming the sweep of shape `expected`: the
/// first header must match its id, point count and backends before the
/// cell table is allocated, so a header claiming any other sweep — a
/// billion points, say — is a ConfigError rather than an allocation of
/// its size.
SweepJournal load_sweep_journal(const std::string& path,
                                const JournalWriter::Shape& expected);

}  // namespace hmcs::runner
