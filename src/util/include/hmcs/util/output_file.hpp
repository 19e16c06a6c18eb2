#pragma once

/// \file output_file.hpp
/// The one way the program opens an output file it writes from empty:
/// CSV series, sweep records, fresh journals, metrics and traces.

#include <cstddef>
#include <fstream>
#include <string>

namespace hmcs {

/// What a writer that streams a file in pieces buffers before each
/// write: few writes, and no document held whole in memory.
inline constexpr std::size_t kOutputChunkBytes = std::size_t{1} << 16;

/// Opens `path` for writing from empty. An existing regular file is
/// removed and a new one created rather than truncated in place: ext4's
/// default `auto_da_alloc` starts writeback when a truncated-and-
/// rewritten file is closed, so a re-run into the same outputs would
/// wait on the disk, while a new file stays in the page cache like any
/// other write. Nothing here syncs. A symlink is written through (its
/// target is truncated); a hard link's other names keep the old bytes.
/// The stream is not open when the file cannot be created.
std::ofstream open_output_file(const std::string& path);

}  // namespace hmcs
