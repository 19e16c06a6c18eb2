#include "hmcs/runner/journal.hpp"

#include <charconv>
#include <filesystem>
#include <iterator>
#include <limits>
#include <sstream>

#include "hmcs/util/error.hpp"
#include "hmcs/util/json.hpp"
#include "hmcs/util/output_file.hpp"

namespace hmcs::runner {

namespace {

constexpr std::string_view kPrefix = "journal";

std::string header_line(const JournalWriter::Shape& shape) {
  JsonWriter json;
  json.begin_object();
  json.key("journal").value("hmcs-sweep");
  json.key("version").value(std::uint64_t{1});
  json.key("id").value(shape.id);
  json.key("points").value(static_cast<std::uint64_t>(shape.points));
  json.key("backends").begin_array();
  for (const std::string& name : shape.backend_names) json.value(name);
  json.end_array();
  json.end_object();
  json.end_line();
  return std::move(json).str();
}

/// Writes one cell's record line, newline included.
void write_cell_line(JsonWriter& json, const JournalWriter::Record& record) {
  const PointResult& result = *record.result;
  char seed[20];
  const auto digits = std::to_chars(seed, seed + sizeof(seed), record.seed);
  json.begin_object();
  json.key("cell").value(static_cast<std::uint64_t>(record.cell));
  json.key("seed").value(
      std::string_view(seed, static_cast<std::size_t>(digits.ptr - seed)));
  json.key("status").value(to_string(result.status));
  json.key("attempts").value(result.attempts);
  json.key("error").value(result.error);
  // Doubles and the u64 message count round-trip exactly, which the
  // resume bit-identity contract needs.
  json.key("result");
  write_json(json, result);
  json.end_object();
  json.end_line();
}

void apply_header(SweepJournal& journal, const JsonValue& doc, bool& seen,
                  const JournalWriter::Shape* expected) {
  require(doc.at("journal").as_string() == "hmcs-sweep",
          "journal: not an hmcs sweep journal");
  require(doc.at("version").as_number() == 1.0,
          "journal: unsupported version");
  SweepJournal header;
  header.id = doc.at("id").as_string();
  header.points = json_uint<std::size_t>(doc.at("points"), kPrefix, "points");
  for (const JsonValue& name : doc.at("backends").items) {
    header.backend_names.push_back(name.as_string());
  }
  require(header.points > 0 && !header.backend_names.empty(),
          "journal: degenerate header");
  require(header.points <= std::numeric_limits<std::size_t>::max() /
                               header.backend_names.size(),
          "journal: header's points x backends overflows");
  if (expected != nullptr) {
    require(header.id == expected->id,
            "journal: header is for sweep '" + header.id +
                "'; the resumed sweep is '" + expected->id + "'");
    require(header.points == expected->points,
            "journal: header has " + std::to_string(header.points) +
                " points; the resumed sweep has " +
                std::to_string(expected->points));
    require(header.backend_names == expected->backend_names,
            "journal: header has a different backend set than the resumed "
            "sweep");
  }
  if (!seen) {
    journal.id = header.id;
    journal.points = header.points;
    journal.backend_names = header.backend_names;
    const std::size_t cells = header.points * header.backend_names.size();
    journal.cells.assign(cells, std::nullopt);
    journal.seeds.assign(cells, 0);
    seen = true;
    return;
  }
  // An appended-to journal repeats its header; all copies must agree.
  require(header.id == journal.id && header.points == journal.points &&
              header.backend_names == journal.backend_names,
          "journal: disagreeing headers (mixed sweeps in one file?)");
}

void apply_cell(SweepJournal& journal, const JsonValue& doc) {
  const auto cell = json_uint<std::size_t>(doc.at("cell"), kPrefix, "cell");
  require(cell < journal.cells.size(), "journal: cell index out of range");
  const CellStatus status = parse_cell_status(doc.at("status").as_string());
  require(status != CellStatus::kSkipped,
          "journal: skipped cells are never journaled");
  PointResult result = point_result_from_json(doc.at("result"), kPrefix);
  result.status = status;
  result.attempts =
      json_uint<std::uint32_t>(doc.at("attempts"), kPrefix, "attempts");
  result.error = doc.at("error").as_string();
  journal.seeds[cell] =
      json_uint<std::uint64_t>(doc.at("seed"), kPrefix, "seed");
  journal.cells[cell] = std::move(result);
}

SweepJournal load_journal(const std::string& path,
                          const JournalWriter::Shape* expected) {
  std::ifstream in(path);
  require(in.good(), "journal: cannot open '" + path + "'");

  SweepJournal journal;
  bool seen_header = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    // A process killed mid-write leaves at most one incomplete final
    // line; getline without a trailing record separator or a parse
    // failure on the last line is expected, anywhere else it is
    // corruption.
    JsonValue doc;
    try {
      doc = parse_json(line);
    } catch (const ConfigError&) {
      require(in.peek() == std::ifstream::traits_type::eof(),
              "journal: corrupt record mid-file in '" + path + "'");
      break;
    }
    if (!seen_header || doc.find("journal") != nullptr) {
      apply_header(journal, doc, seen_header, expected);
      continue;
    }
    apply_cell(journal, doc);
  }
  require(seen_header, "journal: '" + path + "' has no hmcs-sweep header");
  return journal;
}

}  // namespace

std::size_t SweepJournal::completed() const {
  std::size_t count = 0;
  for (const auto& cell : cells) count += cell.has_value() ? 1 : 0;
  return count;
}

SweepJournal load_sweep_journal(const std::string& path) {
  return load_journal(path, nullptr);
}

SweepJournal load_sweep_journal(const std::string& path,
                                const JournalWriter::Shape& expected) {
  return load_journal(path, &expected);
}

JournalWriter::JournalWriter(const std::string& path, const Shape& shape,
                             bool append)
    : path_(path) {
  require(shape.points > 0 && !shape.backend_names.empty(),
          "journal: degenerate shape");
  const bool fresh =
      !append || !std::filesystem::exists(path) ||
      std::filesystem::file_size(path) == 0;
  if (fresh) {
    out_ = open_output_file(path);
  } else {
    // A run killed mid-write can leave a partial last line, which the
    // loader drops. Cut it off, or the appended header would continue
    // it and leave a corrupt line mid-file that no later load accepts.
    std::ifstream in(path, std::ios::binary);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    if (!text.empty() && text.back() != '\n') {
      std::filesystem::resize_file(path, text.rfind('\n') + 1);
    }
    out_.open(path, std::ios::app);
  }
  require(out_.good(), "journal: cannot write '" + path + "'");
  // Always restate the header: a fresh file needs one, and an appended
  // header re-validates shape agreement on the next load.
  out_ << header_line(shape);
  out_.flush();
  require(out_.good(), "journal: write to '" + path + "' failed");
}

void JournalWriter::record(std::span<const Record> records) {
  if (records.empty()) return;
  JsonWriter json;
  for (const Record& record : records) write_cell_line(json, record);
  const std::string block = std::move(json).str();
  const std::scoped_lock lock(mutex_);
  out_.write(block.data(), static_cast<std::streamsize>(block.size()));
  out_.flush();
}

void JournalWriter::record(std::size_t cell, std::uint64_t seed,
                           const PointResult& result) {
  const Record one{cell, seed, &result};
  record(std::span<const Record>(&one, 1));
}

}  // namespace hmcs::runner
