// Byte pins of the output layers: a sweep's table, CSV, JSON record and
// journal lines, and JsonWriter itself on random documents. Each case
// stores a 64-bit FNV-1a digest of the bytes a user or a downstream tool
// reads; the inputs reach the corners of every formatter — ok, degraded,
// failed and timed-out cells, NaN and infinite means, non-converged
// fixed points, error text with quotes, backslashes and control bytes,
// seeds near 2^64, subnormal doubles and 64-bit integer extremes. The
// formats are a contract with whatever reads them (results/fig*,
// resumed journals, serve clients), so a changed digest is a format
// break, not a value to re-record casually.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "hmcs/runner/journal.hpp"
#include "hmcs/runner/sweep_report.hpp"
#include "hmcs/runner/sweep_runner.hpp"
#include "hmcs/util/json.hpp"

namespace {

using namespace hmcs;
using runner::Backend;
using runner::PointContext;
using runner::PointResult;

/// 64-bit FNV-1a over raw bytes.
std::uint64_t fnv1a(std::string_view text,
                    std::uint64_t hash = 0xcbf29ce484222325ull) {
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// A backend whose cells reach every status and every formatter corner,
/// chosen by point index modulo 12. Healthy cells compute a deterministic
/// function of the point's coordinates and seed.
class ChaosBackend : public Backend {
 public:
  const std::string& name() const override { return name_; }

  PointResult predict(const analytic::SystemConfig& config,
                      const PointContext& ctx) const override {
    PointResult result;
    result.mean_latency_us = static_cast<double>(config.clusters) * 97.25 +
                             config.message_bytes / 3.0 +
                             static_cast<double>(ctx.seed >> 40);
    result.lambda_offered = config.generation_rate_per_us;
    result.lambda_effective = result.lambda_offered * 0.875;
    switch (ctx.index % 12) {
      case 1:
        result.mean_latency_us = std::numeric_limits<double>::quiet_NaN();
        break;
      case 2:
        result.mean_latency_us = std::numeric_limits<double>::infinity();
        break;
      case 3:
        result.mean_latency_us = -std::numeric_limits<double>::infinity();
        break;
      case 4:
        result.converged = false;
        break;
      case 5:
        result.max_center_utilization = 1.25;
        break;
      case 6:
        throw std::runtime_error(
            "bad \"cell\" at C:\\path\\x\n\ttab\x01\x1f\x7f end");
      case 7:
        // Polls its deadline like a simulator that never finishes.
        for (;;) {
          ctx.cancel->check("chaos");
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      case 8:
        result.ci_half_us = std::numeric_limits<double>::denorm_min();
        result.messages_measured = std::numeric_limits<std::uint64_t>::max();
        result.effective_rate_per_us = 1e-310;
        break;
      case 9:
        result.ci_half_us = 0.1;
        result.messages_measured =
            std::numeric_limits<std::uint64_t>::max() - ctx.index;
        result.mean_switch_hops = 2.5;
        result.max_switch_utilization = 0.999999999999;
        result.max_center_utilization = 0.5;
        break;
      case 10:
        result.mean_latency_us = std::numeric_limits<double>::max();
        result.ci_half_us = std::numeric_limits<double>::min();
        result.lambda_offered = -0.0;
        break;
      case 11:
        // Retried once, then healthy: attempts reads 2.
        if (ctx.attempt == 1) throw std::runtime_error("transient");
        result.mean_latency_us = 1.0 / 3.0;
        break;
      default:
        break;
    }
    return result;
  }

 private:
  std::string name_ = "chaos \"x\"";
};

runner::SweepSpec pin_spec() {
  runner::SweepSpec spec;
  spec.id = "pins";
  spec.title = "Pins: \"quoted\" \\ back\tslash";
  spec.axes.clusters = {1, 2, 4, 8};
  spec.axes.message_bytes = {512.0, 1536.5, 4096.0};
  spec.axes.lambda_per_us = {2.5e-4, 1e-3};
  spec.axes.architectures = {analytic::NetworkArchitecture::kNonBlocking,
                             analytic::NetworkArchitecture::kBlocking};
  runner::TechnologyCase odd =
      runner::technology_case(analytic::HeterogeneityCase::kCase2);
  odd.label = "GE, \"fast\"";
  spec.axes.technologies = {
      runner::technology_case(analytic::HeterogeneityCase::kCase1), odd};
  spec.total_nodes = 64;
  spec.base_seed = std::numeric_limits<std::uint64_t>::max() - 5;
  return spec;
}

std::vector<std::shared_ptr<Backend>> pin_backends() {
  analytic::ModelOptions bisection;
  analytic::ModelOptions mva;
  mva.fixed_point.method = analytic::SourceThrottling::kExactMva;
  return {std::make_shared<runner::AnalyticBackend>(bisection, "analytic"),
          std::make_shared<runner::AnalyticBackend>(mva, "mva"),
          std::make_shared<ChaosBackend>()};
}

TEST(OutputPins, SweepTableCsvJsonAndJournalAreByteStable) {
  const std::string dir = ::testing::TempDir() + "hmcs_output_pins";
  std::filesystem::remove_all(dir);
  const std::string journal_path = dir + "/pins.jsonl";
  std::filesystem::create_directories(dir);

  const runner::SweepSpec spec = pin_spec();
  const auto backends = pin_backends();
  runner::JournalWriter::Shape shape;
  shape.id = spec.id;
  shape.points = 96;
  for (const auto& backend : backends) {
    shape.backend_names.push_back(backend->name());
  }
  runner::SweepResult result;
  {
    runner::JournalWriter journal(journal_path, shape, /*append=*/false);
    runner::RunnerOptions options;
    options.threads = 2;
    options.on_error = runner::FailurePolicy::kCollectAll;
    options.max_attempts = 2;
    options.cell_deadline_ms = 20.0;
    options.batch_cells = 128;  // MVA chunks: 96 cells, or lane groups
    options.journal = &journal;
    result = runner::run_sweep(spec, backends, options);
  }
  ASSERT_EQ(result.cells.size(), 288u);
  EXPECT_EQ(result.count_status(runner::CellStatus::kOk), 232u);
  EXPECT_EQ(result.count_status(runner::CellStatus::kDegraded), 40u);
  EXPECT_EQ(result.count_status(runner::CellStatus::kFailed), 8u);
  EXPECT_EQ(result.count_status(runner::CellStatus::kTimedOut), 8u);

  std::ostringstream report;
  runner::print_sweep_report(report, result, dir + "/csv", dir + "/json");
  const std::string csv = read_file(dir + "/csv/pins.csv");
  const std::string json = read_file(dir + "/json/pins.json");
  EXPECT_EQ(csv, runner::sweep_csv(result).to_string());
  EXPECT_EQ(json, runner::sweep_json(result) + "\n");

  std::string stdout_text = report.str();
  for (std::size_t at; (at = stdout_text.find(dir)) != std::string::npos;) {
    stdout_text.replace(at, dir.size(), "<dir>");
  }
  EXPECT_EQ(stdout_text.substr(0, stdout_text.find("cells: ")),
            "== " + spec.title + " ==\n" + runner::render_sweep_table(result));

  // Journal lines in cell order: only their order depends on how the
  // runner cut and scheduled its tasks.
  std::istringstream lines(read_file(journal_path));
  std::vector<std::string> records;
  std::string header;
  std::getline(lines, header);
  for (std::string line; std::getline(lines, line);) records.push_back(line);
  ASSERT_EQ(records.size(), 288u);
  const auto cell_of = [](const std::string& line) {
    return std::stoull(line.substr(8));  // {"cell":<n>,...
  };
  std::sort(records.begin(), records.end(),
            [&](const std::string& a, const std::string& b) {
              return cell_of(a) < cell_of(b);
            });
  std::uint64_t journal_digest = fnv1a(header + "\n");
  for (const std::string& line : records) {
    journal_digest = fnv1a(line + "\n", journal_digest);
  }

  EXPECT_EQ(fnv1a(runner::render_sweep_table(result)), 0x31e734977cde53b8ull);
  EXPECT_EQ(fnv1a(stdout_text), 0xd2ee2e53e01078c6ull);
  EXPECT_EQ(fnv1a(csv), 0x603a56808bb24ca4ull);
  EXPECT_EQ(fnv1a(json), 0x09079122e7107062ull);
  EXPECT_EQ(journal_digest, 0x921e9bc0d17f0383ull);
  EXPECT_EQ(csv.size(), 16051u);
  EXPECT_EQ(json.size(), 71804u);
  std::filesystem::remove_all(dir);
}

// --- Random JsonWriter documents ---------------------------------------------

/// std::mt19937_64's output sequence is fixed by the standard; the
/// distributions are not, so choices are taken from raw draws.
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  std::uint64_t bits() { return rng_(); }
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(rng_() % n);
  }

  std::string text() {
    static constexpr char kSpecial[] = {'"', '\\', '\n', '\r', '\t', '\b',
                                        '\f', '\x01', '\x1f', '\x7f', '/'};
    std::string out(below(14), ' ');
    for (char& c : out) {
      switch (below(4)) {
        case 0: c = kSpecial[below(sizeof(kSpecial))]; break;
        case 1: c = static_cast<char>(below(256)); break;
        default: c = static_cast<char>('a' + below(26)); break;
      }
    }
    return out;
  }

  double number() {
    switch (below(12)) {
      case 0: return std::numeric_limits<double>::quiet_NaN();
      case 1: return std::numeric_limits<double>::infinity();
      case 2: return -std::numeric_limits<double>::infinity();
      case 3: return std::numeric_limits<double>::denorm_min();
      case 4: return -std::numeric_limits<double>::min() / 3.0;
      case 5: return std::numeric_limits<double>::max();
      case 6: return -0.0;
      case 7: return static_cast<double>(below(1000000)) / 1000.0;
      default:
        // Any bit pattern: NaNs, subnormals, huge exponents.
        return std::bit_cast<double>(bits());
    }
  }

 private:
  std::mt19937_64 rng_;
};

void write_scalar(JsonWriter& json, Draw& draw) {
  switch (draw.below(11)) {
    case 0: json.value(draw.text()); break;
    case 1: json.value(draw.number()); break;
    case 2: json.value(std::numeric_limits<std::int64_t>::min()); break;
    case 3: json.value(std::numeric_limits<std::int64_t>::max()); break;
    case 4: json.value(std::numeric_limits<std::uint64_t>::max()); break;
    case 5: json.value(static_cast<std::int64_t>(draw.bits())); break;
    case 6: json.value(static_cast<std::int32_t>(draw.bits())); break;
    case 7: json.value(static_cast<std::uint32_t>(draw.bits())); break;
    case 8: json.value(draw.below(2) == 0); break;
    case 9: json.null(); break;
    default: json.value("const char*"); break;
  }
}

void write_value(JsonWriter& json, Draw& draw, int depth) {
  const std::size_t kind = depth >= 6 ? 2 : draw.below(4);
  if (kind == 0) {
    json.begin_object();
    const std::size_t members = draw.below(5);
    for (std::size_t i = 0; i < members; ++i) {
      json.key(draw.text() + std::to_string(i));  // keys stay unique
      write_value(json, draw, depth + 1);
    }
    json.end_object();
  } else if (kind == 1) {
    json.begin_array();
    const std::size_t items = draw.below(5);
    for (std::size_t i = 0; i < items; ++i) write_value(json, draw, depth + 1);
    json.end_array();
  } else {
    write_scalar(json, draw);
  }
}

TEST(OutputPins, RandomJsonWriterDocumentsAreByteStable) {
  Draw draw(20261019);
  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::size_t bytes = 0;
  for (int doc = 0; doc < 400; ++doc) {
    JsonWriter json;
    write_value(json, draw, doc % 3 == 0 ? 6 : 0);  // a third are root scalars
    const std::string text = json.str();
    digest = fnv1a(text, digest);
    bytes += text.size();
  }
  EXPECT_EQ(digest, 0x23c3e2ab32484539ull);
  EXPECT_EQ(bytes, 28195u);
}

}  // namespace
